"""Desk-scale toolkit for cones of real-rooted directions.

Exact rational polynomial arithmetic underneath, floating point with
certified fallbacks on top: eigenvalues of points, three-valued cone
membership, derivative relaxations, facial chains, and automorphism
certificates with re-verifiable witnesses.
"""

from .cones import (
    HyperCone,
    contains,
    contains_by_inequalities,
    membership_exact,
    strict_containment_witness,
)
from .poly import HomoPoly, UniPoly, as_fraction, as_vector, restrict_line
from .report import CheckReport, InconclusiveError, Membership, Verdict
from .spectrum import Spectrum, eigenvalues, rank

__all__ = [
    "CheckReport",
    "HomoPoly",
    "HyperCone",
    "InconclusiveError",
    "Membership",
    "Spectrum",
    "UniPoly",
    "Verdict",
    "as_fraction",
    "as_vector",
    "contains",
    "contains_by_inequalities",
    "eigenvalues",
    "membership_exact",
    "rank",
    "restrict_line",
    "strict_containment_witness",
]

__version__ = "0.1.0"
