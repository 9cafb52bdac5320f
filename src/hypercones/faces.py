"""Rank-based facial machinery for finitely generated desk-scale cones.

Faces are never materialized as lattice objects; every facial statement is
phrased through ranks of sums of generators, which is also how the chain
construction climbs: the minimal face containing a finite set of points is
the minimal face of their sum, so a rank that grows by exactly one per
added generator certifies a strictly increasing chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import spectrum
from .cones import HyperCone, membership_exact
from .poly import as_vector, is_exact_vector
from .report import CheckReport, InconclusiveError, Membership, Verdict


class ChainError(RuntimeError):
    """The generator set cannot extend the current face chain."""


@dataclass
class GeneratedFaceModel:
    """A cone together with an explicit finite set of extreme-ray points."""

    cone: HyperCone  # a root cone or one of its relaxations
    generators: tuple

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if not is_exact_vector(g):
                raise TypeError("generators must be rational vectors")
            g = as_vector(g)
            if membership_exact(self.cone, g) is Membership.OUT:
                raise ValueError(f"generator {g} lies outside the cone")
            gens.append(g)
        self.generators = tuple(gens)


@dataclass
class FaceChain:
    """Indices, partial sums and verified ranks of a strictly rising chain."""

    picks: list
    partial_sums: list
    ranks: list
    spectra: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "picks": list(self.picks),
            "ranks": list(self.ranks),
            "partial_sums": [[str(v) for v in s] for s in self.partial_sums],
            "spectra": [s.to_json_dict() for s in self.spectra],
        }


def _sum_vectors(vectors):
    n = len(vectors[0])
    out = [Fraction(0)] * n
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


def build_chain(model: GeneratedFaceModel, start_index: int, seed) -> FaceChain:
    """Greedy chain: add generators that raise the rank by exactly one.

    Starts from a single rank-1 generator and keeps extending until the
    full degree is reached.  Candidate order is by lowest index, or
    shuffled when a seed is given.  Raises ChainError with a diagnostic
    when no remaining generator raises the rank.
    """
    d = model.cone.d
    gens = model.generators
    if not 0 <= start_index < len(gens):
        raise IndexError("start index out of range")
    for i, g in enumerate(gens):
        r = spectrum.rank_exact(model.cone, g, sturm_verify=True)
        if r != 1:
            raise ChainError(f"generator {i} has rank {r}, expected 1")

    order = list(range(len(gens)))
    if seed is not None:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)

    picks = [start_index]
    total = gens[start_index]
    ranks = [0, 1]
    sums = [total]
    used = {start_index}
    current = 1
    while current < d:
        extended = False
        for i in order:
            if i in used:
                continue
            candidate = _sum_vectors([total, gens[i]])
            r = spectrum.rank_exact(model.cone, candidate, sturm_verify=True)
            if r == current + 1:
                picks.append(i)
                total = candidate
                current = r
                ranks.append(r)
                sums.append(total)
                used.add(i)
                extended = True
                break
        if not extended:
            raise ChainError(
                f"no generator raises the rank beyond {current} "
                f"(model has {len(gens)} generators, degree is {d})"
            )
    return FaceChain(
        picks=picks, partial_sums=sums, ranks=ranks, spectra=spectrum.spectra(model.cone, sums)
    )


def rog_check(model: GeneratedFaceModel) -> CheckReport:
    """Do all supplied extreme-ray points have rank one?

    Holds when every generator has rank 1 with respect to the model's
    polynomial; a failing generator is returned with its certified
    spectrum.  The generators are rational, so every rank is exact.
    """
    for i, g in enumerate(model.generators):
        try:
            r = spectrum.rank_exact(model.cone, g, sturm_verify=True)
        except InconclusiveError as exc:
            return CheckReport(
                verdict=Verdict.INCONCLUSIVE,
                samples=i,
                details={"generator": i, "reason": str(exc)},
            )
        if r != 1:
            spec = spectrum.eigenvalues(model.cone, g)
            return CheckReport(
                verdict=Verdict.FAILS,
                witness=g,
                samples=len(model.generators),
                details={"generator": i, "rank": r, "spectrum": spec.to_json_dict()},
            )
    return CheckReport(
        verdict=Verdict.HOLDS,
        samples=len(model.generators),
        details={"generators": len(model.generators)},
    )

