"""Eigenvalues of points along a direction: root extraction and rank.

A `Spectrum` is a certificate, and only rational points get one.  The
line restriction arrives as one primitive integer polynomial
(`HyperCone.restrict`); its zero coefficients at the low end give the
eigenvalue 0 with its exact multiplicity and are sliced off, one integer
Sturm chain per square-free factor refutes or certifies real-rootedness, and
every root is isolated (the float kernel only proposes split points) and
refined by exact sign evaluations to at most 2 ulp (Collins & Akritas
1976).  So its residual is a certified error bound, and an eigenvalue
beyond the float range is reported as inconclusive, not rounded.

Float points come as the rows of a 2-D stack and only ever go through one
batched kernel: balanced companion-matrix eigenvalues plus two guarded
Newton steps on the rows that came back real (`batch_eigenvalues`,
`HyperCone.lambda_min` and `rank`, one result per row).  A rational point
takes the exact routes `eigenvalues` and `rank_exact`.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from math import copysign, inf, isfinite

import numpy as np

from .poly import (
    factor_chains,
    is_exact_vector,
    is_real_rooted,
    sign_at,
    sign_variations,
)
from .report import InconclusiveError

# Float roots whose imaginary parts stay within this get the Newton polish.
RESIDUAL_TOL = 1e-8
# |eigenvalue| up to this counts as zero in the rank of a float point.
DEFAULT_ZERO_TOL = 1e-7

# Residuals below this are treated as root-extraction noise when classifying
# membership; repeated real roots perturb companion eigenvalues by roughly
# sqrt(machine epsilon), well above RESIDUAL_TOL.
RESIDUAL_GATE = 1e-6

# |eigenvalue| inside (DEFAULT_ZERO_TOL / BAND, DEFAULT_ZERO_TOL * BAND) cannot be classified
# as zero or nonzero without risking silent misclassification.
AMBIGUOUS_BAND = 4.0

NOT_REAL_ROOTED = "restriction is not real-rooted; point outside the hyperbolic regime"

FLOAT_MAX = sys.float_info.max
OUTSIDE_FLOAT_RANGE = f"an eigenvalue lies outside the float range [-{FLOAT_MAX}, {FLOAT_MAX}]"


@dataclass(frozen=True)
class Spectrum:
    """Certified spectrum of a rational point.

    `eigenvalues` are sorted descending, each within `residual` of a true
    eigenvalue; `mult` is the exact multiplicity of 0 and `rank` the number
    of nonzero eigenvalues.
    """

    eigenvalues: tuple[float, ...]
    residual: float
    rank: int
    mult: int

    @property
    def lambda_min(self) -> float:
        return self.eigenvalues[-1] if self.eigenvalues else 0.0

    def to_json_dict(self) -> dict:
        return {
            "eigs": list(self.eigenvalues),
            "residual": self.residual,
            "rank": self.rank,
            "mult": self.mult,
        }


def _horner_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-wise Horner: coeffs (N, m) ascending, points (N, k) -> (N, k)."""
    acc = np.broadcast_to(coeffs[:, -1:], points.shape).copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * points + coeffs[:, j : j + 1]
    return acc


def _float_roots(coeffs: np.ndarray):
    """Roots of each ascending coefficient row of degree >= 1.

    Leading entries must be nonzero.  Returns (real parts sorted
    descending per row, max imaginary magnitude per row); rows whose
    imaginary parts stay within RESIDUAL_TOL get two Newton steps, each
    kept only where it does not increase |f|.
    """
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((n, d, d))
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, d - 1] = -coeffs[:, :d] / coeffs[:, d:]
    vals = np.linalg.eigvals(comp)
    residuals = np.abs(vals.imag).max(axis=1)
    lam = vals.real.copy()
    polish = residuals <= RESIDUAL_TOL
    if polish.any():
        c = coeffs[polish]
        dc = c[:, 1:] * np.arange(1, d + 1)
        r = lam[polish]
        for _ in range(2):
            f = _horner_rows(c, r)
            fp = _horner_rows(dc, r)
            safe = np.abs(fp) > 1e-300
            cand = r - np.divide(f, fp, out=np.zeros_like(f), where=safe)
            r = np.where(np.abs(_horner_rows(c, cand)) <= np.abs(f), cand, r)
        lam[polish] = r
    return np.sort(lam, axis=1)[:, ::-1], residuals


def _ordinal(x: float) -> int:
    """Position of x among the floats: adjacent floats differ by one."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _from_ordinal(n: int) -> float:
    return copysign(struct.unpack("<d", struct.pack("<q", abs(n)))[0], n)


def _enclosure(lo: int, hi: int):
    """Midpoint and half-width of the float interval (lo, hi] in ordinals."""
    a, b, m = _from_ordinal(lo), _from_ordinal(hi), _from_ordinal((lo + hi + 1) // 2)
    return m, max(m - a, b - m)


def _refine(f, a: int, b: int, guess):
    """Shrink (a, b] (ordinals) around the one root of f in it to 2 ulp.
    Probes gallop away from the guess (the float seed's ordinal), so a good
    guess costs two or three sign evaluations; others bisect."""
    sb = sign_at(f, _from_ordinal(b))
    if sb == 0:
        return _from_ordinal(b), 0.0
    t, step = guess, 1
    while b - a > 2:
        if not a < t < b:
            t, step = (a + b) // 2, 0
        s = sign_at(f, _from_ordinal(t))
        if s == 0:
            return _from_ordinal(t), 0.0
        a, b, t = (a, t, t - step) if s == sb else (t, b, t + step)
        step *= 2
    return _enclosure(a, b)


def _float_seeds(f) -> list[int]:
    """Ordinals of the finite float-kernel roots of the integer polynomial f,
    ascending.  They only propose split points, so coefficients beyond the
    float range give no seeds and an overflowing Newton step stays silent."""
    try:
        coeffs = np.array([[c / f[-1] for c in f]])
    except OverflowError:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _float_roots(coeffs)[0][0]
    return [_ordinal(float(v)) for v in roots[::-1] if isfinite(v)]


def _inside_float_range(chain) -> bool:
    """Do all roots of the square-free, real-rooted chain[0] lie in
    [-FLOAT_MAX, FLOAT_MAX]?  The Cauchy bound 1 + max|c_i / c_d| settles
    most polynomials in integers; the rest take two Sturm counts."""
    f = chain[0]
    lead = abs(f[-1])
    if max(abs(c) for c in f[:-1]) + lead <= int(FLOAT_MAX) * lead:
        return True
    inside = sign_variations(chain, -FLOAT_MAX) - sign_variations(chain, FLOAT_MAX)
    inside += sign_at(f, -FLOAT_MAX) == 0  # (lo, hi] counts leave out -FLOAT_MAX
    return inside == len(f) - 1


def _root_enclosures(chain):
    """(midpoint, half-width) of each root of the square-free chain[0].

    Split points between the float roots isolate the roots; an interval
    the chain counts twice is bisected, and roots closer than 2 ulp share
    one interval.  Fewer real roots than the degree is a refutation; a
    root beyond the float range is inconclusive.
    """
    f = chain[0]
    seeds = _float_seeds(f)
    splits = {(s + t) // 2 for s, t in zip(seeds, seeds[1:]) if s < t}
    cuts = [_ordinal(-inf), *sorted(splits), _ordinal(inf)]
    variations = {c: sign_variations(chain, _from_ordinal(c)) for c in cuts}
    if variations[cuts[0]] - variations[cuts[-1]] < len(f) - 1:
        raise InconclusiveError(NOT_REAL_ROOTED)
    if not _inside_float_range(chain):
        raise InconclusiveError(OUTSIDE_FLOAT_RANGE)
    out = []
    work = list(zip(cuts, cuts[1:]))
    while work:
        a, b = work.pop()
        count = variations[a] - variations[b]
        if count == 1:
            guess = next((s for s in seeds if a < s < b), a)
            out.append(_refine(f, a, b, guess))
        elif count > 1 and b - a <= 2:
            out.extend([_enclosure(a, b)] * count)
        elif count > 1:
            mid = (a + b) // 2
            variations[mid] = sign_variations(chain, _from_ordinal(mid))
            work += [(a, mid), (mid, b)]
    return out


def _zero_multiplicity(f) -> int:
    """Multiplicity of 0 as a root of f: the index of its first nonzero coefficient."""
    return next(i for i, c in enumerate(f) if c)


def real_roots(f):
    """Certified real roots of an ascending integer polynomial f:
    (descending, residual).

    Zero coefficients at the low end give exact 0.0 roots and are sliced
    off; every other root is isolated in its square-free factor and
    repeated by its exact multiplicity.  Each root lies within `residual`,
    the largest half-width, of its float.  A non-real root, or a root
    beyond the float range, raises InconclusiveError.
    """
    if not f:
        raise ValueError("zero polynomial has no well-defined roots")
    m = _zero_multiplicity(f)
    roots = [0.0] * m
    residual = 0.0
    for chain, mult in factor_chains(f[m:]):
        for root, half_width in _root_enclosures(chain):
            roots.extend([root] * mult)
            residual = max(residual, half_width)
    roots.sort(reverse=True)
    return tuple(roots), residual


def eigenvalues(cone, x) -> Spectrum:
    """Certified spectrum of a rational point: `real_roots` of the
    restriction of the cone polynomial.

    The multiplicity of 0 is read exactly off the restriction's
    coefficients.  A restriction that is not real-rooted, or an eigenvalue
    beyond the float range, raises InconclusiveError; a float point raises
    TypeError (float points take `batch_eigenvalues`).
    """
    if not is_exact_vector(x):
        raise TypeError("eigenvalues needs a rational point; use batch_eigenvalues")
    f = cone.restrict(x)
    roots, residual = real_roots(f)
    mult = _zero_multiplicity(f)
    return Spectrum(roots, float(residual), len(roots) - mult, mult)


def batch_eigenvalues(cone, points: np.ndarray):
    """Vectorized spectra for a batch of float points.

    Returns (eigs, residuals): eigs is (npts, d) with rows sorted
    descending, residuals the max imaginary magnitudes per point.
    """
    return _float_roots(cone.restriction_coeffs_float(points))


def rank_exact(cone, x, sturm_verify: bool = False) -> int:
    """Certified rank of a rational point: degree minus the multiplicity of 0.

    The multiplicity m of 0 is the number of zero coefficients at the low
    end of the exact restriction, whose leading coefficient p(e) is
    positive.  With `sturm_verify` the restriction is also certified
    real-rooted by Sturm counts; a real-rooted restriction with root 0 of
    multiplicity m has exactly d - m nonzero real roots, so nothing is
    recounted.
    """
    if not is_exact_vector(x):
        raise TypeError("rank_exact needs a rational point")
    f = cone.restrict(x)
    if sturm_verify and not is_real_rooted(f):
        raise InconclusiveError(NOT_REAL_ROOTED)
    return cone.d - _zero_multiplicity(f)


def zero_rule(eigs: np.ndarray):
    """(ranks, ambiguous) of each row of a float eigenvalue stack: counts of
    |eigenvalue| > DEFAULT_ZERO_TOL, and whether one lies in the band."""
    mag = np.abs(eigs)
    lo, hi = DEFAULT_ZERO_TOL / AMBIGUOUS_BAND, DEFAULT_ZERO_TOL * AMBIGUOUS_BAND
    ambiguous = ((lo < mag) & (mag < hi)).any(axis=1)
    return eigs.shape[1] - (mag <= DEFAULT_ZERO_TOL).sum(axis=1), ambiguous


def rank(cone, points) -> list[int | None]:
    """Number of nonzero eigenvalues of each row of a 2-D float stack, from
    one batched spectrum.

    A row cannot be classified, and gets None, when its root residual
    exceeds RESIDUAL_GATE or `zero_rule` finds it ambiguous.  Rational
    points take `rank_exact`.
    """
    eigs, residuals = batch_eigenvalues(cone, points)
    ranks, ambiguous = zero_rule(eigs)
    unclear = (residuals > RESIDUAL_GATE) | ambiguous
    return [None if u else r for u, r in zip(unclear.tolist(), ranks.tolist())]
