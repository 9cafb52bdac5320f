"""Eigenvalues of points along a direction: root extraction and rank.

A `Spectrum` is a certificate, and only rational points get one.
`spectra` takes a list of rational points and is the one exact core;
`eigenvalues` is its one-point form and `real_roots` its one-polynomial
form.  Each line restriction arrives as one primitive integer polynomial
(`HyperCone.restrict`); its zero coefficients at the low end give the
eigenvalue 0 with its exact multiplicity and are sliced off.  The float
kernel only proposes split points: unpolished companion eigenvalues, one
`eigvals` call per degree for every tail of the list.  When a tail's signs
at the d + 1 cuts between its seeds alternate strictly, each interval
holds one simple root, so the tail is real-rooted and square-free and no
Sturm chain is built.  Only a tail that does not alternate is split into
square-free factors, which try alternation first.  A square-free
polynomial that does not alternate, typically at a root cluster the
unpolished seeds cannot separate, is shifted exactly in integers to each
of its seeds, and the roots of the shifted polynomials nearest 0 are its
new seeds, for up to RESEED_ROUNDS rounds; the Sturm counts of what
still does not alternate refute or certify real-rootedness and isolate
the roots.  Every root is then refined by exact sign evaluations to its
one-ulp float cell (a, b] (Collins & Akritas 1976).  The eigenvalue is b,
the least float >= the root, so it is exact when the root is a float and
never depends on the seeds; the residual is one ulp, b - a, or 0 when
every root is exact, a certified error bound.  An eigenvalue beyond the
float range is reported as inconclusive, not rounded.

Float points come as the rows of a 2-D stack and only ever go through one
batched kernel: balanced companion-matrix eigenvalues plus two guarded
Newton steps on the rows that came back real (`batch_eigenvalues`,
`HyperCone.lambda_min` and `rank`, one result per row).  A rational point
takes the exact routes `spectra` (or `eigenvalues`) and `rank_exact`.
"""

from __future__ import annotations

import struct
import sys
from collections import Counter
from dataclasses import dataclass
from math import copysign, inf, isfinite, ldexp

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

# Rounds of Taylor-shift re-seeding (`_shifted_seeds`) a square-free
# polynomial whose seeds do not alternate gets before its Sturm counts.
RESEED_ROUNDS = 3

NOT_REAL_ROOTED = "restriction is not real-rooted; point outside the hyperbolic regime"

FLOAT_MAX = sys.float_info.max
OUTSIDE_FLOAT_RANGE = f"an eigenvalue lies outside the float range [-{FLOAT_MAX}, {FLOAT_MAX}]"


@dataclass(frozen=True)
class Spectrum:
    """Certified spectrum of a rational point.

    `eigenvalues` are sorted descending, each the least float >= its true
    eigenvalue, so equal to it when it is a float; `residual` bounds the
    error: one ulp of the widest cell, or 0 when every eigenvalue is exact.
    `mult` is the exact multiplicity of 0 and `rank` the number of nonzero
    eigenvalues.
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


def _companion(coeffs: np.ndarray) -> np.ndarray:
    """Column-form companion matrices of ascending coefficient rows of
    degree >= 1 with nonzero leading entries."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((n, d, d))
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, d - 1] = -coeffs[:, :d] / coeffs[:, d:]
    return comp


def _float_roots(coeffs: np.ndarray):
    """Roots of each ascending coefficient row of degree >= 1.

    Leading entries must be nonzero.  Returns (real parts sorted
    descending per row, max imaginary magnitude per row); rows whose
    imaginary parts stay within RESIDUAL_TOL get two Newton steps, each
    kept only where it does not increase |f|.
    """
    d = coeffs.shape[1] - 1
    vals = np.linalg.eigvals(_companion(coeffs))
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


_NEG_INF, _POS_INF = _ordinal(-inf), _ordinal(inf)


def _cell(a: int, b: int):
    """(b, b - a) as floats for a one-ulp float interval (a, b] (ordinals):
    the least float >= a root inside it, and the bound on its error.  A
    cell that ends at +-inf holds a root beyond the float range."""
    if a == _NEG_INF or b == _POS_INF:
        raise InconclusiveError(OUTSIDE_FLOAT_RANGE)
    hi = _from_ordinal(b)
    return hi, hi - _from_ordinal(a)


def _refine(f, a: int, b: int, sb: int, guess: int):
    """(eigenvalue, error bound) of the one root of f in the float interval
    (a, b] (ordinals), where sb is the sign of f at b.

    The bracket shrinks by exact sign evaluations to the root's one-ulp
    cell (a', b'], probing the middle once it is 2 ulp wide, so the result
    is b', the least float >= the root, with bound b' - a'; a root that is
    itself a float is hit by a probe, or is b, and comes back exact with
    bound 0.  Either way it depends on the root alone.  Probes gallop away
    from the guess (a float seed's ordinal), so a close guess saves sign
    evaluations; a guess outside the bracket bisects.
    """
    if sb == 0:
        return _from_ordinal(b), 0.0
    t, step = guess, 1
    while b - a > 1:
        if not a < t < b:
            t, step = (a + b) // 2, 0
        s = sign_at(f, _from_ordinal(t))
        if s == 0:
            return _from_ordinal(t), 0.0
        a, b, t = (a, t, t - step) if s == sb else (t, b, t + step)
        step *= 2
    return _cell(a, b)


def _float_seeds(fs) -> list[list[int]]:
    """Ordinals of the finite real parts of the companion eigenvalues of
    each integer polynomial in fs, ascending; a constant gets none.  One
    unpolished `eigvals` call per degree seeds every polynomial of that
    degree.  Seeds only propose cuts and first probes, and no certified
    root depends on them, so a polynomial whose coefficients lie beyond the
    float range gets no seeds and an overflow inside LAPACK stays silent."""
    seeds = [[] for _ in fs]
    groups = {}
    for i, f in enumerate(fs):
        if len(f) < 2:
            continue
        try:
            row = [c / f[-1] for c in f]
        except OverflowError:
            continue
        groups.setdefault(len(f), []).append((i, row))
    for group in groups.values():
        index, rows = zip(*group)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.sort(np.linalg.eigvals(_companion(np.array(rows))).real, axis=1)
        for i, r in zip(index, vals.tolist()):
            seeds[i] = [_ordinal(v) for v in r if isfinite(v)]
    return seeds


def _cuts(seeds) -> list[int]:
    """-inf, one split point between each two distinct neighbouring seeds,
    and +inf, as ascending ordinals."""
    splits = {(s + t) // 2 for s, t in zip(seeds, seeds[1:]) if s < t}
    return [_NEG_INF, *sorted(splits), _POS_INF]


def _alternation(f, seeds):
    """(cuts, signs) when the signs of f at the d + 1 cuts between its
    seeds are nonzero and alternate strictly, else None.  Each of the d
    intervals then holds exactly one simple root, so f is real-rooted and
    square-free, and no Sturm chain is needed."""
    cuts = _cuts(seeds)
    if len(cuts) != len(f):
        return None
    signs = [sign_at(f, _from_ordinal(c)) for c in cuts]
    if all(s * t == -1 for s, t in zip(signs, signs[1:])):
        return cuts, signs
    return None


def _alternating_cells(f, seeds, cuts, signs):
    """The cell of the one root in each interval of an alternation; the
    sign at each right cut is already known.  Interval i holds seed i."""
    guesses = seeds or [_NEG_INF]  # degree 1 alternates even without a seed
    return [_refine(f, a, b, sb, g) for a, b, sb, g in zip(cuts, cuts[1:], signs[1:], guesses)]


def _sturm_cells(chain, seeds):
    """The cells of the roots of the square-free chain[0] from Sturm counts:
    the fallback for a polynomial whose re-seeded cuts still do not
    alternate, such as one with non-real roots or roots a few ulps apart.

    The chain counts the roots at every cut between the seeds, an interval
    counted twice is bisected, and roots closer than one ulp share one
    cell.  Fewer real roots than the degree is a refutation.
    """
    f = chain[0]
    cuts = _cuts(seeds)
    variations = {c: sign_variations(chain, _from_ordinal(c)) for c in cuts}
    if variations[cuts[0]] - variations[cuts[-1]] < len(f) - 1:
        raise InconclusiveError(NOT_REAL_ROOTED)
    out = []
    work = list(zip(cuts, cuts[1:]))
    while work:
        a, b = work.pop()
        count = variations[a] - variations[b]
        if count == 1:
            guess = next((s for s in seeds if a < s < b), a)
            out.append(_refine(f, a, b, sign_at(f, _from_ordinal(b)), guess))
        elif count > 1 and b - a <= 1:
            out.extend([_cell(a, b)] * count)
        elif count > 1:
            mid = (a + b) // 2
            variations[mid] = sign_variations(chain, _from_ordinal(mid))
            work += [(a, mid), (mid, b)]
    return out


def _shifted_seeds(f, seeds):
    """New ascending seeds for the square-free f, proposed next to its old
    ones, or None when there are not deg f of them or a shift overflows.

    f is shifted exactly to each distinct seed c = m / 2^k: by Horner in
    integers, G(u) = sum_i f_i (m + u)^i 2^(k(d - i)) = 2^(kd) f(c + u / 2^k),
    whose roots u = 2^k lambda - m near 0 are the roots of f near c with
    the cancellation of evaluating f there left to exact integers.  One
    unpolished `eigvals` call takes every G; a seed value proposed m times
    keeps the m roots of its G nearest 0.
    """
    if len(seeds) != len(f) - 1:
        return None
    counts = Counter(seeds)
    centres, rows = [], []
    for s in counts:
        c = _from_ordinal(s)
        m, den = c.as_integer_ratio()
        g, power = [f[-1]], 1
        for fi in reversed(f[:-1]):
            power *= den
            g = [m * g[0] + fi * power, *(m * a + b for a, b in zip(g[1:], g)), g[-1]]
        try:
            rows.append([v / f[-1] for v in g])
        except OverflowError:
            return None
        centres.append((c, den.bit_length() - 1, counts[s]))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.linalg.eigvals(_companion(np.array(rows)))
    nearest = np.take_along_axis(vals.real, np.argsort(np.abs(vals), axis=1), axis=1)
    out = []
    for (c, k, mult), us in zip(centres, nearest.tolist()):
        out += [v for v in (c + ldexp(u, -k) for u in us[:mult]) if isfinite(v)]
    return sorted(_ordinal(v) for v in out)


def _reseeded_cells(chain, seeds):
    """Cells of the square-free chain[0] when its seeds do not alternate:
    up to RESEED_ROUNDS rounds of `_shifted_seeds`, each followed by an
    alternation test, and the Sturm counts when none alternates."""
    f = chain[0]
    for _ in range(RESEED_ROUNDS):
        shifted = _shifted_seeds(f, seeds)
        if shifted is None:
            break
        seeds = shifted
        alternation = _alternation(f, seeds)
        if alternation is not None:
            return _alternating_cells(f, seeds, *alternation)
    return _sturm_cells(chain, seeds)


def _factor_cells(chain, seeds):
    """Cells of a square-free factor: alternation at its seed cuts first,
    then the re-seeding rounds and Sturm counts of `_reseeded_cells`."""
    alternation = _alternation(chain[0], seeds)
    if alternation is None:
        return _reseeded_cells(chain, seeds)
    return _alternating_cells(chain[0], seeds, *alternation)


def _zero_multiplicity(f) -> int:
    """Multiplicity of 0 as a root of f: the index of its first nonzero coefficient."""
    return next(i for i, c in enumerate(f) if c)


def _certified_roots(fs):
    """(descending roots, residual) of each ascending integer polynomial in
    fs: the one exact root path.  Errors are raised in the order of fs.

    Each tail (f with its zero roots sliced off) is seeded once, all tails
    of a degree in one `_float_seeds` call, and one that alternates at its
    seed cuts is certified with no Sturm chain.  Only a tail that does not
    alternate takes `factor_chains`: a square-free one goes on to the
    re-seeding rounds with its seeds, and the Yun factors of the others
    get one seeding call for all of them and try alternation first, so a
    tail with a repeated root is never re-seeded itself.
    """
    if not all(fs):
        raise ValueError("zero polynomial has no well-defined roots")
    tails = [f[_zero_multiplicity(f):] for f in fs]
    seeds = _float_seeds(tails)
    alternations = [_alternation(t, s) for t, s in zip(tails, seeds)]
    split = {i: factor_chains(t) for i, (t, alt) in enumerate(zip(tails, alternations))
             if alt is None}
    squarefree = {i for i, fc in split.items() if [mult for _, mult in fc] == [1]}
    yun_seeds = iter(_float_seeds([chain[0] for i, fc in split.items() if i not in squarefree
                                   for chain, _ in fc]))
    out = []
    for i, f in enumerate(fs):
        if alternations[i] is not None:
            parts = [(_alternating_cells(tails[i], seeds[i], *alternations[i]), 1)]
        elif i in squarefree:
            parts = [(_reseeded_cells(split[i][0][0], seeds[i]), 1)]
        else:
            parts = [(_factor_cells(chain, next(yun_seeds)), mult) for chain, mult in split[i]]
        roots = [0.0] * (len(f) - len(tails[i]))
        residual = 0.0
        for cells, mult in parts:
            for root, error in cells:
                roots.extend([root] * mult)
                residual = max(residual, error)
        roots.sort(reverse=True)
        out.append((tuple(roots), residual))
    return out


def real_roots(f):
    """Certified real roots of an ascending integer polynomial f:
    (descending, residual).  The one-polynomial form of `spectra`.

    Zero coefficients at the low end give exact 0.0 roots and are sliced
    off; every other root is isolated, in the tail itself when it
    alternates or else in its square-free factor (by alternation at its
    own or re-seeded cuts, or by Sturm counts), and repeated by its
    exact multiplicity.  Each float is the least float >= its root, which
    lies within `residual`, the widest cell, of it.  A non-real root, or a
    root beyond the float range, raises InconclusiveError.
    """
    return _certified_roots([f])[0]


def spectra(cone, xs) -> list[Spectrum]:
    """Certified spectra of a list of rational points: `real_roots` of the
    restriction of the cone polynomial at each, with one `eigvals` call
    per degree proposing the split points of every root.

    The multiplicity of 0 is read exactly off each restriction's
    coefficients.  A restriction that is not real-rooted, or an eigenvalue
    beyond the float range, raises InconclusiveError; a float point raises
    TypeError (float points take `batch_eigenvalues`).
    """
    if not all(is_exact_vector(x) for x in xs):
        raise TypeError("spectra need rational points; use batch_eigenvalues")
    fs = [cone.restrict(x) for x in xs]
    out = []
    for f, (roots, residual) in zip(fs, _certified_roots(fs)):
        mult = _zero_multiplicity(f)
        out.append(Spectrum(roots, float(residual), len(roots) - mult, mult))
    return out


def eigenvalues(cone, x) -> Spectrum:
    """Certified spectrum of one rational point: the one-point form of
    `spectra`, with the same errors."""
    return spectra(cone, [x])[0]


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
