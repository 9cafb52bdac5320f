"""Eigenvalues of points along a direction: root extraction and rank.

Every float spectrum, single point or batch, goes through one batched
kernel: balanced companion-matrix eigenvalues plus two guarded Newton
steps on the rows that came back real.  Rational points add a polish
with exactly evaluated residuals on top of that rough pass; everything
tolerance-sensitive (zero classification, real-rootedness refutations,
multiplicities in face chains) can fall back to the exact Sturm-sequence
machinery in `poly` whenever the input point is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import (
    HomoPoly,
    UniPoly,
    as_vector,
    is_exact_vector,
    is_real_rooted,
)
from .report import InconclusiveError

DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_ZERO_TOL = 1e-7

# Residuals below this are treated as root-extraction noise when classifying
# membership; repeated real roots perturb companion eigenvalues by roughly
# sqrt(machine epsilon), well above DEFAULT_RESIDUAL_TOL.
RESIDUAL_GATE = 1e-6

# |eigenvalue| inside (zero_tol / BAND, zero_tol * BAND) cannot be classified
# as zero or nonzero without risking silent misclassification.
AMBIGUOUS_BAND = 4.0


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of a point plus the bookkeeping used to trust them."""

    eigenvalues: tuple[float, ...]
    residual: float
    zero_tol: float
    rank: int
    mult: int

    @property
    def lambda_min(self) -> float:
        return self.eigenvalues[-1] if self.eigenvalues else 0.0

    @property
    def lambda_max(self) -> float:
        return self.eigenvalues[0] if self.eigenvalues else 0.0

    def to_json_dict(self) -> dict:
        return {
            "eigs": list(self.eigenvalues),
            "residual": self.residual,
            "rank": self.rank,
            "mult": self.mult,
            "zero_tol": self.zero_tol,
        }


def _classify(roots, residual, zero_tol) -> Spectrum:
    rank = sum(1 for r in roots if abs(r) > zero_tol)
    return Spectrum(
        eigenvalues=tuple(roots),
        residual=float(residual),
        zero_tol=float(zero_tol),
        rank=rank,
        mult=len(roots) - rank,
    )


def _horner_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-wise Horner: coeffs (N, m) ascending, points (N, k) -> (N, k)."""
    acc = np.broadcast_to(coeffs[:, -1:], points.shape).copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * points + coeffs[:, j : j + 1]
    return acc


def _float_roots(coeffs: np.ndarray, tol: float):
    """Roots of each ascending coefficient row of degree >= 1.

    Leading entries must be nonzero.  Returns (real parts sorted
    descending per row, max imaginary magnitude per row); rows whose
    imaginary parts stay within `tol` get two Newton steps, each kept
    only where it does not increase |f|.
    """
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((n, d, d))
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, d - 1] = -coeffs[:, :d] / coeffs[:, d:]
    vals = np.linalg.eigvals(comp)
    residuals = np.abs(vals.imag).max(axis=1)
    lam = vals.real.copy()
    polish = residuals <= tol
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


def roots_from_float_coeffs(coeffs_asc, tol=DEFAULT_RESIDUAL_TOL):
    """All roots of a float-coefficient polynomial: (real parts desc, residual).

    Zero low-order coefficients give exact 0.0 roots; the rest goes
    through the batched kernel as a single row.
    """
    c = np.asarray(coeffs_asc, dtype=float)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    low, deg = nz[0], nz[-1]
    if deg == low:
        return (0.0,) * int(low), 0.0
    roots, residuals = _float_roots(c[None, low : deg + 1], tol)
    roots = np.concatenate([roots[0], np.zeros(low)])
    return tuple(float(v) for v in np.sort(roots)[::-1]), float(residuals[0])


def _exact_residual_polish(q: UniPoly, roots):
    """Refine ill-conditioned simple roots with exactly evaluated residuals.

    Floating-point Horner near a root loses everything to cancellation;
    evaluating the exact polynomial at the (exactly representable) float
    root restores the full residual, so one or two Newton steps land
    within an ulp or two of the true root.
    """
    dc_desc = (q.derivative().float_coeffs())[::-1]
    c_desc = q.float_coeffs()[::-1]
    abs_c_desc = np.abs(c_desc)
    eps = np.finfo(float).eps
    out = []
    for r in roots:
        fp = np.polyval(dc_desc, r)
        # forward error bound of float Horner at r; the observed residual
        # is useless here because cancellation can land exactly on zero
        err_est = eps * np.polyval(abs_c_desc, abs(r)) / max(abs(fp), 1e-300)
        if abs(fp) > 1e-300 and err_est > 1e-13 * (1.0 + abs(r)):
            for _ in range(2):
                f_exact = q.eval(Fraction(r))
                if f_exact == 0:
                    break
                fp = np.polyval(dc_desc, r)
                if not np.isfinite(fp) or abs(fp) < 1e-300:
                    break
                step = float(f_exact) / fp
                if not np.isfinite(step):
                    break
                r = r - step
        out.append(r)
    return out


def real_roots(q: UniPoly, tol: float = DEFAULT_RESIDUAL_TOL):
    """Roots of an exact univariate polynomial via its companion matrix.

    Returns (real parts sorted descending, max imaginary magnitude).
    Well-separated spectra go straight through the companion matrix with
    exact-residual Newton polish.  Clustered or repeated roots wreck
    companion accuracy, so those polynomials are first split into exact
    square-free factors, each contributing simple roots with its exact
    multiplicity.
    """
    if q.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    if q.degree == 0:
        return (), 0.0
    rough, residual = roots_from_float_coeffs(q.float_coeffs(), tol)
    scale = 1.0 + max((abs(r) for r in rough), default=0.0)
    separated = residual <= tol and (
        len(rough) < 2
        or min(a - b for a, b in zip(rough, rough[1:])) > 1e-5 * scale
    )
    if separated:
        roots = sorted(_exact_residual_polish(q, rough), reverse=True)
        return tuple(roots), residual

    from .poly import squarefree_factors

    roots = []
    residual = 0.0
    for factor, mult_ in squarefree_factors(q):
        r, res = roots_from_float_coeffs(factor.float_coeffs(), tol)
        residual = max(residual, res)
        for v in _exact_residual_polish(factor, r):
            roots.extend([v] * mult_)
    roots.sort(reverse=True)
    return tuple(roots), residual


def eigenvalues(
    cone,
    x,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> Spectrum:
    """Spectrum of a point: roots of the restriction of the cone polynomial.

    Rational points go through the exact restriction; float points through
    the cached float coefficient path.  In both cases the root extraction
    itself is floating point; use `rank_exact` when the answer must be
    certified.
    """
    if is_exact_vector(x):
        q = cone.restrict(as_vector(x))
        roots, residual = real_roots(q, residual_tol)
    else:
        coeffs = cone.restriction_coeffs_float(np.asarray(x, dtype=float)[None, :])[0]
        roots, residual = roots_from_float_coeffs(coeffs, residual_tol)
    return _classify(roots, residual, zero_tol)


def batch_eigenvalues(cone, points: np.ndarray, tol=DEFAULT_RESIDUAL_TOL):
    """Vectorized spectra for a batch of float points.

    Returns (eigs, residuals): eigs is (npts, d) with rows sorted
    descending, residuals the max imaginary magnitudes per point.
    """
    return _float_roots(cone.restriction_coeffs_float(points), tol)


def rank_exact(cone, x, sturm_verify: bool = False) -> int:
    """Certified rank of a rational point: degree minus the multiplicity of 0.

    The multiplicity of 0 in the exact restriction is its trailing-zero
    count.  With `sturm_verify` the restriction is additionally certified
    real-rooted and its nonzero real roots are recounted through the
    square-free Sturm oracle.
    """
    if not is_exact_vector(x):
        raise TypeError("rank_exact needs a rational point")
    q = cone.restrict(as_vector(x))
    if q.is_zero():
        raise ValueError("restriction vanished; p(e) = 0?")
    m = q.trailing_zero_count()
    r = cone.d - m
    if sturm_verify:
        if not is_real_rooted(q):
            raise InconclusiveError(
                "restriction is not real-rooted; point outside the hyperbolic regime"
            )
        reduced = q.shifted_down(m)
        from .poly import real_root_count_with_mult

        nonzero = real_root_count_with_mult(reduced)
        if nonzero != r:
            raise InconclusiveError(
                f"Sturm count {nonzero} disagrees with trailing-zero rank {r}"
            )
    return r


def _band_check(spec: Spectrum, zero_tol: float):
    lo, hi = zero_tol / AMBIGUOUS_BAND, zero_tol * AMBIGUOUS_BAND
    for lam in spec.eigenvalues:
        if lo < abs(lam) < hi:
            raise InconclusiveError(
                f"eigenvalue {lam} inside the ambiguous zero band ({lo}, {hi})",
                payload=spec,
            )


def rank(
    cone,
    x,
    zero_tol: float = DEFAULT_ZERO_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cross_direction=None,
) -> int:
    """Number of nonzero eigenvalues of x.

    Rational points are classified exactly.  Float points raise
    InconclusiveError when any eigenvalue falls inside the ambiguous band
    around zero_tol.  `cross_direction` optionally recomputes the rank
    along a second interior direction and demands agreement.
    """
    if is_exact_vector(x):
        r = rank_exact(cone, x)
    else:
        spec = eigenvalues(cone, x, residual_tol, zero_tol)
        if spec.residual > max(residual_tol, RESIDUAL_GATE):
            raise InconclusiveError(
                f"root residual {spec.residual} too large", payload=spec
            )
        _band_check(spec, zero_tol)
        r = spec.rank
    if cross_direction is not None:
        other = _along_other_direction(cone, cross_direction)
        r2 = rank(other, x, zero_tol, residual_tol)
        if r2 != r:
            raise InconclusiveError(
                f"rank disagrees across directions: {r} vs {r2}"
            )
    return r


def mult(cone, x, zero_tol: float = DEFAULT_ZERO_TOL, **kw) -> int:
    return cone.d - rank(cone, x, zero_tol, **kw)


def _along_other_direction(cone, direction):
    from .cones import HyperCone

    return HyperCone(cone.p, as_vector(direction), label=cone.label + "|alt-direction")


# ---------------------------------------------------------------------------
# Sampling-based real-rootedness check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicityCertificate:
    """Falsification result: a refutation is proof, a pass is only evidence."""

    verdict: str  # "LooksHyperbolic" | "RefutedWithWitness"
    samples_checked: int
    worst_residual: float
    witness: tuple[Fraction, ...] | None = None

    @property
    def refuted(self) -> bool:
        return self.verdict == "RefutedWithWitness"

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "samples_checked": self.samples_checked,
            "worst_residual": self.worst_residual,
        }
        if self.witness is not None:
            out["witness"] = [str(v) for v in self.witness]
        return out


def _dyadic(arr: np.ndarray, bits: int = 16) -> np.ndarray:
    scale = float(1 << bits)
    return np.round(arr * scale) / scale


def check_hyperbolic(
    p: HomoPoly,
    e,
    nsamples: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> HyperbolicityCertificate:
    """Sample restrictions of p along e and hunt for non-real roots.

    Sampling distribution: standard Gaussian coordinates snapped to dyadic
    rationals, plus a boundary-biased second wave x = y - lambda_min(y) e.
    A candidate refutation (companion-matrix residual above tol) is only
    reported after the exact Sturm oracle confirms the restriction at the
    rational sample is not real-rooted, so a refutation is certified.
    """
    e = as_vector(e)
    if p.eval(e) <= 0:
        return HyperbolicityCertificate(
            "RefutedWithWitness", 0, float("inf"), witness=e
        )
    from .cones import HyperCone

    cone = HyperCone(p, e)
    rng = np.random.default_rng(seed)
    raw = _dyadic(rng.standard_normal((max(nsamples, 1), p.nvars)))
    worst = 0.0
    checked = 0

    def scan(points: np.ndarray):
        """Witness among the points, if any, plus their batched spectra."""
        nonlocal worst, checked
        eigs, residuals = batch_eigenvalues(cone, points, tol)
        for i in np.flatnonzero(residuals > tol):
            x_exact = as_vector(points[i])
            if not is_real_rooted(cone.restrict(x_exact)):
                checked += int(i) + 1
                worst = max(worst, float(residuals[: i + 1].max()))
                return x_exact, eigs
        checked += len(points)
        worst = max(worst, float(residuals.max()))
        return None, eigs

    witness, eigs = scan(raw)
    if witness is None:
        witness, _ = scan(_dyadic(raw - eigs[:, -1:] * cone.e_float[None, :]))
    if witness is not None:
        return HyperbolicityCertificate("RefutedWithWitness", checked, worst, witness)
    return HyperbolicityCertificate("LooksHyperbolic", checked, worst, None)
