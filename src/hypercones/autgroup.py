"""Certify or refute linear maps as cone automorphisms.

Two verification tiers.  The exact tier applies to rational maps: the
scaling constant kappa = p(e)/p(Ae) is computed exactly and the identity
kappa * (p o A) = p is checked by exact evaluation on the simplex lattice
{x in Z>=0^n : |x| = d}.  That lattice is unisolvent for forms of degree
d, so agreement at every point proves the identity without expanding
p o A; together with the image of the direction being interior it is a
proof of automorphism (no minimality needed for that direction).  The
first point where the sides differ is a witness anyone can re-check with
two evaluations.  It refutes only when the polynomial is flagged minimal;
otherwise the check drops to the float tier: sampled membership
preservation with margins, where every refutation re-verifies its witness
before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import exactlin, spectrum
from .cones import (
    MEMBERSHIP_TOL,
    WITNESS_BUDGET,
    HyperCone,
    boundary_cloud,
    contains,
    in_interior_exact,
    membership_exact,
    to_level,
)
from .gallery import smat_float, svec_float
from .poly import (
    as_fraction,
    as_vector,
    is_exact_vector,
    polar_form_float,
    scaling_mismatch,
)
from .report import CheckReport, InconclusiveError, Membership, Verdict

# |lambda_min| below this is treated as indecisive when sampling membership.
DECISIVE_MARGIN = 1e-4
# Two-sided lambda_min margin a membership-violation witness must clear.
WITNESS_MARGIN = 1e-6
# Relative residual of A e - alpha e under which a float map fixes the ray.
STABILIZER_TOL = 1e-10
# Sampled points whose copies at lambda_min = +-m, for each m in
# WAVE_MARGINS, join the float-tier cloud.
WAVE_POINTS = 256
WAVE_MARGINS = (0.5, 0.1, 0.01)
# Terms of the Cesaro average behind the fallback Perron vector.
CESARO_ITERATIONS = 256
# Eigenvalues below this fraction of the largest span no face direction.
RANGE_REL_TOL = 1e-6
# Relative distance of M^T M from mu I under which a float M counts as
# scaled orthogonal.
ORTHOGONALITY_TOL = 1e-8


class LinearMap:
    """Square matrix with exact rational entries and a cached float view."""

    __slots__ = ("n", "rows", "_det", "_float", "_inv")

    def __init__(self, rows):
        rows = exactlin.as_matrix(rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("linear map must be square")
        self.n = n
        self.rows = rows
        self._det = None
        self._float = None
        self._inv = None

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(exactlin.identity(n))

    @classmethod
    def diagonal(cls, entries) -> "LinearMap":
        return cls(exactlin.diag(entries))

    @classmethod
    def permutation(cls, perm) -> "LinearMap":
        return cls(exactlin.permutation(perm))

    @classmethod
    def scaled_permutation(cls, scalings, perm) -> "LinearMap":
        scalings = as_vector(scalings)
        base = exactlin.permutation(perm)
        return cls(
            tuple(
                tuple(scalings[i] * v for v in row) for i, row in enumerate(base)
            )
        )

    @property
    def det(self) -> Fraction:
        if self._det is None:
            self._det = exactlin.det(self.rows)
        return self._det

    @property
    def invertible(self) -> bool:
        return self.det != 0

    def inverse(self) -> "LinearMap":
        if self._inv is None:
            self._inv = LinearMap(exactlin.inverse(self.rows))
        return self._inv

    def apply(self, v):
        return exactlin.matvec(self.rows, v)

    def to_float(self) -> np.ndarray:
        if self._float is None:
            self._float = np.array([[float(v) for v in row] for row in self.rows])
        return self._float

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(exactlin.matmul(self.rows, other.rows))

    def to_json_rows(self):
        return [[str(v) for v in row] for row in self.rows]

    @classmethod
    def from_json_rows(cls, data) -> "LinearMap":
        return cls([[as_fraction(v) for v in row] for row in data])

    def __repr__(self):
        return f"LinearMap({self.n}x{self.n}, det={self.det})"


def scaled_permutation_parts(A: LinearMap):
    """Decompose A as Diag(c) P with positive c, or return None."""
    perm = []
    scalings = []
    for row in A.rows:
        nz = [j for j, v in enumerate(row) if v]
        if len(nz) != 1 or row[nz[0]] <= 0:
            return None
        perm.append(nz[0])
        scalings.append(row[nz[0]])
    if sorted(perm) != list(range(A.n)):
        return None
    return tuple(scalings), tuple(perm)


@dataclass(frozen=True)
class StabilizerResult:
    fixed: bool
    alpha: object = None  # Fraction on the exact tier, float otherwise

    def to_json_dict(self):
        return {
            "fixed": self.fixed,
            "alpha": str(self.alpha) if self.alpha is not None else None,
        }


def stabilizer_check(A, e) -> StabilizerResult:
    """Does A map the ray through e to itself (A e = alpha e, alpha > 0)?"""
    if isinstance(A, LinearMap):
        e = as_vector(e)
        ae = A.apply(e)
        pivot = next((i for i, v in enumerate(e) if v), None)
        if pivot is None:
            raise ValueError("direction must be nonzero")
        alpha = ae[pivot] / e[pivot]
        if alpha > 0 and all(av == alpha * ev for av, ev in zip(ae, e)):
            return StabilizerResult(True, alpha)
        return StabilizerResult(False, None)
    af = np.asarray(A, dtype=float)
    ef = np.asarray([float(v) for v in e])
    ae = af @ ef
    alpha = float(ef @ ae) / float(ef @ ef)
    resid = float(np.linalg.norm(ae - alpha * ef))
    scale = max(1.0, float(np.linalg.norm(af, ord=2))) * float(np.linalg.norm(ef))
    if alpha > 0 and resid <= STABILIZER_TOL * scale:
        return StabilizerResult(True, alpha)
    return StabilizerResult(False, None)


# ---------------------------------------------------------------------------
# Core automorphism check
# ---------------------------------------------------------------------------


def check_automorphism(
    cone,
    A,
    samples: int = 800,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> CheckReport:
    """Certify or refute A as an automorphism of the cone.

    Rational maps first get the exact route: kappa = p(e)/p(Ae) and a
    comparison of kappa * p(Ax) with p(x) in exact integers at every point
    of the simplex lattice, which is unisolvent for forms of degree d
    (see `poly.scaling_mismatch`).  Agreement everywhere plus an interior
    image of the direction is an unconditional certificate.  A mismatch
    at lattice point x refutes, with x as the witness, when the polynomial
    is flagged minimal; otherwise the verdict falls back to sampled
    membership preservation (also used directly for float maps).
    """
    if isinstance(A, LinearMap):
        if A.n != cone.nvars:
            raise ValueError("map dimension does not match the cone")
        if not A.invertible:
            raise ValueError("map must be invertible")
        ae = A.apply(cone.e)
        p_ae = cone.p.eval(ae)
        if p_ae <= 0:
            return CheckReport(
                verdict=Verdict.FAILS,
                witness=ae,
                tolerances={"tol": tol},
                details={
                    "reason": "image of the direction is not interior",
                    "p_at_Ae": str(p_ae),
                },
                tier="exact",
            )
        kappa = cone.pe / p_ae
        mismatch = scaling_mismatch(cone.p, A.rows, kappa)
        if mismatch is None:
            if in_interior_exact(cone, ae):
                details = {"conditional_on_minimality": False}
                if not cone.minimality_assumed:
                    details["note"] = (
                        "certificate is unconditional: scaling identity plus "
                        "interior direction image suffices"
                    )
                return CheckReport(
                    verdict=Verdict.HOLDS,
                    kappa=kappa,
                    tolerances={"tol": 0.0},
                    details=details,
                    tier="exact",
                )
            return CheckReport(
                verdict=Verdict.FAILS,
                witness=ae,
                kappa=kappa,
                tolerances={"tol": 0.0},
                details={"reason": "image of the direction is not interior"},
                tier="exact",
            )
        x, lhs, rhs = mismatch
        if cone.minimality_assumed:
            return CheckReport(
                verdict=Verdict.FAILS,
                witness=x,
                kappa=kappa,
                tolerances={"tol": 0.0},
                details={
                    "reason": "scaling identity fails",
                    "point": list(x),
                    "kappa_p_of_Ax": str(lhs),
                    "p_of_x": str(rhs),
                    "conditional_on_minimality": True,
                },
                tier="exact",
            )
        rep = _sampled_preservation(cone, A.to_float(), samples=samples, seed=seed, tol=tol)
        rep.regime_warnings.append(
            "polynomial not flagged minimal; coefficient mismatch alone cannot "
            "refute, verdict comes from sampled membership preservation"
        )
        return rep
    af = np.asarray(A, dtype=float)
    if af.shape != (cone.nvars, cone.nvars):
        raise ValueError("map dimension does not match the cone")
    if not np.isfinite(af).all() or abs(np.linalg.det(af)) < 1e-300:
        raise ValueError("map must be invertible")
    return _sampled_preservation(cone, af, samples=samples, seed=seed, tol=tol)


def _sampled_preservation(
    cone: HyperCone,
    a_float: np.ndarray,
    samples: int,
    seed: int,
    tol: float = MEMBERSHIP_TOL,
) -> CheckReport:
    """Float tier: does the map preserve sampled membership both ways?"""
    a_inv = np.linalg.inv(a_float)
    rng = np.random.default_rng(seed)
    pts = boundary_cloud(cone, rng, samples, WAVE_POINTS, WAVE_MARGINS)
    margin = max(10 * tol, DECISIVE_MARGIN)
    lam_x, res_x = cone.lambda_min(pts)
    checked = 0
    for label, mat in (("A", a_float), ("A_inv", a_inv)):
        images = pts @ mat.T
        lam_img, res_img = cone.lambda_min(images)
        ok = (res_x < spectrum.RESIDUAL_GATE) & (res_img < spectrum.RESIDUAL_GATE)
        decisive = ok & (np.abs(lam_x) >= margin) & (np.abs(lam_img) >= margin)
        checked += int(decisive.sum())
        flip = decisive & ((lam_x >= margin) != (lam_img >= margin))
        for idx in np.nonzero(flip)[0]:
            x = pts[idx]
            spec_x = spectrum.eigenvalues(cone, x)
            spec_img = spectrum.eigenvalues(cone, mat @ x)
            if (
                abs(spec_x.lambda_min) >= margin
                and abs(spec_img.lambda_min) >= margin
                and (spec_x.lambda_min > 0) != (spec_img.lambda_min > 0)
            ):
                return CheckReport(
                    verdict=Verdict.FAILS,
                    witness=tuple(float(v) for v in x),
                    samples=checked,
                    tolerances={"tol": tol, "margin": margin},
                    details={
                        "direction": label,
                        "lambda_min_x": spec_x.lambda_min,
                        "lambda_min_image": spec_img.lambda_min,
                    },
                    tier="float",
                )
    if checked == 0 or checked < len(pts) // 4:
        return CheckReport(
            verdict=Verdict.INCONCLUSIVE,
            samples=checked,
            tolerances={"tol": tol, "margin": margin},
            details={"reason": "too few decisive samples"},
            tier="float",
        )
    return CheckReport(
        verdict=Verdict.HOLDS,
        samples=checked,
        tolerances={"tol": tol, "margin": margin},
        details={"note": "sampled membership preserved in both directions"},
        tier="float",
    )


# ---------------------------------------------------------------------------
# Derivative relaxations: stabilizer equivalence
# ---------------------------------------------------------------------------


def check_deriv_automorphism(
    cone: HyperCone,
    k: int,
    A,
    samples: int = 800,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> CheckReport:
    """Automorphism check on the k-th relaxation plus the equivalence audit.

    In the two-sided regime (rank-one-generated cone with minimal
    polynomial, degree >= 4, 1 <= k <= d-3) the verdicts must satisfy
    (base automorphism AND direction fixed) <=> derived automorphism; a
    decisive mismatch raises the equivalence_violation flag.  Outside the
    regime only the forward implication is audited and a warning explains
    which hypothesis is missing.
    """
    if not 1 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 1..{cone.d - 1}")
    dc = cone.derivative_cone(k)
    base_rep = check_automorphism(cone, A, samples=samples, seed=seed, tol=tol)
    stab = stabilizer_check(A, cone.e)
    deriv_rep = check_automorphism(dc, A, samples=samples, seed=seed + 1, tol=tol)

    warnings = list(deriv_rep.regime_warnings)
    in_regime = (
        cone.rog_flag
        and cone.minimality_assumed
        and cone.d >= 4
        and cone.nvars >= 3
        and 1 <= k <= cone.d - 3
    )
    if not in_regime:
        if not (cone.rog_flag and cone.minimality_assumed):
            warnings.append(
                "cone not flagged rank-one-generated with minimal polynomial; "
                "two-sided stabilizer equivalence not asserted"
            )
        if not (cone.d >= 4 and 1 <= k <= cone.d - 3):
            warnings.append(
                f"order k={k} outside 1..{cone.d - 3}: only the forward "
                "implication (base automorphism fixing the direction implies "
                "derived automorphism) is asserted"
            )

    decisive = (
        base_rep.verdict is not Verdict.INCONCLUSIVE
        and deriv_rep.verdict is not Verdict.INCONCLUSIVE
    )
    expected = base_rep.holds and stab.fixed
    violation = False
    if decisive:
        if in_regime:
            violation = expected != deriv_rep.holds
        else:
            violation = expected and not deriv_rep.holds

    details = dict(deriv_rep.details)
    details.update(
        {
            "k": k,
            "base_verdict": base_rep.verdict.value,
            "base_tier": base_rep.tier,
            "stabilizer": stab.to_json_dict(),
            "equivalence_regime": in_regime,
            "equivalence_expected": expected,
            "equivalence_violation": violation,
        }
    )
    return CheckReport(
        verdict=deriv_rep.verdict,
        kappa=deriv_rep.kappa,
        witness=deriv_rep.witness,
        samples=deriv_rep.samples + base_rep.samples,
        tolerances=deriv_rep.tolerances,
        regime_warnings=warnings,
        details=details,
        tier=deriv_rep.tier,
    )


# ---------------------------------------------------------------------------
# Polarized mean inequality
# ---------------------------------------------------------------------------


def garding_check(
    cone: HyperCone, xs, tol: float = 1e-9
) -> CheckReport | list[CheckReport]:
    """Geometric-mean inequality for the polar form on interior tuples.

    Arguments are normalized to p(x) = 1, so the claim becomes
    P(xs) >= 1 with equality exactly for pairwise proportional tuples
    (the gallery cones are pointed, so proportionality has no lineality
    caveat).  The verdict also audits that |gap| <= tol happens iff the
    tuple is proportional within tolerance.  `xs` is one tuple of d
    points, which gets one `CheckReport`, or a (T, d, n) stack of tuples,
    which gets a list of T; one argument outside the interior anywhere in
    the stack raises ValueError.
    """
    p, d = cone.p, cone.d
    pts = np.asarray(xs, dtype=float)
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    if pts.ndim != 3 or pts.shape[1] != d:
        raise ValueError(f"need exactly {d} arguments per tuple, got shape {np.shape(xs)}")
    flat = pts.reshape(-1, pts.shape[2])
    # proportional tuples have maximally repeated roots, which inflate the
    # companion residual; interior needs lambda_min clear of that noise
    lam, res = cone.lambda_min(flat)
    if np.any(lam <= res + 1e-12):
        raise ValueError("all arguments must be strictly interior")
    values = p.eval_float(flat).reshape(len(pts), d)
    normalized = pts / values[:, :, None] ** (1.0 / d)
    polarized = polar_form_float(p, normalized)
    gaps = polarized - 1.0
    unit = pts / np.linalg.norm(pts, axis=2)[:, :, None]
    # largest coordinate gap over all pairs of unit arguments
    prop_dists = np.abs(unit[:, :, None, :] - unit[:, None, :, :]).max(axis=(1, 2, 3))
    reports = [
        _garding_report(x, float(gap), float(polar), float(dist), tol)
        for x, gap, polar, dist in zip(pts, gaps, polarized, prop_dists)
    ]
    return reports[0] if single else reports


def _garding_report(pts, gap, polarized, prop_dist, tol) -> CheckReport:
    proportional = prop_dist <= 1e-8
    details = {
        "gap": gap,
        "polar_value": polarized,
        "proportional": proportional,
        "proportionality_distance": prop_dist,
    }
    if gap < -tol:
        return CheckReport(
            verdict=Verdict.FAILS,
            witness=tuple(map(tuple, pts)),
            tolerances={"tol": tol},
            details={**details, "reason": "inequality violated"},
            tier="float",
        )
    equality = abs(gap) <= 10 * tol
    if equality != proportional:
        return CheckReport(
            verdict=Verdict.FAILS,
            witness=tuple(map(tuple, pts)),
            tolerances={"tol": tol},
            details={**details, "reason": "equality case inconsistent"},
            tier="float",
        )
    return CheckReport(
        verdict=Verdict.HOLDS, tolerances={"tol": tol}, details=details, tier="float"
    )


# ---------------------------------------------------------------------------
# Invariant eigenvectors and minimal faces
# ---------------------------------------------------------------------------


def perron_eigenvector(cone, A, seed: int = 0) -> CheckReport:
    """Find an eigenvector of A inside the cone at the spectral radius.

    Precondition, not checked here: A is a certified automorphism of the
    cone (`check_automorphism` Holds), so it keeps the cone invariant and
    such an eigenvector exists.  The check returns it (Holds) or reports
    Inconclusive on numerical eigenspace ambiguity; it never refutes.
    """
    af = A.to_float() if isinstance(A, LinearMap) else np.asarray(A, dtype=float)
    w, vecs = np.linalg.eig(af)
    rho = float(np.abs(w).max())
    order = np.argsort(-np.abs(w))
    for idx in order:
        if abs(w[idx]) < rho * (1 - 1e-9) - MEMBERSHIP_TOL:
            break
        if abs(w[idx].imag) > 1e-8 * max(rho, 1.0):
            continue
        v = vecs[:, idx].real
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            continue
        for s in (1.0, -1.0):
            u = s * v / nrm
            verdict = _candidate_membership(cone, u)
            if verdict is not None:
                return CheckReport(
                    verdict=Verdict.HOLDS,
                    witness=tuple(float(x) for x in u),
                    tolerances={"tol": MEMBERSHIP_TOL},
                    details={
                        "spectral_radius": rho,
                        "eigenvalue": float(w[idx].real),
                        "membership": verdict.value,
                    },
                    tier="float",
                )
    u = _cesaro_vector(cone, af, rho, seed)
    verdict = None if u is None else _candidate_membership(cone, u)
    if verdict is not None:
        return CheckReport(
            verdict=Verdict.HOLDS,
            witness=tuple(float(x) for x in u),
            tolerances={"tol": MEMBERSHIP_TOL},
            details={
                "spectral_radius": rho,
                "eigenvalue": rho,
                "membership": verdict.value,
                "method": "cesaro-average",
            },
            tier="float",
        )
    return CheckReport(
        verdict=Verdict.INCONCLUSIVE,
        tolerances={"tol": MEMBERSHIP_TOL},
        details={
            "spectral_radius": rho,
            "reason": "numerical eigenspace ambiguity",
        },
        tier="float",
    )


def _candidate_membership(cone, u) -> Membership | None:
    """`cones.contains` of a candidate eigenvector, or None when it is Out
    or its restriction does not look real-rooted (InconclusiveError)."""
    try:
        verdict = contains(cone, u)
    except InconclusiveError:
        return None
    return None if verdict is Membership.OUT else verdict


def _cesaro_vector(cone, af, rho, seed):
    if rho <= 0:
        return None
    rng = np.random.default_rng(seed)
    for attempt in range(3):
        if attempt == 0:
            z = cone.e_float.copy()
        else:
            y = rng.standard_normal((1, cone.nvars))
            z = to_level(cone, y, 0.5, cone.lambda_min(y)[0])[0]
        acc = np.zeros_like(z)
        cur = z / max(np.linalg.norm(z), 1e-300)
        for _ in range(CESARO_ITERATIONS):
            acc += cur
            cur = af @ cur / rho
            nrm = np.linalg.norm(cur)
            if not np.isfinite(nrm) or nrm > 1e12:
                break
        nrm = np.linalg.norm(acc)
        if np.isfinite(nrm) and nrm > 1e-9:
            u = acc / nrm
            if np.linalg.norm(af @ u - rho * u) <= 1e-6 * max(1.0, rho):
                return u
    return None


def min_face_fix_check(cone, A, z) -> CheckReport:
    """Does A fix the minimal face of its eigenvector z?

    Only gallery cones with explicit face descriptors are supported:
    coordinate support for the orthant, column space for the matrix cone.
    Besides comparing the descriptor of Az with that of z, the face's
    generators are pushed through A and must land inside the face.
    """
    kind = cone.gallery.kind if cone.gallery else None
    if kind not in ("Orthant", "PSD"):
        raise ValueError("unsupported gallery type for face descriptors")
    af = A.to_float() if isinstance(A, LinearMap) else np.asarray(A, dtype=float)
    zf = np.asarray([float(v) for v in z], dtype=float)
    az = af @ zf
    alpha = float(zf @ az) / float(zf @ zf)
    if np.linalg.norm(az - alpha * zf) > MEMBERSHIP_TOL * max(1.0, abs(alpha)) * np.linalg.norm(zf):
        raise ValueError("z is not an eigenvector of A")
    spec = spectrum.eigenvalues(cone, zf)
    if spec.lambda_min < -DECISIVE_MARGIN:
        raise ValueError("z does not lie in the cone")

    if kind == "Orthant":
        cutoff = 1e-6 * float(np.abs(zf).max())
        supp = np.abs(zf) > cutoff
        supp_img = np.abs(az) > cutoff * max(abs(alpha), 1e-12)
        descriptor_ok = bool(np.array_equal(supp, supp_img))
        face_ok = True
        for i in np.nonzero(supp)[0]:
            img = af[:, i]
            if np.any(np.abs(img[~supp]) > 1e-8 * max(np.linalg.norm(img), 1e-300)):
                face_ok = False
                break
        details = {
            "support": [int(i) for i in np.nonzero(supp)[0]],
            "descriptor_fixed": descriptor_ok,
            "face_image_inside": face_ok,
        }
    else:
        n = cone.gallery.params["n"]
        zm = smat_float(zf, n)
        am = smat_float(az, n)
        proj_z, basis = _range_projector(zm)
        proj_a, _ = _range_projector(am)
        descriptor_ok = bool(np.linalg.norm(proj_a - proj_z) <= 1e-6 * max(1.0, np.linalg.norm(proj_z)))
        face_ok = True
        eye = np.eye(n)
        for u in basis.T:
            gen = svec_float(np.outer(u, u))
            img = smat_float(af @ gen, n)
            off = img - proj_z @ img @ proj_z
            if np.linalg.norm(off) > 1e-6 * max(1.0, np.linalg.norm(img)):
                face_ok = False
                break
        details = {
            "range_dimension": int(basis.shape[1]),
            "descriptor_fixed": descriptor_ok,
            "face_image_inside": face_ok,
        }

    if descriptor_ok and face_ok:
        return CheckReport(
            verdict=Verdict.HOLDS,
            witness=tuple(float(v) for v in zf),
            tolerances={"tol": MEMBERSHIP_TOL},
            details=details,
            tier="float",
        )
    return CheckReport(
        verdict=Verdict.FAILS,
        witness=tuple(float(v) for v in zf),
        tolerances={"tol": MEMBERSHIP_TOL},
        details=details,
        tier="float",
    )


def _range_projector(mat: np.ndarray):
    vals, vecs = np.linalg.eigh(mat)
    cutoff = RANGE_REL_TOL * max(float(np.abs(vals).max()), 1e-300)
    keep = np.abs(vals) > cutoff
    basis = vecs[:, keep]
    return basis @ basis.T, basis


# ---------------------------------------------------------------------------
# Structured classifications
# ---------------------------------------------------------------------------


def membership_violation_witness(derived: HyperCone, maps, seed: int = 0):
    """Hunt for x in the relaxation whose image under some map leaves it.

    `maps` is a list of (label, float matrix, exact LinearMap or None).
    Up to WITNESS_BUDGET points are drawn.  The witness and its image are
    re-verified: exact derivative signs at the rational snap when an exact
    map is available, fresh spectra with two-sided margins of at least
    WITNESS_MARGIN always.
    """
    rng = np.random.default_rng(seed)
    need = WITNESS_MARGIN
    tried = 0
    batch = 256
    while tried < WITNESS_BUDGET:
        nb = min(batch, WITNESS_BUDGET - tried)
        tried += nb
        y = rng.standard_normal((nb, derived.nvars))
        lam, _ = derived.lambda_min(y)
        for m in (0.3, 0.03):
            x = to_level(derived, y, m, lam)
            lam_x, res_x = derived.lambda_min(x)
            for label, mf, mexact in maps:
                lam_img, res_img = derived.lambda_min(x @ mf.T)
                good = (
                    (lam_x >= need)
                    & (lam_img <= -need)
                    & (res_x < spectrum.RESIDUAL_GATE)
                    & (res_img < spectrum.RESIDUAL_GATE)
                )
                for idx in np.nonzero(good)[0]:
                    xe = as_vector(spectrum._dyadic(x[idx]))
                    if membership_exact(derived, xe) is not Membership.IN:
                        continue
                    spec_x = spectrum.eigenvalues(derived, xe)
                    if spec_x.lambda_min < need:
                        continue
                    if mexact is not None:
                        img_exact = mexact.apply(xe)
                        if membership_exact(derived, img_exact) is not Membership.OUT:
                            continue
                        spec_img = spectrum.eigenvalues(derived, img_exact)
                    else:
                        spec_img = spectrum.eigenvalues(derived, mf @ np.asarray([float(v) for v in xe]))
                    if spec_img.lambda_min > -need:
                        continue
                    return {
                        "witness": xe,
                        "direction": label,
                        "lambda_min_x": spec_x.lambda_min,
                        "lambda_min_image": spec_img.lambda_min,
                        "samples": tried,
                    }
    return None


def _check_classification_order(n: int, k: int) -> None:
    if n < 4:
        raise ValueError("classification needs n >= 4")
    if not 1 <= k <= n - 1:
        raise ValueError(f"relaxation order {k} outside 1..{n - 1}")


def _classify_relaxation(
    cone: HyperCone,
    k: int,
    A,
    prediction: bool,
    details: dict,
    seed: int,
) -> CheckReport:
    """Certify A on the k-th relaxation of `cone` and hold it to a prediction.

    The main theorem makes the automorphisms of the relaxation exactly
    those of `cone` fixing e, which a gallery cone turns into a closed form
    that `prediction` evaluates for A.  That form holds in the regime
    1 <= k <= d-3; there a decisive mismatch with the certified verdict
    raises the classification_violation flag, and outside it no
    prediction is made.  A map that fails, or is predicted to, also gets an
    independent membership-violation witness with two-sided margin.
    `details` are the caller's own keys, merged into the report's details.
    """
    warnings = []
    predicted = prediction if k <= cone.d - 3 else None
    if predicted is None:
        warnings.append(
            f"k={k} outside 1..{cone.d - 3}: no classification asserted in the "
            "quadratic or halfspace regime"
        )
    rep = check_deriv_automorphism(cone, k, A, seed=seed)
    details = {**rep.details, **details, "prediction": predicted}
    details["classification_violation"] = (
        predicted is not None
        and rep.verdict is not Verdict.INCONCLUSIVE
        and predicted != rep.holds
    )
    if rep.verdict is Verdict.FAILS or predicted is False:
        found = membership_violation_witness(
            cone.derivative_cone(k), _map_pair(A), seed=seed + 17
        )
        if found is None:
            details["membership_witness"] = None
            warnings.append("membership-violation witness search exhausted its budget")
        else:
            details["membership_witness"] = {
                "x": [str(v) for v in found["witness"]],
                "direction": found["direction"],
                "lambda_min_x": found["lambda_min_x"],
                "lambda_min_image": found["lambda_min_image"],
            }
    return CheckReport(
        verdict=rep.verdict,
        kappa=rep.kappa,
        witness=rep.witness,
        samples=rep.samples,
        tolerances=rep.tolerances,
        regime_warnings=warnings + rep.regime_warnings,
        details=details,
        tier=rep.tier,
    )


def classify_orthant_deriv(n: int, k: int, A: LinearMap, seed: int = 0) -> CheckReport:
    """Predict and confirm membership of A in the relaxed coordinate cone's
    automorphism group.

    In the regime n >= 4, 1 <= k <= n-3 the group is exactly the positive
    multiples of permutation matrices, so the prediction from A's normal
    form must match the certified verdict (see `_classify_relaxation`).
    """
    from .gallery import orthant

    _check_classification_order(n, k)
    parts = scaled_permutation_parts(A) if isinstance(A, LinearMap) else None
    normal_form = None
    if parts:
        normal_form = {"scalings": [str(c) for c in parts[0]], "permutation": list(parts[1])}
    return _classify_relaxation(
        orthant(n), k, A,
        prediction=parts is not None and len(set(parts[0])) == 1,
        details={"normal_form": normal_form},
        seed=seed,
    )


def _map_pair(A):
    if isinstance(A, LinearMap):
        return [
            ("A", A.to_float(), A),
            ("A_inv", A.inverse().to_float(), A.inverse()),
        ]
    af = np.asarray(A, dtype=float)
    return [("A", af, None), ("A_inv", np.linalg.inv(af), None)]


def lm_linear_map(M, n: int):
    """The action X -> M X M^T on svec coordinates.

    Returns a LinearMap when M is rational, else a float matrix.
    """
    from .gallery import smat, svec, svec_dim

    N = svec_dim(n)
    if isinstance(M, LinearMap) or (
        not isinstance(M, np.ndarray) and is_exact_vector([v for row in M for v in row])
    ):
        rows = M.rows if isinstance(M, LinearMap) else exactlin.as_matrix(M)
        cols = []
        for t in range(N):
            basis_vec = tuple(Fraction(1 if i == t else 0) for i in range(N))
            b = smat(basis_vec, n)
            image = exactlin.matmul(exactlin.matmul(rows, b), exactlin.transpose(rows))
            cols.append(svec(image))
        return LinearMap(tuple(zip(*cols)))
    mf = np.asarray(M, dtype=float)
    cols = []
    for t in range(N):
        basis_vec = np.zeros(N)
        basis_vec[t] = 1.0
        b = smat_float(basis_vec, n)
        cols.append(svec_float(mf @ b @ mf.T))
    return np.stack(cols, axis=1)


def classify_psd_deriv(n: int, k: int, M, seed: int = 0) -> CheckReport:
    """Predict and confirm the conjugation map of M on the relaxed matrix cone.

    The candidate is X -> M X M^T in svec coordinates.  In the regime
    n >= 4, 1 <= k <= n-3, it is an automorphism of the relaxation exactly
    when M^T M is a positive multiple of the identity, and predicted
    failures must be confirmed by a membership-violation witness (see
    `_classify_relaxation`).
    """
    from .gallery import psd

    if n > 4:
        raise ValueError("symbolic matrix-cone route is capped at n = 4")
    _check_classification_order(n, k)
    return _classify_relaxation(
        psd(n), k, lm_linear_map(M, n),
        prediction=_is_scaled_orthogonal(M),
        details={},
        seed=seed,
    )


def _is_scaled_orthogonal(M) -> bool:
    if isinstance(M, LinearMap):
        mtm = exactlin.matmul(exactlin.transpose(M.rows), M.rows)
        mu = mtm[0][0]
        if mu <= 0:
            return False
        n = len(mtm)
        for i in range(n):
            for j in range(n):
                if mtm[i][j] != (mu if i == j else 0):
                    return False
        return True
    mf = np.asarray(M, dtype=float)
    mtm = mf.T @ mf
    mu = float(np.trace(mtm)) / mtm.shape[0]
    if mu <= 0:
        return False
    return bool(
        np.linalg.norm(mtm - mu * np.eye(mtm.shape[0])) <= ORTHOGONALITY_TOL * max(mu, 1.0)
    )


# ---------------------------------------------------------------------------
# Exponential flows
# ---------------------------------------------------------------------------


def lie_probe(
    cone,
    k: int,
    L,
    t_grid,
    samples: int,
    seed: int,
) -> CheckReport:
    """Test a generator candidate: is exp(tL) an automorphism for each t?

    Purely float-tier (generators are generally irrational): sampled
    membership preservation in both directions at every grid point, with
    each refutation carrying the failing (t, x) after re-verification.
    Overflow in the exponential reports Inconclusive.
    """
    target = cone.derivative_cone(k)
    lf = np.asarray(L, dtype=float)
    if lf.shape != (target.nvars, target.nvars):
        raise ValueError("generator has wrong dimension")
    total = 0
    for i, t in enumerate(t_grid):
        with np.errstate(over="ignore", invalid="ignore"):
            flow = scipy.linalg.expm(float(t) * lf)
        if not np.isfinite(flow).all():
            return CheckReport(
                verdict=Verdict.INCONCLUSIVE,
                tolerances={"tol": MEMBERSHIP_TOL},
                details={"t": float(t), "reason": "exponential overflow"},
                tier="float",
            )
        rep = _sampled_preservation(target, flow, samples=samples, seed=seed + i)
        total += rep.samples
        if rep.verdict is Verdict.FAILS:
            return CheckReport(
                verdict=Verdict.FAILS,
                witness=(float(t),) + tuple(rep.witness),
                samples=total,
                tolerances=rep.tolerances,
                details={**rep.details, "t": float(t)},
                tier="float",
            )
        if rep.verdict is Verdict.INCONCLUSIVE:
            return CheckReport(
                verdict=Verdict.INCONCLUSIVE,
                samples=total,
                tolerances=rep.tolerances,
                details={**rep.details, "t": float(t)},
                tier="float",
            )
    return CheckReport(
        verdict=Verdict.HOLDS,
        samples=total,
        tolerances={"tol": MEMBERSHIP_TOL},
        details={"t_grid": [float(t) for t in t_grid]},
        tier="float",
    )
