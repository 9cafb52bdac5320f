"""Certify or refute linear maps as cone automorphisms, and classify them.

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
preservation with margins.  Since the eigenvalues of x - t e are those of
x minus t, lambda_min(x) >= m and <= -m are memberships of x -+ m e, which
the float tier decides by derivative signs (Renegar 2006), without roots.
Eigenvalues only place the sampled points and re-verify every refutation
and membership-violation witness before it is reported.  Maps are exact:
every check takes a `LinearMap` and raises TypeError on anything else, so
the classifiers' normal forms are exact too.  Float matrices reach only
the sampled tier, as the dyadic value of a map (`LinearMap.to_float`) and
as the flows of `lie_probe`, which no suite check or CLI command calls:
the suite probes a flow exp(tW) at its rational points `LinearMap.cayley`
of -uW, on the exact tier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np

from . import exactlin
from .cones import (
    MEMBERSHIP_TOL,
    WITNESS_BUDGET,
    HyperCone,
    _sign_flags,
    boundary_cloud,
    certified_separation,
    contains,
    membership_exact,
    to_interior,
    to_level,
)
from .gallery import smat_float, svec_float, svec_product
from .poly import (
    as_fraction,
    as_vector,
    clear_denominators,
    polar_form_float,
    scaling_mismatch,
)
from .report import CheckReport, InconclusiveError, Membership, Verdict

# |lambda_min| below this is treated as indecisive when sampling membership.
DECISIVE_MARGIN = 1e-4
# Two-sided lambda_min margin a membership-violation witness must clear.
WITNESS_MARGIN = 1e-6
# Sampled points whose copies at lambda_min = +-m, for each m in
# WAVE_MARGINS, join the float-tier cloud.
WAVE_POINTS = 256
WAVE_MARGINS = (0.5, 0.1, 0.01)
# Eigenvalues below this fraction of the largest span no face direction.
RANGE_REL_TOL = 1e-6


class LinearMap:
    """Square matrix with exact rational entries.

    `rows` is the tuple of Fraction rows.  Two views are cached on first
    use: the integer form, numerators over one common denominator, on
    which `apply`, `det` and `inverse` run in Python ints, and a float
    matrix for the sampled tier.
    """

    __slots__ = ("n", "rows", "_det", "_float", "_inv", "_int")

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
        self._int = None

    @classmethod
    def scaled_permutation(cls, scalings, perm) -> "LinearMap":
        scalings = as_vector(scalings)
        base = exactlin.permutation(perm)
        return cls(
            tuple(
                tuple(scalings[i] * v for v in row) for i, row in enumerate(base)
            )
        )

    @classmethod
    def cayley(cls, s) -> "LinearMap":
        """Q = (I - S)(I + S)^-1 for a rational S, I + S invertible (Cayley 1846).

        For skew S, I + S is always invertible, since S has only imaginary
        eigenvalues, and Q is orthogonal with det 1; rational orthogonal
        maps are dense in SO(n).  For S = -uW with |u| < 1 and W's
        eigenvalues in {-1, 0, 1}, Q = exp(tW) with t = 2 artanh(u), or
        t = 2 arctan(u) when W is skew: the rational points of the flow.
        A non-square S or a singular I + S raises ValueError.
        """
        s = exactlin.as_matrix(s)
        plus = cls([[(i == j) + v for j, v in enumerate(row)] for i, row in enumerate(s)])
        if not plus.invertible:
            raise ValueError("Cayley transform needs I + S invertible")
        minus = [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(s)]
        return cls(exactlin.matmul(minus, plus.inverse().rows))

    def _integer_form(self):
        """(nums, den) with rows == nums / den entrywise."""
        if self._int is None:
            den = lcm(*(v.denominator for row in self.rows for v in row))
            nums = [[v.numerator * (den // v.denominator) for v in row] for row in self.rows]
            self._int = (nums, den)
        return self._int

    @property
    def det(self) -> Fraction:
        if self._det is None:
            nums, den = self._integer_form()
            self._det = Fraction(exactlin.int_det(nums), den**self.n)
        return self._det

    @property
    def invertible(self) -> bool:
        return self.det != 0

    def inverse(self) -> "LinearMap":
        # (nums / den)^-1 = den * adj / d
        if self._inv is None:
            nums, den = self._integer_form()
            adj, d = exactlin.int_inverse(nums)
            self._inv = LinearMap([[Fraction(v * den, d) for v in row] for row in adj])
        return self._inv

    def apply(self, v):
        nums, den = self._integer_form()
        ints, scale = clear_denominators(v)
        if len(ints) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(
            Fraction(sum(a * b for a, b in zip(row, ints)), den * scale) for row in nums
        )

    def to_float(self) -> np.ndarray:
        if self._float is None:
            self._float = np.array([[float(v) for v in row] for row in self.rows])
        return self._float

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


def _require_exact(A, what: str) -> None:
    if not isinstance(A, LinearMap):
        raise TypeError(f"{what} takes an exact LinearMap")


@dataclass(frozen=True)
class StabilizerResult:
    """Whether A e = alpha e with alpha > 0, and the exact alpha if so."""

    fixed: bool
    alpha: Fraction | None = None

    def to_json_dict(self):
        return {
            "fixed": self.fixed,
            "alpha": str(self.alpha) if self.alpha is not None else None,
        }


def stabilizer_check(A: LinearMap, e) -> StabilizerResult:
    """Does A map the ray through e to itself (A e = alpha e, alpha > 0)?

    Decided exactly on the rational e; a map that is not a `LinearMap`
    raises TypeError.
    """
    _require_exact(A, "stabilizer check")
    e = as_vector(e)
    ae = A.apply(e)
    pivot = next((i for i, v in enumerate(e) if v), None)
    if pivot is None:
        raise ValueError("direction must be nonzero")
    alpha = ae[pivot] / e[pivot]
    if alpha > 0 and all(av == alpha * ev for av, ev in zip(ae, e)):
        return StabilizerResult(True, alpha)
    return StabilizerResult(False, None)


# ---------------------------------------------------------------------------
# Core automorphism check
# ---------------------------------------------------------------------------


def check_automorphism(
    cone,
    A: LinearMap,
    samples: int = 800,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> CheckReport:
    """Certify or refute A as an automorphism of the cone.

    The exact route comes first: kappa = p(e)/p(Ae) and a comparison of
    kappa * p(Ax) with p(x) in exact integers at every point of the
    simplex lattice, which is unisolvent for forms of degree d (see
    `poly.scaling_mismatch`).  Agreement everywhere plus an interior
    image of the direction is an unconditional certificate.  A mismatch
    at lattice point x refutes, with x as the witness, when the polynomial
    is flagged minimal; otherwise the verdict falls back to sampled
    membership preservation of the map's float value.  A map that is not
    a `LinearMap` raises TypeError: a float matrix has no exact tier.
    """
    _require_exact(A, "automorphism check")
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
        if membership_exact(cone, ae) is Membership.IN:
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


def _sampled_preservation(
    cone: HyperCone,
    a_float: np.ndarray,
    samples: int,
    seed: int,
    tol: float,
) -> CheckReport:
    """Float tier: does the map preserve sampled membership both ways?

    A `boundary_cloud` row and its image under A (or A^-1) are decisive
    when both clear the margin m = max(10 tol, DECISIVE_MARGIN) on one
    side, lambda_min >= m or <= -m.  `_margin_sides` decides that by
    derivative signs of x -+ m e, without roots; eigenvalues only place
    the cloud and re-verify a flip before it is reported.  Each direction
    needs a quarter of the cloud decisive, or the check is Inconclusive.
    Only `check_automorphism`'s fallback for a polynomial not flagged
    minimal and `lie_probe` reach it; no suite check does.
    """
    a_inv = np.linalg.inv(a_float)
    rng = np.random.default_rng(seed)
    pts = boundary_cloud(cone, rng, samples, WAVE_POINTS, WAVE_MARGINS)
    margin = max(10 * tol, DECISIVE_MARGIN)
    sides_x = _margin_sides(cone, pts, margin)
    checked = []
    for label, mat in (("A", a_float), ("A_inv", a_inv)):
        sides_img = _margin_sides(cone, pts @ mat.T, margin)
        decisive = (sides_x != 0) & (sides_img != 0)
        checked.append(int(decisive.sum()))
        flip = decisive & (sides_x != sides_img)
        for idx in np.nonzero(flip)[0]:
            x = pts[idx]
            lam_pt, lam_im = cone.lambda_min(np.array([x, mat @ x]))[0].tolist()
            if min(abs(lam_pt), abs(lam_im)) >= margin and (lam_pt > 0) != (lam_im > 0):
                return CheckReport(
                    verdict=Verdict.FAILS,
                    witness=tuple(float(v) for v in x),
                    samples=sum(checked),
                    tolerances={"tol": tol, "margin": margin},
                    details={
                        "direction": label,
                        "lambda_min_x": lam_pt,
                        "lambda_min_image": lam_im,
                    },
                    tier="float",
                )
    if min(checked) < max(1, len(pts) // 4):
        return CheckReport(
            verdict=Verdict.INCONCLUSIVE,
            samples=sum(checked),
            tolerances={"tol": tol, "margin": margin},
            details={"reason": "too few decisive samples"},
            tier="float",
        )
    return CheckReport(
        verdict=Verdict.HOLDS,
        samples=sum(checked),
        tolerances={"tol": tol, "margin": margin},
        details={"note": "sampled membership preserved in both directions"},
        tier="float",
    )


def _margin_sides(cone: HyperCone, pts: np.ndarray, m: float) -> np.ndarray:
    """Side of the band |lambda_min| < m of each row x of `pts`, root-free.

    The eigenvalues of x - t e are those of x minus t, so lambda_min(x) > m
    exactly when x - m e is interior, and lambda_min(x) < -m when x + m e
    is outside the cone.  Both are derivative-sign memberships (Renegar
    2006), one evaluation pass per order over the two shifted stacks.
    Returns an int8 array: +1 where x - m e is In, -1 where x + m e is
    Out, 0 elsewhere.
    """
    shift = m * cone.e_float
    out, boundary = _sign_flags(cone, np.vstack([pts - shift, pts + shift]), MEMBERSHIP_TOL)
    n = len(pts)
    return np.where(~(out[:n] | boundary[:n]), 1, np.where(out[n:], -1, 0)).astype(np.int8)


# ---------------------------------------------------------------------------
# Derivative relaxations: stabilizer equivalence
# ---------------------------------------------------------------------------


def check_deriv_automorphism(
    cone: HyperCone,
    k: int,
    A: LinearMap,
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
    which hypothesis is missing.  All three verdicts (base, stabilizer,
    relaxation) take the exact `LinearMap` A; anything else raises
    TypeError through `check_automorphism`.
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
    return replace(
        deriv_rep,
        samples=deriv_rep.samples + base_rep.samples,
        regime_warnings=warnings,
        details=details,
    )


# ---------------------------------------------------------------------------
# Polarized mean inequality
# ---------------------------------------------------------------------------


def garding_families(cone: HyperCone, rng, samples: int):
    """The random and the proportional family of Garding tuples, drawn
    from `rng` in that order, as two (T, d, n) stacks.

    The random family is `samples` tuples of d independent interior
    points.  The proportional family is max(samples // 10, 1) tuples, each
    drawn as one interior point and then its d multipliers uniform(0.5, 3).
    Every drawn point is moved to lambda_min = INTERIOR_MARGIN first.
    """
    d, n = cone.d, cone.nvars
    randoms = to_interior(cone, rng.standard_normal((samples * d, n))).reshape(-1, d, n)
    draws = [
        (rng.standard_normal((1, n)), rng.uniform(0.5, 3.0, size=d))
        for _ in range(max(samples // 10, 1))
    ]
    bases = to_interior(cone, np.concatenate([b for b, _ in draws]))
    scalars = np.array([s for _, s in draws])
    return randoms, scalars[:, :, None] * bases[:, None, :]


def garding_check(cone: HyperCone, xs, tol: float) -> list[CheckReport]:
    """Geometric-mean inequality for the polar form on a (T, d, n) stack
    of tuples of interior points, one `CheckReport` per tuple.

    Arguments are normalized to p(x) = 1, so the claim becomes
    P(xs) >= 1 with equality exactly for pairwise proportional tuples
    (the gallery cones are pointed, so proportionality has no lineality
    caveat).  The verdict also audits that |gap| <= tol happens iff the
    tuple is proportional within tolerance.  One argument outside the
    interior anywhere in the stack raises ValueError.
    """
    p, d = cone.p, cone.d
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != d:
        raise ValueError(f"need a (T, {d}, n) stack of {d}-tuples, got shape {np.shape(xs)}")
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
    return [
        _garding_report(x, float(gap), float(polar), float(dist), tol)
        for x, gap, polar, dist in zip(pts, gaps, polarized, prop_dists)
    ]


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


def perron_eigenvector(cone, A: LinearMap) -> CheckReport:
    """Find an eigenvector of A inside the cone at the spectral radius.

    Precondition, not checked here: A is a certified automorphism of the
    cone (`check_automorphism` Holds), so some eigenvector at the spectral
    radius lies in the cone (Vandergraft 1968).  The real ones that
    `np.linalg.eig` gives there are tried with both signs; with none in the
    cone the check reports Inconclusive, and it never refutes.
    """
    w, vecs = np.linalg.eig(A.to_float())
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
            try:
                [verdict] = contains(cone, u[None, :])
            except InconclusiveError:  # the restriction does not look real-rooted
                continue
            if verdict is not Membership.OUT:
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
    return CheckReport(
        verdict=Verdict.INCONCLUSIVE,
        tolerances={"tol": MEMBERSHIP_TOL},
        details={
            "spectral_radius": rho,
            "reason": "numerical eigenspace ambiguity",
        },
        tier="float",
    )


def min_face_fix_check(cone, A: LinearMap, z) -> CheckReport:
    """Does A fix the minimal face of its eigenvector z?

    Only gallery cones with explicit face descriptors are supported:
    coordinate support for the orthant, column space for the matrix cone.
    Besides comparing the descriptor of Az with that of z, the face's
    generators are pushed through A and must land inside the face.
    """
    kind = cone.gallery.kind if cone.gallery else None
    if kind not in ("Orthant", "PSD"):
        raise ValueError("unsupported gallery type for face descriptors")
    af = A.to_float()
    zf = np.asarray([float(v) for v in z], dtype=float)
    az = af @ zf
    alpha = float(zf @ az) / float(zf @ zf)
    if np.linalg.norm(az - alpha * zf) > MEMBERSHIP_TOL * max(1.0, abs(alpha)) * np.linalg.norm(zf):
        raise ValueError("z is not an eigenvector of A")
    if contains(cone, zf[None, :])[0] is Membership.OUT:
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


def membership_violation_witness(derived: HyperCone, A: LinearMap, seed: int):
    """Hunt for x in the relaxation whose image under A or A^-1 leaves it.

    Up to WITNESS_BUDGET points are drawn and placed by eigenvalues at
    lambda_min 0.3 and 0.03.  A candidate is a point and image on the two
    sides of the WITNESS_MARGIN band by `_margin_sides`, the derivative
    signs of x -+ m e.  Floats only propose: each candidate is certified
    by `certified_separation` at the exact dyadic value of the float row x
    the search chose, and at its image, the exact map applied to that
    value.
    """
    maps = (("A", A), ("A_inv", A.inverse()))
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
            inside = _margin_sides(derived, x, need) == 1
            for label, mapping in maps:
                good = inside & (_margin_sides(derived, x @ mapping.to_float().T, need) == -1)
                for idx in np.nonzero(good)[0]:
                    xe = as_vector(x[idx])
                    lams = certified_separation(derived, xe, derived, mapping.apply(xe), need)
                    if lams is not None:
                        return {
                            "witness": xe,
                            "direction": label,
                            "lambda_min_x": lams[0],
                            "lambda_min_image": lams[1],
                            "samples": tried,
                        }
    return None


def _check_classification_args(n: int, k: int, A) -> None:
    _require_exact(A, "classification")
    if n < 4:
        raise ValueError("classification needs n >= 4")
    if not 1 <= k <= n - 1:
        raise ValueError(f"relaxation order {k} outside 1..{n - 1}")


def _classify_relaxation(
    cone: HyperCone,
    k: int,
    A: LinearMap,
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
    rep = check_deriv_automorphism(cone, k, A, seed=seed)
    predicted = prediction if rep.details["equivalence_regime"] else None
    if predicted is None:
        warnings.append(
            f"k={k} outside 1..{cone.d - 3}: no classification asserted in the "
            "quadratic or halfspace regime"
        )
    details = {**rep.details, **details, "prediction": predicted}
    details["classification_violation"] = (
        predicted is not None
        and rep.verdict is not Verdict.INCONCLUSIVE
        and predicted != rep.holds
    )
    if rep.verdict is Verdict.FAILS or predicted is False:
        found = membership_violation_witness(cone.derivative_cone(k), A, seed=seed + 17)
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
    return replace(rep, regime_warnings=warnings + rep.regime_warnings, details=details)


def classify_orthant_deriv(n: int, k: int, A: LinearMap, seed: int) -> CheckReport:
    """Predict and confirm membership of A in the relaxed coordinate cone's
    automorphism group.

    In the regime n >= 4, 1 <= k <= n-3 the group is exactly the positive
    multiples of permutation matrices, so the prediction from A's normal
    form must match the certified verdict (see `_classify_relaxation`).
    A must be an exact `LinearMap`; anything else raises TypeError.
    """
    from .gallery import orthant

    _check_classification_args(n, k, A)
    parts = scaled_permutation_parts(A)
    normal_form = None
    if parts:
        normal_form = {"scalings": [str(c) for c in parts[0]], "permutation": list(parts[1])}
    return _classify_relaxation(
        orthant(n), k, A,
        prediction=parts is not None and len(set(parts[0])) == 1,
        details={"normal_form": normal_form},
        seed=seed,
    )


def lm_linear_map(M: LinearMap, n: int) -> LinearMap:
    """The action X -> M X M^T on svec coordinates: `svec_product(M, M)`.

    M = N / den is multiplied out in Python ints, and the image is the
    `LinearMap` svec_product(N, N) / den^2.  A map that is not a
    `LinearMap` raises TypeError.
    """
    _require_exact(M, "conjugation")
    if M.n != n:
        raise ValueError("conjugating matrix has wrong shape")
    nums, den = M._integer_form()
    m = np.array(nums, dtype=object)
    image = svec_product(m, m)
    return LinearMap([[Fraction(v, den * den) for v in row] for row in image.tolist()])


def classify_psd_deriv(n: int, k: int, M: LinearMap, seed: int) -> CheckReport:
    """Predict and confirm the conjugation map of M on the relaxed matrix cone.

    The candidate is X -> M X M^T in svec coordinates.  In the regime
    n >= 4, 1 <= k <= n-3, it is an automorphism of the relaxation exactly
    when M^T M is a positive multiple of the identity, and predicted
    failures must be confirmed by a membership-violation witness (see
    `_classify_relaxation`).  M must be an exact `LinearMap`, so the
    prediction is exact too; anything else raises TypeError.
    """
    from .gallery import psd

    if n > 4:
        raise ValueError("symbolic matrix-cone route is capped at n = 4")
    _check_classification_args(n, k, M)
    return _classify_relaxation(
        psd(n), k, lm_linear_map(M, n),
        prediction=_is_scaled_orthogonal(M),
        details={},
        seed=seed,
    )


def _is_scaled_orthogonal(M: LinearMap) -> bool:
    """Is M^T M exactly a positive multiple mu I?"""
    m = np.array(M.rows, dtype=object)
    mtm = m.T @ m
    mu = np.trace(mtm) / len(mtm)
    return mu > 0 and not (mtm - mu * np.eye(len(mtm), dtype=object)).any()


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

    Purely float-tier, for generators with no rational flow points:
    sampled membership preservation in both directions at every grid
    point, with each refutation carrying the failing (t, x) after
    re-verification.  Overflow in the exponential reports Inconclusive.
    No library code calls it (lyapunov-flows certifies the rational Cayley
    points of its flows instead); it stays because the benchmark's tracer
    names it.  scipy is imported here, its only use, so importing the
    package does not load it.
    """
    import scipy.linalg

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
        rep = _sampled_preservation(
            target, flow, samples=samples, seed=seed + i, tol=MEMBERSHIP_TOL
        )
        total += rep.samples
        if not rep.holds:
            witness = None if rep.witness is None else (float(t),) + tuple(rep.witness)
            return replace(rep, witness=witness, samples=total,
                           details={**rep.details, "t": float(t)})
    return CheckReport(
        verdict=Verdict.HOLDS,
        samples=total,
        tolerances={"tol": MEMBERSHIP_TOL},
        details={"t_grid": [float(t) for t in t_grid]},
        tier="float",
    )
