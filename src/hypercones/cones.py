"""Cones of real-rooted directions: membership, relaxations, nesting.

A `HyperCone` bundles a homogeneous polynomial with a distinguished
interior direction and caches the directional-derivative tower, since
every membership question reduces to signs of those derivatives or to
roots of the line restriction.  For a rational point both come from one
primitive integer polynomial, `restrict` (coefficient j of p(te - x) is
(-1)^(d-j) D_e^j p(x) / j!), so exact membership, rank and spectra clear
the point's denominators once.  The k-th derivative relaxation of a cone
is itself the cone of D_e^k p along the same e (Renegar 2006), so it is a
`HyperCone` too, built by `derivative_cone` on the root cone's tower.
Membership is three-valued (In / Out / Boundary-ambiguous): every property
suite downstream quantifies only over points with a tolerance margin,
which is what keeps the checks deterministic instead of flaky.

Float points or exact rationals: a float point is a row of a 2-D stack and
takes a batched float route (`contains`, `lambda_min`), and a rational
point takes an exact route (`membership_exact`).  The one exception is
`contains_by_inequalities`, which also decides one point, float or
rational, on its own; a float point runs in Python floats with the bits
of its stack row, by each form's term table compiled once to Python.  A
witness lies on a ray e + t v from e (`ray_witness`): floats propose t
between the exit times of two cones, and `certified_separation` decides
the rational point at that t.
"""

from __future__ import annotations

from math import factorial, isfinite, sqrt

import numpy as np

from . import spectrum
from .poly import (
    HomoPoly,
    as_fraction,
    as_vector,
    is_exact_vector,
    is_real_rooted,
    restrict_line,
)
from .report import CheckReport, InconclusiveError, Membership, Verdict

# Boundary band of the membership routes.
MEMBERSHIP_TOL = 1e-8
# lambda_min of the points placed by `to_interior`.
INTERIOR_MARGIN = 0.25


class HyperCone:
    """A cone of points whose restriction roots along e are all nonnegative.

    `minimality_assumed` and `rog_flag` are documented metadata, not
    verified claims; the automorphism machinery states explicitly which of
    its verdicts are conditional on them.  `base` is the root cone and `k`
    the relaxation order: a cone built here has `base = self` and `k = 0`,
    and `derivative_cone(k)` returns the relaxation with `derivs =
    base.derivs[k:]`.
    """

    def __init__(
        self,
        p: HomoPoly,
        e,
        label: str = "",
        minimality_assumed: bool = False,
        rog_flag: bool = False,
        gallery=None,
    ):
        e = as_vector(e)
        if len(e) != p.nvars:
            raise ValueError("direction has wrong dimension")
        if p.degree < 1:
            raise ValueError("need a polynomial of degree at least 1")
        pe = p.eval(e)
        if pe <= 0:
            raise ValueError("p(e) must be positive")
        self.p = p
        self.e = e
        self.d = p.degree
        self.pe = pe
        self.label = label or "cone"
        self.minimality_assumed = minimality_assumed
        self.rog_flag = rog_flag
        self.gallery = gallery
        self.base = self
        self.k = 0
        self._derivs = None
        self._deriv_scales = None
        self._point_route = None
        self._deriv_cones = {}
        # read-only: gallery cones are memoised and shared by every caller
        self._e_float = np.array([float(v) for v in e])
        self._e_float.flags.writeable = False

    def __getstate__(self):
        # the point route holds compiled `exec`-defined functions, which
        # pickle cannot name: it is built again on first use
        return {**self.__dict__, "_point_route": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._e_float.flags.writeable = False

    # -- cached derivative tower -------------------------------------------------

    @property
    def derivs(self):
        if self._derivs is None:
            from .poly import derivatives_along

            self._derivs = derivatives_along(self.p, self.e)
        return self._derivs

    @property
    def deriv_scales(self) -> tuple[float, ...]:
        """Float max|coefficient| of each tower entry."""
        if self._deriv_scales is None:
            self._deriv_scales = tuple(float(q.max_abs_coeff()) for q in self.derivs)
        return self._deriv_scales

    @property
    def point_route(self) -> tuple:
        """(compiled D_e^i p, its scale, index d - i - 1 of its norm power), i < d."""
        if self._point_route is None:
            self._point_route = tuple((q._eval_float_point, s, self.d - i - 1) for i, (q, s)
                                      in enumerate(zip(self.derivs[: self.d], self.deriv_scales)))
        return self._point_route

    @property
    def nvars(self) -> int:
        return self.p.nvars

    @property
    def e_float(self) -> np.ndarray:
        return self._e_float

    def restrict(self, x) -> tuple[int, ...]:
        """Exact restriction q(t) = p(t e - x) of a rational point, as the
        primitive ascending integer tuple of `restrict_line`: a positive
        multiple of q with d + 1 entries, since p(e) > 0."""
        return restrict_line(self.derivs, x)

    def restriction_coeffs_float(self, points: np.ndarray) -> np.ndarray:
        """(npts, d+1) ascending coefficient rows of the restriction.

        Coefficient j of p(t e - x) is (-1)^(d-j) (D_e^j p)(x) / j!.
        """
        pts = np.asarray(points, dtype=float)
        cols = []
        for j, dj in enumerate(self.derivs):
            sign = -1.0 if (self.d - j) % 2 else 1.0
            cols.append(sign / factorial(j) * dj.eval_float(pts))
        return np.stack(cols, axis=1)

    def lambda_min(self, points: np.ndarray):
        """Batched smallest eigenvalue; returns (lambda_min, residuals)."""
        eigs, residuals = spectrum.batch_eigenvalues(self, points)
        return eigs[:, -1], residuals

    def derivative_cone(self, k: int) -> "HyperCone":
        """The k-th relaxation: the cone of D_e^k p along the same e.

        Every relaxation hangs off its root cone `base` at order `k` and
        shares the root's derivative tower.  Order 0 is the cone itself,
        and a relaxation of a relaxation is the root's relaxation of the
        summed order, so each order is built once per root cone.
        """
        if self.base is not self:
            return self.base.derivative_cone(self.k + k)
        if not 0 <= k <= self.d - 1:
            raise ValueError(f"relaxation order {k} outside 0..{self.d - 1}")
        if k == 0:
            return self
        if k not in self._deriv_cones:
            dc = HyperCone(
                self.derivs[k],
                self.e,
                label=f"{self.label}^({k})",
                minimality_assumed=_derived_minimality(self, k),
                rog_flag=False,
                gallery=self.gallery,
            )
            dc.base, dc.k = self, k
            dc._derivs = self.derivs[k:]
            self._deriv_cones[k] = dc
        return self._deriv_cones[k]

    def __repr__(self):
        return f"HyperCone({self.label}, degree {self.d}, {self.nvars} vars)"


def _derived_minimality(base: HyperCone, k: int) -> bool:
    # The derivative polynomial of a rank-one-generated cone stays minimal
    # through order d-2; at order d-1 any degree-1 generator of a halfspace
    # is trivially minimal.
    if k == base.d - 1:
        return True
    return base.rog_flag and base.minimality_assumed


def cone_view(cone) -> HyperCone:
    """Identity: every cone, relaxations included, is a `HyperCone`.

    Kept for external callers of the former wrapper-unwrapping helper;
    nothing in this package calls it.
    """
    return cone


def to_level(cone, pts: np.ndarray, level, lam: np.ndarray) -> np.ndarray:
    """Each row of `pts`, whose lambda_min is `lam`, shifted along e to
    lambda_min `level`: the eigenvalues of x - t e are those of x minus t."""
    return pts - (lam - level)[:, None] * cone.e_float[None, :]


def to_interior(cone, pts: np.ndarray) -> np.ndarray:
    """Each row moved to lambda_min = INTERIOR_MARGIN."""
    return to_level(cone, pts, INTERIOR_MARGIN, cone.lambda_min(pts)[0])


def boundary_cloud(cone, rng, count: int, waves: int, margins) -> np.ndarray:
    """`count` Gaussian points, then for each margin m two copies of the
    first `waves` of them, placed at lambda_min = m and at -m."""
    y = rng.standard_normal((count, cone.nvars))
    base = y[:waves]
    lam, _ = cone.lambda_min(base)
    return np.vstack(
        [y] + [to_level(cone, base, sign * m, lam) for m in margins for sign in (1.0, -1.0)]
    )


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the bits of np.linalg.norm(row);
    ValueError names the first row with a non-finite coordinate or norm."""
    norms = np.sqrt((pts[:, None, :] @ pts[:, :, None]).ravel())
    if len(bad := np.flatnonzero(~np.isfinite(norms))):
        raise ValueError(f"row {bad[0]} has a non-finite coordinate or norm")
    return norms


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def contains(cone, points) -> list[Membership]:
    """Eigenvalue-route membership of each row of a 2-D float stack, with a
    band of MEMBERSHIP_TOL at the boundary, from one batched spectrum.

    The root residual widens the band: a repeated boundary root smears the
    companion eigenvalues, so decisions require a margin beyond both the
    tolerance and the residual.  A row whose restriction looks
    non-real-rooted raises InconclusiveError for the whole stack.
    Rational points take `membership_exact`.  A row with a non-finite
    coordinate or norm raises ValueError.
    """
    if (pts := np.asarray(points, dtype=float)).ndim == 2:
        row_norms(pts)
    eigs, residuals = spectrum.batch_eigenvalues(cone, pts)
    over = np.flatnonzero(residuals > 0.05 * (1.0 + np.abs(eigs[:, 0])))
    if len(over):
        row = int(over[0])
        raise InconclusiveError(
            f"restriction roots of row {row} have residual {residuals[row]}; "
            "not real-rooted within tolerance"
        )
    band = MEMBERSHIP_TOL + residuals
    return [
        Membership.IN if lmin > b else Membership.OUT if lmin < -b else Membership.BOUNDARY
        for lmin, b in zip(eigs[:, -1].tolist(), band.tolist())
    ]


def membership_exact(cone, x) -> Membership:
    """Exact membership of a rational point via derivative signs.

    IN means interior (all derivative values strictly positive), OUT means
    outside the closed cone, BOUNDARY means on the boundary exactly.  The
    signs are read off the one integer restriction r = `cone.restrict(x)`:
    sign(D_e^j p(x)) = (-1)^(d-j) sign(r_j) for j < d.  Renegar's sign
    rule agrees with the definition (every root of r real and
    nonnegative) exactly when r is real-rooted, by Descartes' rule of
    signs, so a restriction that is not real-rooted raises
    InconclusiveError, as `spectrum.eigenvalues` does there.
    """
    if not is_exact_vector(x):
        raise TypeError("membership_exact needs a rational point")
    d = cone.d
    r = cone.restrict(x)
    if not is_real_rooted(r):
        raise InconclusiveError(spectrum.NOT_REAL_ROOTED)
    # positive multiples of D_e^j p(x), j < d
    values = [c if (d - j) % 2 == 0 else -c for j, c in enumerate(r[:d])]
    if any(v < 0 for v in values):
        return Membership.OUT
    return Membership.BOUNDARY if 0 in values else Membership.IN


def contains_by_inequalities(
    cone, k: int, x, tol: float = MEMBERSHIP_TOL
) -> Membership | list[Membership]:
    """Membership in the k-th relaxation of `cone` via derivative signs.

    Orders compose: for a relaxation of order j the target is the root
    cone's relaxation of order j + k.  For a rational point the verdict is
    exact closed-cone membership: In when every derivative value is
    nonnegative (boundary included), Out otherwise.  For float points each
    value D^i q(x) of the target polynomial q of degree d is compared
    against a documented normalization scale_i = max|coefficient|(D^i q) *
    ||x||^(d-i): a point is Out at the first order below -tol * scale_i,
    and otherwise Boundary-ambiguous if any value sat inside the band.

    `x` is a 2-D float array, which gets a list with one `Membership` per
    row, each derivative evaluated once over the whole array, or one point,
    float or rational, which gets one `Membership`.  This one-point form is
    the only exception to the stacks-or-exact rule: the `perfbench`
    float tier decides float points one at a time, CLI `member` rational
    ones.  A float point runs in Python floats: its derivative values and
    bands have the bits of its row in a stack, since each form's float
    term table is compiled once, same terms in the same order and every
    power by one rule.  A non-finite coordinate or norm raises ValueError.

    Only the rational route checks that the point's restriction is
    real-rooted (`membership_exact`); the float sign routes stay
    unchecked, since a stack cannot pay one Sturm count per row, so on a
    cone whose polynomial is not hyperbolic at the point they may say In.
    """
    if not 0 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 0..{cone.d - 1}")
    target = cone.derivative_cone(k)
    if np.ndim(x) == 1 and is_exact_vector(x):
        verdict = membership_exact(target, x)
        return Membership.IN if verdict is Membership.BOUNDARY else verdict
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return _point_verdict(target, pts, tol)
    out, boundary = _sign_flags(target, pts, tol)
    return [
        Membership.OUT if o else Membership.BOUNDARY if b else Membership.IN
        for o, b in zip(out.tolist(), boundary.tolist())
    ]


def _norm_powers(norm, d: int) -> list:
    """[norm, norm^2, ..., norm^d], a float or an array alike, by the power
    rule of `HomoPoly`'s float evaluators: one multiplication per step."""
    powers = [norm]
    for _ in range(d - 1):
        powers.append(powers[-1] * norm)
    return powers


def _sign_flags(target, pts: np.ndarray, tol: float):
    """The float derivative-sign route of `contains_by_inequalities` on the
    rows of a 2-D array, as boolean arrays `(out, boundary)`: a row is Out
    where `out`, else Boundary-ambiguous where `boundary`, else In."""
    d = target.d
    powers = _norm_powers(np.maximum(row_norms(pts), 1e-300), d)
    out = np.zeros(len(pts), dtype=bool)
    boundary = np.zeros(len(pts), dtype=bool)
    for i, (q, coeff) in enumerate(zip(target.derivs[:d], target.deriv_scales)):
        if out.all():
            break
        band = tol * (coeff * powers[d - i - 1])
        v = q.eval_float(pts)
        out |= v < -band
        boundary |= v <= band
    return out, boundary


def _point_verdict(target, x: np.ndarray, tol: float) -> Membership:
    """`_sign_flags` for one 1-D float point, in Python floats: a norm with
    the bits of its `row_norms` row, the same bands and values bit for bit
    (`target.point_route`), and the same rule, returning at the first Out."""
    if len(x) != target.nvars:
        raise ValueError(f"need a point of {target.nvars} coordinates, got {len(x)}")
    norm = sqrt(x @ x)
    if not isfinite(norm):
        raise ValueError(f"point {x.tolist()} has a non-finite coordinate or norm")
    powers = _norm_powers(max(norm, 1e-300), target.d)
    xs = x.tolist()
    boundary = False
    for f, coeff, m in target.point_route:
        band = tol * (coeff * powers[m])
        v = f(xs)
        if v < -band:
            return Membership.OUT
        boundary = boundary or v <= band
    return Membership.BOUNDARY if boundary else Membership.IN


# ---------------------------------------------------------------------------
# Strict nesting witnesses
# ---------------------------------------------------------------------------


def certified_separation(cone_in, x, cone_out, y, margin):
    """Certify that the rational point x lies inside `cone_in` and the
    rational point y outside `cone_out`, both with margin.

    Decided by the two certified spectra alone.  Each lambda_min is the
    least float >= the true one, so lambda_min(x) > 0 puts x in the
    interior of `cone_in` and lambda_min(y) < 0 puts y outside the closed
    `cone_out`; they must also give lambda_min(x) >= margin and
    lambda_min(y) <= -margin.  A restriction that is not real-rooted
    raises InconclusiveError, as in `membership_exact`.  Returns the two
    certified lambda_min values, or None when either fails.
    """
    lam_x = spectrum.eigenvalues(cone_in, x).lambda_min
    if not (lam_x > 0 and lam_x >= margin):
        return None
    lam_y = spectrum.eigenvalues(cone_out, y).lambda_min
    if not (lam_y < 0 and lam_y <= -margin):
        return None
    return lam_x, lam_y


def ray_witness(source: HyperCone, target: HyperCone, A, margin):
    """A certified point on a ray from e that one cone holds and the other
    does not, across the exact map A (None for the identity), or None.

    On x(t) = e + t v the eigenvalues along e are 1 + t lambda_i(v), so
    x(t) leaves `source` at t = -1/lambda_min(v).  For Ae interior, Ae is a
    hyperbolic direction of the same cone (Garding 1959), so y(t) = A x(t)
    leaves `target` at -1/mu_min, mu the roots in s of p(s Ae - Av).  A t
    between the two exits puts x(t) inside `source` and y(t) outside
    `target` (direction "A"), or y(t) inside `target` and x(t) = A^-1 y(t)
    outside `source` ("A_inv").  The rays are the n^2 directions -e_i and
    e_i - e_j, in order of the float gap between the exits; t is the exact
    value of the float midpoint, or of twice the one finite exit.  Floats
    only propose: `certified_separation` decides at `margin`.  Returns
    the inside point "x", its "image", "lambda_min_x", "lambda_min_image",
    "direction", "ray" and "t".
    """
    n = source.nvars
    rays = [tuple(-int(j == i) for j in range(n)) for i in range(n)]
    rays += [tuple(int(j == i) - int(j == m) for j in range(n))
             for i in range(n) for m in range(n) if m != i]
    vs = np.array(rays, dtype=float)
    ae, ws = source.e, vs
    if A is not None:
        ae = A.apply(source.e)
        if membership_exact(target, ae) is not Membership.IN:
            return None
        ws = vs @ A.to_float().T
    lam = source.lambda_min(vs)[0]
    # p(s Ae - Av) at s = 0..d, interpolated to its ascending coefficients
    s = np.arange(target.d + 1.0)
    a = np.array([float(v) for v in ae])
    values = target.p.eval_float((s[:, None, None] * a - ws[None]).reshape(-1, n))
    coeffs = np.linalg.solve(np.vander(s, increasing=True), values.reshape(len(s), -1)).T
    mu = spectrum._float_roots(coeffs)[0][:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_x = np.where(lam < 0, -1.0 / lam, np.inf)
        tau_y = np.where(mu < 0, -1.0 / mu, np.inf)
        gaps = np.nan_to_num(np.abs(tau_x - tau_y), nan=0.0)
    for i in np.argsort(-gaps, kind="stable"):
        if not gaps[i] > 0:
            break
        tx, ty = float(tau_x[i]), float(tau_y[i])
        t = (tx + ty) / 2 if max(tx, ty) < np.inf else 2 * min(tx, ty)
        if t == np.inf:
            continue
        t = as_fraction(t)
        x = tuple(ei + t * vi for ei, vi in zip(source.e, rays[i]))
        y = x if A is None else A.apply(x)
        if tx > ty:
            inside, image, direction = x, y, "A"
            lams = certified_separation(source, x, target, y, margin)
        else:
            inside, image, direction = y, x, "A_inv"
            lams = certified_separation(target, y, source, x, margin)
        if lams is not None:
            return {"x": inside, "image": image, "lambda_min_x": lams[0],
                    "lambda_min_image": lams[1], "direction": direction,
                    "ray": rays[i], "t": t}
    return None


def strict_containment_witness(cone: HyperCone, k: int) -> CheckReport:
    """A point in relaxation k and outside relaxation k-1, on a ray from e.

    Each ray leaves relaxation k - 1 first, so `ray_witness` certifies a t
    between the two exits, with two-sided eigenvalue margins of at least
    10 * MEMBERSHIP_TOL.  No witness on the n^2 rays is float-tier
    Inconclusive, never a refutation.
    """
    if not 1 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 1..{cone.d - 1}")
    if not (cone.rog_flag and cone.minimality_assumed):
        raise ValueError(
            "strict-nesting search expects a rank-one-generated cone with "
            "an assumed-minimal polynomial"
        )
    margin = 10 * MEMBERSHIP_TOL
    tolerances = {"tol": MEMBERSHIP_TOL, "margin": margin}
    found = ray_witness(cone.derivative_cone(k - 1), cone.derivative_cone(k), None, margin)
    if found is None:
        reason = f"no witness certifies on the {cone.nvars ** 2} rays -e_i and e_i - e_j from e"
        return CheckReport(verdict=Verdict.INCONCLUSIVE, tolerances=tolerances,
                           details={"k": k, "reason": reason}, tier="float")
    details = {"k": k, "lambda_min_outer": found["lambda_min_x"],
               "lambda_min_inner": found["lambda_min_image"], "ray": found["ray"], "t": found["t"]}
    return CheckReport(verdict=Verdict.HOLDS, witness=found["x"], tolerances=tolerances,
                       details=details, tier="exact")
