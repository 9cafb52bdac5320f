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
rational, on its own.  A witness search proposes a float point and
certifies that float's exact dyadic value (`certified_separation`).
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import spectrum
from .poly import (
    HomoPoly,
    as_vector,
    is_exact_vector,
    restrict_line,
)
from .report import CheckReport, InconclusiveError, Membership, Verdict

# Boundary band of the membership routes, and the default `tol` of the
# sampled automorphism checks in autgroup.
MEMBERSHIP_TOL = 1e-8
# Points drawn by the witness searches before they report Inconclusive.
WITNESS_BUDGET = 4096
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
        self._deriv_cones = {}
        # read-only: gallery cones are memoised and shared by every caller
        self._e_float = np.array([float(v) for v in e])
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
    def nvars(self) -> int:
        return self.p.nvars

    @property
    def e_float(self) -> np.ndarray:
        return self._e_float

    def restrict(self, x) -> tuple[int, ...]:
        """Exact restriction q(t) = p(t e - x) of a rational point, as the
        primitive ascending integer tuple of `restrict_line`: a positive
        multiple of q with d + 1 entries, since p(e) > 0."""
        return restrict_line(self.p, self.e, x, derivs=self.derivs)

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
    """Euclidean norm of each row, with the bits of np.linalg.norm(row)."""
    return np.sqrt((pts[:, None, :] @ pts[:, :, None]).ravel())


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
    Rational points take `membership_exact`.
    """
    eigs, residuals = spectrum.batch_eigenvalues(cone, points)
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
    sign(D_e^j p(x)) = (-1)^(d-j) sign(r_j) for j < d.
    """
    if not is_exact_vector(x):
        raise TypeError("membership_exact needs a rational point")
    d = cone.d
    # positive multiples of D_e^j p(x), j < d
    values = [c if (d - j) % 2 == 0 else -c for j, c in enumerate(cone.restrict(x)[:d])]
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
    float tier decides float points one at a time, CLI `member` rational ones.
    """
    if not 0 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 0..{cone.d - 1}")
    target = cone.derivative_cone(k)
    if np.ndim(x) == 1 and is_exact_vector(x):
        verdict = membership_exact(target, x)
        return Membership.IN if verdict is Membership.BOUNDARY else verdict
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    out, boundary = _sign_flags(target, pts[None, :] if single else pts, tol)
    verdicts = [
        Membership.OUT if o else Membership.BOUNDARY if b else Membership.IN
        for o, b in zip(out.tolist(), boundary.tolist())
    ]
    return verdicts[0] if single else verdicts


def _sign_flags(target, pts: np.ndarray, tol: float):
    """The float derivative-sign route of `contains_by_inequalities` on the
    rows of a 2-D array, as boolean arrays `(out, boundary)`: a row is Out
    where `out`, else Boundary-ambiguous where `boundary`, else In."""
    norms = np.maximum(row_norms(pts), 1e-300)
    out = np.zeros(len(pts), dtype=bool)
    boundary = np.zeros(len(pts), dtype=bool)
    for i, (q, coeff) in enumerate(zip(target.derivs[: target.d], target.deriv_scales)):
        if out.all():
            break
        band = tol * (coeff * norms ** (target.d - i))
        v = q.eval_float(pts)
        out |= v < -band
        boundary |= v <= band
    return out, boundary


# ---------------------------------------------------------------------------
# Strict nesting witnesses
# ---------------------------------------------------------------------------


def certified_separation(cone_in, x, cone_out, y, margin):
    """Certify that the rational point x lies inside `cone_in` and the
    rational point y outside `cone_out`, both with margin.

    Exact derivative signs must put x in the interior of `cone_in` and y
    outside the closed `cone_out`, and certified spectra must give
    lambda_min(x) >= margin and lambda_min(y) <= -margin.  Returns the two
    certified lambda_min values, or None when any step fails.
    """
    if membership_exact(cone_in, x) is not Membership.IN:
        return None
    if membership_exact(cone_out, y) is not Membership.OUT:
        return None
    lam_x = spectrum.eigenvalues(cone_in, x).lambda_min
    lam_y = spectrum.eigenvalues(cone_out, y).lambda_min
    if lam_x < margin or lam_y > -margin:
        return None
    return lam_x, lam_y


def strict_containment_witness(cone: HyperCone, k: int, seed: int = 0) -> CheckReport:
    """Search for a point separating relaxation k from relaxation k-1.

    The witness x lies in the k-th relaxation and outside the (k-1)-th,
    with two-sided eigenvalue margins of at least 10 * MEMBERSHIP_TOL.
    Floats only propose: a candidate row is certified at the exact dyadic
    value of the float the search chose, by `certified_separation`.
    Failure to find one among WITNESS_BUDGET sampled points is reported as
    float-tier Inconclusive, never as a refutation.
    """
    if not 1 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 1..{cone.d - 1}")
    if not (cone.rog_flag and cone.minimality_assumed):
        raise ValueError(
            "strict-nesting search expects a rank-one-generated cone with "
            "an assumed-minimal polynomial"
        )
    inner = cone.derivative_cone(k - 1)
    outer = cone.derivative_cone(k)
    rng = np.random.default_rng(seed)
    tol = MEMBERSHIP_TOL
    margin_req = 10 * tol
    tried = 0
    batch = 256
    while tried < WITNESS_BUDGET:
        n = min(batch, WITNESS_BUDGET - tried)
        tried += n
        y = rng.standard_normal((n, cone.nvars))
        lam_in, res_in = inner.lambda_min(y)
        lam_out, res_out = outer.lambda_min(y)
        ok = (res_in < spectrum.RESIDUAL_GATE) & (res_out < spectrum.RESIDUAL_GATE)
        gap = np.where(ok, lam_out - lam_in, -np.inf)
        order = np.argsort(gap)[::-1]
        for idx in order[:8]:
            if gap[idx] < max(40 * tol, 1e-4):
                break
            mid = (lam_in[[idx]] + lam_out[[idx]]) / 2.0
            x = as_vector(to_level(cone, y[[idx]], 0.0, mid)[0])
            lams = certified_separation(outer, x, inner, x, margin_req)
            if lams is not None:
                return CheckReport(
                    verdict=Verdict.HOLDS,
                    witness=x,
                    samples=tried,
                    tolerances={"tol": tol, "margin": margin_req},
                    details={"k": k, "lambda_min_outer": lams[0], "lambda_min_inner": lams[1]},
                    tier="exact",
                )
    return CheckReport(
        verdict=Verdict.INCONCLUSIVE,
        samples=tried,
        tolerances={"tol": tol, "margin": margin_req},
        details={"k": k, "reason": "budget exhausted without a certified witness"},
        tier="float",
    )
