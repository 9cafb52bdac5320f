"""Certify or refute linear maps as cone automorphisms, and classify them.

Every verdict on a map is exact, or Inconclusive.  Maps are exact: every
check takes a `LinearMap` and raises TypeError on anything else, so the
classifiers' normal forms are exact too.  The scaling constant
kappa = p(e)/p(Ae) is computed exactly and the identity
kappa * (p o A) = p is checked by exact evaluation on the simplex lattice
{x in Z>=0^n : |x| = d}.  That lattice is unisolvent for forms of degree
d, so agreement at every point proves the identity without expanding
p o A; together with the image of the direction being interior it is a
proof of automorphism (no minimality needed for that direction).  The
first point where the sides differ is a witness anyone can re-check with
two evaluations.  It refutes only when the polynomial is flagged minimal,
a fact only `gallery` states (its cones and their relaxations).
Otherwise only a membership violation refutes: a point on a ray from e
that A or A^-1 moves out of the cone, proposed by floats and certified by
exact derivative signs and certified spectra (`cones.ray_witness`).
Without one the verdict is Inconclusive.  The classifiers confirm every
refutation with such a witness too.  `lie_probe` certifies a flow exp(tW)
at its rational points, the Cayley transforms of -uW.
`perron_face` reads the minimal face of a monomial map's Perron vector off
its cycles and certifies on its columns that the map fixes it, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import exactlin
from .cones import HyperCone, membership_exact, ray_witness, to_interior
from .gallery import _svec_pairs, svec_product
from .poly import (
    as_fraction,
    as_vector,
    clear_denominators,
    polar_form_float,
    scaling_mismatch,
)
from .report import CheckReport, Membership, Verdict

# Two-sided lambda_min margin a membership-violation witness must clear.
WITNESS_MARGIN = 1e-6


class LinearMap:
    """Square matrix with exact rational entries.

    A map is built from its Fraction rows, or by `from_integer_form` from
    numerators over one common denominator.  Each form is computed from
    the other on first use and cached, and so are the determinant, the
    inverse and a float matrix for the float routes.  `apply`, `det` and
    `inverse` run on the integer form in Python ints, so a map built from
    integers never builds its Fraction `rows` unless something reads them.
    """

    __slots__ = ("n", "_rows", "_det", "_float", "_inv", "_int")

    def __init__(self, rows):
        rows = exactlin.as_matrix(rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("linear map must be square")
        self.n = n
        self._rows = rows
        self._det = None
        self._float = None
        self._inv = None
        self._int = None

    @classmethod
    def from_integer_form(cls, nums, den: int, det) -> "LinearMap":
        """The map nums / den for a square list of integer rows and a
        nonzero integer den, whose determinant `det` the caller knows.
        The form is reduced to the one `integer_form` reads off the rows:
        den > 0 and no factor common to den and every entry."""
        if any(len(r) != len(nums) for r in nums):
            raise ValueError("linear map must be square")
        g = gcd(den, *(v for row in nums for v in row))
        if den < 0:
            g = -g
        out = cls.__new__(cls)
        out.n = len(nums)
        out._rows = None
        out._det = det
        out._float = None
        out._inv = None
        out._int = ([[v // g for v in row] for row in nums], den // g)
        return out

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a tuple of Fraction rows."""
        if self._rows is None:
            nums, den = self._int
            self._rows = tuple(tuple(Fraction(v, den) for v in row) for row in nums)
        return self._rows

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

    def integer_form(self):
        """(nums, den) with rows == nums / den entrywise, den the least
        common denominator."""
        if self._int is None:
            den = lcm(*(v.denominator for row in self._rows for v in row))
            nums = [[v.numerator * (den // v.denominator) for v in row] for row in self._rows]
            self._int = (nums, den)
        return self._int

    @property
    def det(self) -> Fraction:
        if self._det is None:
            nums, den = self.integer_form()
            self._det = Fraction(exactlin.int_det(nums), den**self.n)
        return self._det

    @property
    def invertible(self) -> bool:
        return self.det != 0

    def inverse(self) -> "LinearMap":
        # (nums / den)^-1 = den * adj / d
        if self._inv is None:
            nums, den = self.integer_form()
            adj, d = exactlin.int_inverse(nums)
            self._inv = LinearMap.from_integer_form([[v * den for v in row] for row in adj],
                                                    d, 1 / self.det)
        return self._inv

    def apply(self, v):
        nums, den = self.integer_form()
        ints, scale = clear_denominators(v)
        if len(ints) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(
            Fraction(sum(a * b for a, b in zip(row, ints)), den * scale) for row in nums
        )

    def to_float(self) -> np.ndarray:
        if self._float is None:
            nums, den = self.integer_form()
            self._float = np.array([[v / den for v in row] for row in nums])
        return self._float

    @classmethod
    def from_json_rows(cls, data) -> "LinearMap":
        return cls([[as_fraction(v) for v in row] for row in data])

    def __repr__(self):
        return f"LinearMap({self.n}x{self.n}, det={self.det})"


def scaled_permutation_parts(A: LinearMap):
    """Decompose a monomial A as Diag(c) P, row i's one nonzero c_i in
    column perm[i], as (c, perm); None when A is not monomial."""
    perm = []
    scalings = []
    for row in A.rows:
        nz = [j for j, v in enumerate(row) if v]
        if len(nz) != 1:
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
    """Whether A e = alpha e with alpha > 0, the exact alpha if so, and
    the image A e that was judged."""

    fixed: bool
    image: tuple[Fraction, ...]
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
        return StabilizerResult(True, ae, alpha)
    return StabilizerResult(False, ae, None)


# ---------------------------------------------------------------------------
# Core automorphism check
# ---------------------------------------------------------------------------


def check_automorphism(cone, A: LinearMap) -> CheckReport:
    """Certify or refute A as an automorphism of the cone, exactly.

    The exact route comes first: kappa = p(e)/p(Ae) and a comparison of
    kappa * p(Ax) with p(x) in exact integers at every point of the
    simplex lattice, which is unisolvent for forms of degree d (see
    `poly.scaling_mismatch`, which reads A's cached integer form).
    Agreement everywhere plus an interior image of the direction is an
    unconditional certificate.  A mismatch at lattice point x refutes,
    with x as the witness, when the polynomial is flagged minimal: a
    gallery form of cited minimal degree (see `gallery`).  Otherwise a
    mismatch alone cannot refute, and the map fails only on a certified
    membership violation: Ae not interior, or a point on a ray from e
    that A or A^-1 moves out of the cone (`cones.ray_witness`).
    Without one the verdict is Inconclusive.  A map that is not a
    `LinearMap` raises TypeError: a float matrix has no exact tier.
    """
    _require_map_on(cone, A)
    return _automorphism_report(cone, A, A.apply(cone.e))


def _require_map_on(cone, A) -> None:
    """Raise TypeError unless A is exact, ValueError unless it is an
    invertible map of the cone's space."""
    _require_exact(A, "automorphism check")
    if A.n != cone.nvars:
        raise ValueError("map dimension does not match the cone")
    if not A.invertible:
        raise ValueError("map must be invertible")


def _automorphism_report(cone, A: LinearMap, ae) -> CheckReport:
    """`check_automorphism` given the image ae = A e of the direction."""
    p_ae = cone.p.eval(ae)
    if p_ae <= 0:
        return CheckReport(
            verdict=Verdict.FAILS,
            witness=ae,
            details={
                "reason": "image of the direction is not interior",
                "p_at_Ae": str(p_ae),
            },
            tier="exact",
        )
    kappa = cone.pe / p_ae
    mismatch = scaling_mismatch(cone.p, A, kappa)
    if mismatch is not None and cone.minimality_assumed:
        x, lhs, rhs = mismatch
        return CheckReport(
            verdict=Verdict.FAILS,
            witness=x,
            kappa=kappa,
            details={
                "reason": "scaling identity fails",
                "point": list(x),
                "kappa_p_of_Ax": str(lhs),
                "p_of_x": str(rhs),
            },
            tier="exact",
        )
    if membership_exact(cone, ae) is not Membership.IN:
        return CheckReport(
            verdict=Verdict.FAILS,
            witness=ae,
            kappa=kappa,
            details={"reason": "image of the direction is not interior"},
            tier="exact",
        )
    if mismatch is None:
        return CheckReport(verdict=Verdict.HOLDS, kappa=kappa, tier="exact")
    found = ray_witness(cone, cone, A, WITNESS_MARGIN)
    tolerances = {"margin": WITNESS_MARGIN}
    if found is None:
        reason = (
            "not a gallery polynomial of cited minimal degree, so the scaling mismatch "
            f"cannot refute, and no membership violation certifies on the {cone.nvars ** 2} "
            "rays -e_i and e_i - e_j from e"
        )
        return CheckReport(verdict=Verdict.INCONCLUSIVE, kappa=kappa, tolerances=tolerances,
                           details={"reason": reason}, tier="float")
    details = {**found, "reason": "membership violation on a ray from e"}
    return CheckReport(verdict=Verdict.FAILS, witness=found["x"], kappa=kappa,
                       tolerances=tolerances, details=details, tier="exact")


# ---------------------------------------------------------------------------
# Derivative relaxations: stabilizer equivalence
# ---------------------------------------------------------------------------


def check_deriv_automorphism(cone: HyperCone, k: int, A: LinearMap) -> CheckReport:
    """Automorphism check on the k-th relaxation plus the equivalence audit.

    In the two-sided regime (rank-one-generated cone with minimal
    polynomial, degree >= 4, 1 <= k <= d-3) the verdicts must satisfy
    (base automorphism AND direction fixed) <=> derived automorphism; a
    decisive mismatch raises the equivalence_violation flag.  Outside the
    regime only the forward implication is audited and a warning explains
    which hypothesis is missing.  All three verdicts (base, stabilizer,
    relaxation) take the exact `LinearMap` A and read one image A e;
    anything else raises TypeError, as in `check_automorphism`.
    """
    if not 1 <= k <= cone.d - 1:
        raise ValueError(f"relaxation order {k} outside 1..{cone.d - 1}")
    dc = cone.derivative_cone(k)
    _require_map_on(cone, A)
    stab = stabilizer_check(A, cone.e)
    # the relaxation shares the direction e, so all three read one image
    base_rep = _automorphism_report(cone, A, stab.image)
    deriv_rep = _automorphism_report(dc, A, stab.image)

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
    return replace(deriv_rep, regime_warnings=warnings, details=details)


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
# Perron faces of monomial maps
# ---------------------------------------------------------------------------


def perron_face(cone, A: LinearMap) -> CheckReport:
    """Does the monomial A fix the minimal face of its Perron vector?  Exact.

    A map keeping a cone fixes the minimal face of an eigenvector in it at
    its spectral radius rho (Vandergraft 1968).  A cycle c of a monomial A
    (one nonzero entry per row and column), of length L_c and entry product
    pi_c, has the L_c-th roots of pi_c as eigenvalues, so cycles are ranked
    exactly by rho_c^L = |pi_c|^(L/L_c), L the lcm of the lengths.  For the
    dominant cycle with pi_c > 0 holding the smallest coordinate i0 (on psd,
    a cycle on the diagonal svec coordinates), sum_j rho^-j A^j e_i0, j < L_c,
    is such an eigenvector and a positive combination of cone points: its
    face is the cycle's support on the orthant, and on psd the matrices with
    range in the span of the cycle's unit vectors.  Holds when each face
    coordinate's column lands in the face, else Fails with the first
    (column, image coordinate) that leaves.  A must keep the cone
    (`check_automorphism` Holds); a non-monomial map, another cone, or no
    dominant cycle of positive product raises ValueError.
    """
    kind = cone.gallery.kind if cone.gallery else None
    if kind not in ("Orthant", "PSD"):
        raise ValueError("exact Perron faces need an orthant or psd gallery cone")
    parts = scaled_permutation_parts(A)
    if parts is None or A.n != cone.nvars:
        raise ValueError("exact Perron faces need a monomial map of the cone's dimension")
    scalings, perm = parts
    cycles = []
    for i in range(A.n):
        if all(i not in c for c, _ in cycles):
            cycle = [i]
            while perm[cycle[-1]] != i:
                cycle.append(perm[cycle[-1]])
            cycles.append((cycle, prod(scalings[j] for j in cycle)))
    common = lcm(*(len(c) for c, _ in cycles))
    powers = [abs(pi) ** (common // len(c)) for c, pi in cycles]
    top = max(powers)
    n = cone.gallery.params["n"] if kind == "PSD" else A.n
    chosen = next((c for (c, pi), power in zip(cycles, powers)
                   if pi > 0 and max(c) < n and power == top), None)
    if chosen is None:
        raise ValueError("no dominant cycle of positive product through a unit of the cone")
    rows, cols = _svec_pairs(n) if kind == "PSD" else (range(n), range(n))
    face = [t for t in range(A.n) if rows[t] in chosen and cols[t] in chosen]
    image = {j: i for i, j in enumerate(perm)}
    leaving = next(((j, image[j]) for j in face if image[j] not in face), None)
    return CheckReport(
        verdict=Verdict.HOLDS if leaving is None else Verdict.FAILS,
        witness=leaving,
        details={
            "cycles": [[c, pi, power] for (c, pi), power in zip(cycles, powers)],
            "lcm": common,
            "cycle": chosen,
            "support" if kind == "Orthant" else "range": sorted(chosen),
            "face": face,
        },
    )


# ---------------------------------------------------------------------------
# Structured classifications
# ---------------------------------------------------------------------------


def membership_violation_witness(derived: HyperCone, A: LinearMap):
    """A point x of the relaxation whose image under A or A^-1 leaves it,
    certified with two-sided margin WITNESS_MARGIN on a ray from e by
    `cones.ray_witness`, whose result it returns; None when no ray gives
    one."""
    return ray_witness(derived, derived, A, WITNESS_MARGIN)


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
    rep = check_deriv_automorphism(cone, k, A)
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
        found = membership_violation_witness(cone.derivative_cone(k), A)
        details["membership_witness"] = found
        if found is None:
            warnings.append("no certified membership-violation witness on the rays from e")
    return replace(rep, regime_warnings=warnings + rep.regime_warnings, details=details)


def classify_orthant_deriv(n: int, k: int, A: LinearMap) -> CheckReport:
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
    if parts and min(parts[0]) < 0:
        parts = None
    normal_form = parts and {"scalings": [str(c) for c in parts[0]], "permutation": list(parts[1])}
    return _classify_relaxation(
        orthant(n), k, A,
        prediction=parts is not None and len(set(parts[0])) == 1,
        details={"normal_form": normal_form},
    )


def lm_linear_map(M: LinearMap, n: int) -> LinearMap:
    """The action X -> M X M^T on svec coordinates: `svec_product(M, M)`.

    M = N / den is multiplied out in Python ints, and the image is the
    `LinearMap` svec_product(N, N) / den^2, built from that integer form
    with no Fraction entry.  Its determinant is det(M)^(n+1), the
    determinant of a congruence on the symmetric n x n matrices.  A map
    that is not a `LinearMap` raises TypeError.
    """
    _require_exact(M, "conjugation")
    if M.n != n:
        raise ValueError("conjugating matrix has wrong shape")
    nums, den = M.integer_form()
    m = np.array(nums, dtype=object)
    image = svec_product(m, m).tolist()
    return LinearMap.from_integer_form(image, den * den, M.det ** (n + 1))


def classify_psd_deriv(n: int, k: int, M: LinearMap) -> CheckReport:
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


# The parameters u of the Cayley points `lie_probe` checks on each flow.
FLOW_PARAMS = (Fraction(-1, 2), Fraction(-1, 20), Fraction(1, 20), Fraction(1, 2))


def lie_probe(cone, k: int, W: LinearMap) -> CheckReport:
    """Is the flow exp(tW) an automorphism of the k-th relaxation?  Exact.

    W is an exact generator with W^3 = W or W^3 = -W, whose eigenvalues
    are then in {-1, 0, 1} or {-i, 0, i}, so that the Cayley points
    Q_u = `LinearMap.cayley(-u W)` are the flow at t = 2 artanh(u), or
    2 arctan(u).  On a psd gallery cone W acts by congruence X -> Q X Q^T
    (`lm_linear_map`), on any other cone on the coordinates.  Q_u goes
    through `check_automorphism` on the relaxation for each u in
    FLOW_PARAMS until one is not an exact Holds; that deciding report
    comes back with u added to its details.  Any other W raises
    ValueError, and a W that is not a `LinearMap` TypeError.
    """
    _require_exact(W, "flow probe")
    w = np.array(W.rows, dtype=object)
    cube = w @ w @ w
    if not ((cube == w).all() or (cube == -w).all()):
        raise ValueError("Cayley points lie on the flow only when W^3 = W or W^3 = -W")
    target = cone.derivative_cone(k)
    psd_n = cone.gallery.params["n"] if cone.gallery and cone.gallery.kind == "PSD" else None
    for u in FLOW_PARAMS:
        q = LinearMap.cayley([[-u * v for v in row] for row in W.rows])
        rep = check_automorphism(target, q if psd_n is None else lm_linear_map(q, psd_n))
        if rep.tier != "exact" or not rep.holds:
            break
    return replace(rep, details={**rep.details, "u": str(u)})
