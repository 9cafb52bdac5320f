"""Automorphism certificates, classifications, flows, invariant faces."""

import dataclasses
import sys
from fractions import Fraction as F
from math import factorial, prod

import numpy as np
import pytest

from hypercones import autgroup, cones, exactlin, gallery, spectrum, suite
from hypercones.autgroup import LinearMap
from hypercones.cones import HyperCone, membership_exact
from hypercones.poly import HomoPoly, polar_form_float
from hypercones.report import Membership, Verdict


def exact_value(p, x):
    """p(x) in Fractions, term by term: independent of the library's
    integer evaluation."""
    return sum(
        (c * prod(F(v) ** a for v, a in zip(x, exp)) for exp, c in p.terms.items()),
        F(0),
    )


def compose_oracle(cone, A):
    """(verdict, kappa) of the exact tier, decided by expanding p o A."""
    ae = A.apply(cone.e)
    p_ae = cone.p.eval(ae)
    if p_ae <= 0:
        return Verdict.FAILS, None
    kappa = cone.pe / p_ae
    holds = kappa * cone.p.compose(A.rows) == cone.p and membership_exact(cone, ae) is Membership.IN
    return (Verdict.HOLDS if holds else Verdict.FAILS), kappa


def cayley_orthogonal(rng, n):
    """Rational orthogonal Q = (I - S)(I + S)^-1 for a random skew S."""
    s = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = F(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
            s[j][i] = -s[i][j]
    return LinearMap.cayley(s)


def dense_integer_map(rng, n):
    while True:
        entries = rng.choice([-3, -2, -1, 1, 2, 3], size=(n, n))
        m = LinearMap([[int(v) for v in row] for row in entries])
        if m.invertible:
            return m


def weighted_product_cone():
    return HyperCone(
        HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1),
        label="weighted", minimality_assumed=True,
    )


class TestLinearMap:
    def test_det_and_inverse(self):
        m = LinearMap([[2, 1, 0], [0, 1, 0], [0, 0, 3]])
        assert m.det == 6
        assert exactlin.matmul(m.rows, m.inverse().rows) == exactlin.identity(3)

    def test_scaled_permutation_parts_roundtrip(self):
        m = LinearMap.scaled_permutation([F(1, 2), 3, 5], [2, 0, 1])
        parts = autgroup.scaled_permutation_parts(m)
        assert parts == ((F(1, 2), F(3), F(5)), (2, 0, 1))

    def test_parts_reject_general_maps(self):
        assert autgroup.scaled_permutation_parts(LinearMap([[1, 1], [0, 1]])) is None
        assert autgroup.scaled_permutation_parts(LinearMap([[-1, 0], [0, 1]])) is None

    def test_json_rows_roundtrip(self):
        m = LinearMap([[F(1, 3), 0], [2, F(-5, 7)]])
        again = LinearMap.from_json_rows([[str(v) for v in row] for row in m.rows])
        assert again.rows == m.rows

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cayley_is_exactly_orthogonal_with_det_one(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            q = cayley_orthogonal(rng, n)
            assert all(type(v) is F for row in q.rows for v in row)
            assert exactlin.matmul(exactlin.transpose(q.rows), q.rows) == exactlin.identity(n)
            assert q.det == 1

    @pytest.mark.parametrize("s, message", [
        ([[0, 1], [1, 0]], "invertible"),  # I + S = [[1, 1], [1, 1]]
        ([[1, 0], [0, -1]], "invertible"),  # I + S = diag(2, 0)
        ([[0, 1, 0], [-1, 0, 0]], "square"),
    ])
    def test_cayley_rejects_singular_or_non_square(self, s, message):
        with pytest.raises(ValueError, match=message):
            LinearMap.cayley(s)

    @pytest.mark.parametrize("u", [F(-1, 2), F(-1, 20), F(1, 20), F(1, 2), F(3, 7)])
    def test_cayley_of_traceless_diagonal_flow_is_exact(self, u):
        w = exactlin.diag([1, -1, 0, 0])
        q = LinearMap.cayley([[-u * v for v in row] for row in w])
        assert q.rows == exactlin.diag([(1 + u) / (1 - u), (1 - u) / (1 + u), 1, 1])

    @pytest.mark.parametrize("w, angle", [
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], np.arctanh),  # E01 + E10
        ([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], np.arctan),  # skew
    ])
    def test_cayley_lies_on_the_exponential_flow(self, w, angle):
        # Cayley(-u W) = exp(t W) with t = 2 artanh(u), or 2 arctan(u) for skew W
        import scipy.linalg

        for u in (F(-1, 2), F(-1, 20), F(1, 20), F(1, 2)):
            q = LinearMap.cayley([[-u * v for v in row] for row in w])
            flow = scipy.linalg.expm(2 * angle(float(u)) * np.array(w, dtype=float))
            assert np.allclose(q.to_float(), flow, rtol=0, atol=1e-12)


# A float matrix has no exact tier: every map argument is a LinearMap.
FLOAT_MAP_CALLS = {
    "check_automorphism": lambda a: autgroup.check_automorphism(gallery.orthant(4), a),
    "check_deriv_automorphism": lambda a: autgroup.check_deriv_automorphism(
        gallery.orthant(4), 1, a),
    "stabilizer_check": lambda a: autgroup.stabilizer_check(a, (1, 1, 1, 1)),
    "lm_linear_map": lambda a: autgroup.lm_linear_map(a, 4),
}


@pytest.mark.parametrize("name", FLOAT_MAP_CALLS)
def test_float_map_rejected(name):
    with pytest.raises(TypeError, match="LinearMap"):
        FLOAT_MAP_CALLS[name](np.eye(4))


class TestStabilizer:
    def test_scaling_fixes_everything(self):
        res = autgroup.stabilizer_check(LinearMap(exactlin.diag([5, 5, 5])), (1, 2, 3))
        assert res.fixed and res.alpha == 5

    def test_permutation_fixes_ones(self):
        res = autgroup.stabilizer_check(LinearMap(exactlin.permutation([1, 2, 0])), (1, 1, 1))
        assert res.fixed and res.alpha == 1

    def test_unequal_diagonal_does_not(self):
        assert not autgroup.stabilizer_check(
            LinearMap(exactlin.diag([1, 2, 1])), (1, 1, 1)
        ).fixed

    def test_cayley_conjugation_fixes_identity_exactly(self):
        lq = autgroup.lm_linear_map(cayley_orthogonal(np.random.default_rng(0), 3), 3)
        res = autgroup.stabilizer_check(lq, gallery.svec(exactlin.identity(3)))
        assert res.fixed and res.alpha == 1 and type(res.alpha) is F


class TestCheckAutomorphism:
    def test_orthant_scaled_permutation(self):
        rep = autgroup.check_automorphism(
            gallery.orthant(3), LinearMap.scaled_permutation([1, 2, 3], [1, 2, 0])
        )
        assert rep.holds and rep.kappa == F(1, 6) and rep.tier == "exact"

    def test_weighted_product_swap_refuted(self):
        rep = autgroup.check_automorphism(
            weighted_product_cone(), LinearMap(exactlin.permutation([1, 0, 2]))
        )
        assert rep.fails
        assert rep.details["conditional_on_minimality"]

    def test_psd_signed_permutation_conjugation(self):
        q = LinearMap([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
        rep = autgroup.check_automorphism(
            gallery.psd(3), autgroup.lm_linear_map(q, 3)
        )
        assert rep.holds and rep.kappa == 1

    def test_conjugation_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="wrong shape"):
            autgroup.lm_linear_map(LinearMap(exactlin.identity(3)), 4)

    def test_direction_image_outside_refuted(self):
        rep = autgroup.check_automorphism(
            gallery.orthant(3), LinearMap(exactlin.diag([-1, 1, 1]))
        )
        assert rep.fails

    def test_noninvertible_rejected(self):
        with pytest.raises(ValueError):
            autgroup.check_automorphism(
                gallery.orthant(3), LinearMap([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
            )

    def test_group_closure_products_and_inverses(self):
        cone = gallery.orthant(4)
        rng = np.random.default_rng(1)
        certified = []
        for _ in range(10):
            scalings = [F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
                        for _ in range(4)]
            perm = [int(v) for v in rng.permutation(4)]
            cand = LinearMap.scaled_permutation(scalings, perm)
            assert autgroup.check_automorphism(cone, cand).holds
            certified.append(cand)
        for _ in range(50):
            a, b = rng.integers(0, len(certified), size=2)
            prod = LinearMap(exactlin.matmul(certified[a].rows, certified[b].rows))
            assert autgroup.check_automorphism(cone, prod).holds
            assert autgroup.check_automorphism(cone, certified[a].inverse()).holds

    def test_float_orthogonal_on_psd(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rep = autgroup._sampled_preservation(
            gallery.psd(3), gallery.svec_product(q, q), samples=600, seed=3,
            tol=cones.MEMBERSHIP_TOL,
        )
        assert rep.holds and rep.tier == "float"

    def test_float_non_automorphism_refuted_with_witness(self):
        rep = autgroup._sampled_preservation(
            gallery.orthant(3),
            np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            samples=600,
            seed=4,
            tol=cones.MEMBERSHIP_TOL,
        )
        assert rep.fails
        assert rep.witness is not None

    def test_no_samples_is_inconclusive(self):
        # diag(2,1,1) does not preserve this quadratic cone; with nothing
        # sampled the float tier has no evidence either way
        rep = autgroup.check_automorphism(
            gallery.l1_cone().derivative_cone(1), LinearMap(exactlin.diag([2, 1, 1])),
            samples=0,
        )
        assert rep.verdict == Verdict.INCONCLUSIVE
        assert rep.samples == 0

    def test_one_sided_evidence_is_inconclusive(self):
        # A shrinks the whole cloud into the margin band, so no row and
        # image is decisive under A; A^-1 alone must not carry a Holds
        rep = autgroup._sampled_preservation(
            gallery.orthant(3), 1e-9 * np.eye(3), samples=600, seed=0,
            tol=cones.MEMBERSHIP_TOL,
        )
        assert rep.verdict == Verdict.INCONCLUSIVE
        assert rep.samples > 0

    def test_float_tier_places_by_eigenvalues_once(self, monkeypatch):
        # decisions are derivative signs; the one batched spectrum of a
        # float check that Holds is the `boundary_cloud` placement
        calls = []
        batch = spectrum.batch_eigenvalues

        def counted(cone, points):
            calls.append(len(points))
            return batch(cone, points)

        monkeypatch.setattr(spectrum, "batch_eigenvalues", counted)
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rep = autgroup._sampled_preservation(
            gallery.psd(3), gallery.svec_product(q, q), samples=600, seed=3,
            tol=cones.MEMBERSHIP_TOL,
        )
        assert rep.holds and rep.tier == "float"
        assert calls == [autgroup.WAVE_POINTS]


MARGIN_SIDE_CONES = [
    ("psd:4", 0), ("psd:4", 1), ("orthant:6", 0), ("orthant:6", 2),
]


class TestMarginSides:
    """`_margin_sides` against lambda_min: +1 means lambda_min > m, -1 means
    lambda_min < -m, and 0 is the only answer allowed inside the band."""

    @staticmethod
    def cloud(cone_id, k, waves, seed=0):
        cone = gallery.parse_cone_id(cone_id).derivative_cone(k)
        rng = np.random.default_rng(seed)
        pts = cones.boundary_cloud(cone, rng, 800, 256, waves)
        return cone, pts, cone.lambda_min(pts)[0]

    @pytest.mark.parametrize("cone_id,k", MARGIN_SIDE_CONES)
    @pytest.mark.parametrize("m", [1e-4, 1e-6])
    def test_never_contradicts_lambda_min(self, cone_id, k, m):
        # waves on both sides of the margin and on it
        cone, pts, lam = self.cloud(cone_id, k, autgroup.WAVE_MARGINS + (1e-3, 1e-5, m))
        sides = autgroup._margin_sides(cone, pts, m)
        assert np.all(lam[sides == 1] >= m - 1e-9)
        assert np.all(lam[sides == -1] <= -m + 1e-9)
        assert (sides != 0).mean() > 0.5

    @pytest.mark.parametrize("cone_id,k", MARGIN_SIDE_CONES)
    @pytest.mark.parametrize("m", [1e-4, 1e-6])
    def test_agrees_off_the_margin(self, cone_id, k, m):
        cone, pts, lam = self.cloud(cone_id, k, (m,))
        sides = autgroup._margin_sides(cone, pts, m)
        clear = np.abs(np.abs(lam) - m) > 1e-6
        want = np.where(lam > m, 1, np.where(lam < -m, -1, 0))
        assert clear.sum() >= 800
        assert np.array_equal(sides[clear], want[clear])

    def test_empty_stack(self):
        cone = gallery.psd(3)
        sides = autgroup._margin_sides(cone, np.zeros((0, cone.nvars)), 1e-4)
        assert sides.shape == (0,)


class TestDerivAutomorphism:
    def test_scaled_cycle_holds_both_sides(self):
        cone = gallery.orthant(5)
        cand = LinearMap.scaled_permutation([3] * 5, [1, 2, 3, 4, 0])
        rep = autgroup.check_deriv_automorphism(cone, 1, cand)
        assert rep.holds and rep.kappa == F(1, 81)
        assert not rep.details["equivalence_violation"]

    def test_unequal_diagonal_refuted_with_point_witness(self):
        cone = gallery.orthant(5)
        diag = LinearMap(exactlin.diag([1, 2, 1, 1, 1]))
        rep = autgroup.check_deriv_automorphism(cone, 1, diag)
        assert rep.fails and rep.tier == "exact"
        assert rep.details["base_verdict"] == "Holds"
        assert not rep.details["stabilizer"]["fixed"]
        assert not rep.details["equivalence_violation"]
        p, x = cone.derivative_cone(1).p, rep.witness
        assert rep.details["point"] == list(x)
        lhs = rep.kappa * exact_value(p, diag.apply(x))
        assert lhs != exact_value(p, x)
        assert str(lhs) == rep.details["kappa_p_of_Ax"]
        assert str(exact_value(p, x)) == rep.details["p_of_x"]

    def test_dense_psd4_refutation_witness_rechecks(self):
        cone = gallery.psd(4)
        mapping = autgroup.lm_linear_map(dense_integer_map(np.random.default_rng(8), 4), 4)
        rep = autgroup.check_deriv_automorphism(cone, 1, mapping)
        assert rep.fails and rep.tier == "exact"
        assert rep.details["base_verdict"] == "Holds"
        x = rep.witness
        assert len(x) == 10 and sum(x) == 3 and min(x) >= 0
        p = cone.derivative_cone(1).p
        assert rep.kappa * exact_value(p, mapping.apply(x)) != exact_value(p, x)

    def test_l1_hyperbolic_rotation(self):
        # preserves the first relaxation (a quadratic cone) but not the
        # quartic cone itself; outside the equivalence regime, so only a
        # warning is recorded
        cone = gallery.l1_cone()
        cand = LinearMap(
            [[F(5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]]
        )
        base = autgroup.check_automorphism(cone, cand)
        assert base.fails
        rep = autgroup.check_deriv_automorphism(cone, 1, cand, samples=600, seed=5)
        assert rep.holds and rep.tier == "float"
        assert rep.regime_warnings
        assert not rep.details["equivalence_violation"]

    def test_out_of_regime_order_warns(self):
        cone = gallery.orthant(4)
        rep = autgroup.check_deriv_automorphism(
            cone, 2, LinearMap.scaled_permutation([2] * 4, [3, 2, 1, 0])
        )
        assert rep.holds
        assert any("outside" in w for w in rep.regime_warnings)


class TestLatticeCertificate:
    """The exact tier decides like an expansion of p o A would."""

    def cases(self):
        rng = np.random.default_rng(11)
        for n in (4, 5):
            for cone in (gallery.orthant(n), gallery.orthant(n).derivative_cone(1)):
                for _ in range(3):
                    perm = [int(v) for v in rng.permutation(n)]
                    c = F(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
                    yield cone, LinearMap.scaled_permutation([c] * n, perm)
                    scalings = [F(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for _ in range(n)]
                    yield cone, LinearMap.scaled_permutation(scalings, perm)
                    yield cone, LinearMap(exactlin.diag([int(rng.choice([-2, 1, 3])) for _ in range(n)]))
                    yield cone, dense_integer_map(rng, n)
        for n in (3, 4):
            base = gallery.psd(n)
            for cone in [base] + [base.derivative_cone(k) for k in range(1, n - 1)]:
                for _ in range(2):
                    signs = [int(v) for v in rng.choice([-1, 1], size=n)]
                    perm = [int(v) for v in rng.permutation(n)]
                    signed = exactlin.matmul(exactlin.diag(signs), exactlin.permutation(perm))
                    yield cone, autgroup.lm_linear_map(LinearMap(signed), n)
                    yield cone, autgroup.lm_linear_map(cayley_orthogonal(rng, n), n)
                    if n == 3:
                        yield cone, autgroup.lm_linear_map(dense_integer_map(rng, n), n)

    def test_agrees_with_compose_oracle(self):
        seen = set()
        for cone, A in self.cases():
            want, kappa = compose_oracle(cone, A)
            rep = autgroup.check_automorphism(cone, A)
            assert rep.tier == "exact"
            assert rep.verdict is want and rep.kappa == kappa
            seen.add(want)
        assert seen == {Verdict.HOLDS, Verdict.FAILS}


class TestGarding:
    def test_proportional_tuple_has_zero_gap(self):
        cone = gallery.orthant(3)
        [rep] = autgroup.garding_check(cone, [[(1, 1, 1), (2, 2, 2), (3, 3, 3)]], tol=1e-9)
        assert rep.holds
        assert abs(rep.details["gap"]) <= 1e-12
        assert rep.details["proportional"]

    def test_non_proportional_tuple_has_positive_gap(self):
        cone = gallery.orthant(3)
        [rep] = autgroup.garding_check(cone, [[(1, 1, 1), (1, 1, 1), (1, 1, 4)]], tol=1e-9)
        assert rep.holds
        # normalized gap: polarized value 2 against geometric mean 4^(1/3)
        assert rep.details["gap"] == pytest.approx(2 / 4 ** (1 / 3) - 1, rel=1e-9)

    def test_boundary_argument_rejected(self):
        cone = gallery.orthant(3)
        with pytest.raises(ValueError):
            autgroup.garding_check(cone, [[(1, 1, 1), (1, 1, 0), (1, 1, 1)]], tol=1e-9)

    def test_wrong_arity_rejected(self):
        cone = gallery.orthant(3)
        with pytest.raises(ValueError):
            autgroup.garding_check(cone, [[(1, 1, 1)] * 2], tol=1e-9)
        # one tuple is not a stack of tuples
        with pytest.raises(ValueError, match="stack"):
            autgroup.garding_check(cone, [(1, 1, 1)] * 3, tol=1e-9)


def reference_garding_numbers(cone, xs):
    """(gap, proportionality distance) of one tuple, computed tuple by
    tuple as the garding check did before it took stacks."""
    p, d = cone.p, cone.d
    pts = np.asarray([[float(v) for v in x] for x in xs], dtype=float)
    values = p.eval_float(pts)
    normalized = pts / values[:, None] ** (1.0 / d)
    masks = np.arange(1, 1 << d)
    sel = (masks[:, None] >> np.arange(d)[None, :]) & 1
    signs = np.where((d - sel.sum(axis=1)) % 2 == 0, 1.0, -1.0)
    polarized = float(signs @ p.eval_float(sel @ normalized)) / factorial(d)
    unit = pts / np.linalg.norm(pts, axis=1)[:, None]
    prop_dist = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            prop_dist = max(prop_dist, float(np.abs(unit[i] - unit[j]).max()))
    return polarized - 1.0, prop_dist


class TestGardingStack:
    @pytest.mark.parametrize("cone_id", suite.GARDING_ROSTER)
    def test_stack_matches_tuples_bitwise(self, cone_id):
        cone = gallery.parse_cone_id(cone_id)
        d, n = cone.d, cone.nvars
        rng = np.random.default_rng(27)
        xs = cones.to_interior(cone, rng.standard_normal((60 * d, n))).reshape(60, d, n)
        base = cones.to_interior(cone, rng.standard_normal((20, n)))
        scalars = rng.uniform(0.5, 3.0, size=(20, d))
        stack = np.concatenate([xs, scalars[:, :, None] * base[:, None, :]])
        stacked = autgroup.garding_check(cone, stack, tol=1e-9)
        assert len(stacked) == len(stack)
        assert any(rep.details["proportional"] for rep in stacked)
        for tup, rep in zip(stack, stacked):
            assert [rep] == autgroup.garding_check(cone, tup[None], tol=1e-9)
            gap, dist = reference_garding_numbers(cone, tup)
            assert rep.details["gap"].hex() == gap.hex()
            assert rep.details["proportionality_distance"].hex() == dist.hex()

    def test_one_non_interior_tuple_rejects_the_stack(self):
        cone = gallery.orthant(3)
        good = [(1, 1, 1), (1, 2, 1), (1, 1, 3)]
        bad = [(1, 1, 1), (1, 1, 0), (1, 1, 1)]
        with pytest.raises(ValueError, match="strictly interior"):
            autgroup.garding_check(cone, [bad], tol=1e-9)
        with pytest.raises(ValueError, match="strictly interior"):
            autgroup.garding_check(cone, [good, bad, good], tol=1e-9)

    def test_polar_form_stack(self):
        cone = gallery.psd(3)
        rng = np.random.default_rng(28)
        xs = cones.to_interior(cone, rng.standard_normal((30, 6))).reshape(10, 3, 6)
        stacked = polar_form_float(cone.p, xs)
        assert [v.hex() for v in stacked.tolist()] == [
            polar_form_float(cone.p, x[None])[0].hex() for x in xs
        ]


class TestGardingFamilies:
    # five samples still give one proportional tuple
    @pytest.mark.parametrize("cone_id, samples, proportional", [
        *((cone_id, 25, 2) for cone_id in suite.GARDING_ROSTER), ("soc:3", 5, 1),
    ])
    def test_shapes_interior_and_proportional(self, cone_id, samples, proportional):
        cone = gallery.parse_cone_id(cone_id)
        d, n = cone.d, cone.nvars
        randoms, proportionals = autgroup.garding_families(
            cone, np.random.default_rng(3), samples
        )
        assert randoms.shape == (samples, d, n)
        assert proportionals.shape == (proportional, d, n)
        for xs in (randoms, proportionals):
            lam, _ = cone.lambda_min(xs.reshape(-1, n))
            assert np.all(lam > 0)
        reps = autgroup.garding_check(cone, proportionals, tol=1e-9)
        assert all(rep.holds and rep.details["proportional"] for rep in reps)


def failing_where_large(check, threshold):
    """garding_check, with every tuple whose first coordinate exceeds
    `threshold` reported as failing."""
    def wrapped(cone, xs, tol):
        return [
            dataclasses.replace(rep, verdict=Verdict.FAILS) if tup[0, 0] > threshold else rep
            for tup, rep in zip(np.asarray(xs, dtype=float), check(cone, xs, tol))
        ]
    return wrapped


def recording(check, calls):
    """garding_check, appending each stack and its reports to `calls`."""
    def wrapped(cone, xs, tol):
        reps = check(cone, xs, tol)
        calls.append((np.asarray(xs, dtype=float), reps))
        return reps
    return wrapped


class TestGardingJudge:
    ROSTER = ("soc:3", "orthant:3")
    FAMILIES = ("random", "proportional", "perturbed")

    @pytest.mark.parametrize("threshold, failing", [
        pytest.param(3.5, {"random", "proportional", "perturbed"}, id="3.5"),
        pytest.param(5.0, {"proportional", "perturbed"}, id="5.0"),
    ])
    def test_each_family_names_its_first_failure(self, monkeypatch, threshold, failing):
        calls = []
        monkeypatch.setattr(suite, "GARDING_ROSTER", self.ROSTER)
        monkeypatch.setattr(autgroup, "garding_check", recording(
            failing_where_large(autgroup.garding_check, threshold), calls
        ))
        got = suite.check_garding_inequality(1, {}).details
        # one stack per family, in roster order
        assert [len(xs) for xs, _ in calls] == [1000, 100, 100] * len(self.ROSTER)
        want = []
        beyond = 0
        for cone_id, stacks in zip(self.ROSTER, zip(*[iter(calls)] * 3)):
            gaps = {}
            for kind, (xs, reps) in zip(self.FAMILIES, stacks):
                gaps[kind] = [rep.details["gap"] for rep in reps]
                if kind == "proportional":
                    gaps[kind] = [abs(gap) for gap in gaps[kind]]
                large = np.flatnonzero(xs[:, 0, 0] > threshold)
                if len(large):
                    bad = int(large[0])
                    want.append({"cone": cone_id, "kind": kind, "i": bad,
                                 "gap": gaps[kind][bad], "verdict": Verdict.FAILS.value})
                    worst = max if kind == "proportional" else min
                    beyond += worst(gaps[kind]) != worst(gaps[kind][: bad + 1])
            # the statistics cover whole stacks, past the first failure
            assert got["stats"][cone_id] == {
                "min_random_gap": min(gaps["random"]),
                "max_proportional_gap": max(gaps["proportional"]),
                "min_perturbed_gap": min(gaps["perturbed"]),
            }
        assert got["problems"] == want
        assert {p["kind"] for p in want} == failing
        assert beyond > 0


# a perturbed soc:3 tuple with gap 8.65e-7, drawn by `suite --seed 27`
# before its families became stacks: a fixed 1e-6 gap floor reported it
# as a failure, but the inequality holds
CLOSE_PERTURBED_SOC3 = [
    [float.fromhex(v) for v in ("0x1.851864f8f182dp-1", "0x1.21bd842e48cf4p-1",
                                "0x1.f0d40d359f34dp-3")],
    [float.fromhex(v) for v in ("0x1.b8534e9a88f56p+0", "0x1.47e339d6c9da5p+0",
                                "0x1.1886b3ee39674p-1")],
]


def test_close_perturbed_tuple_is_no_failure():
    [rep] = autgroup.garding_check(gallery.soc(3), [CLOSE_PERTURBED_SOC3], tol=1e-9)
    assert rep.holds
    assert not rep.details["proportional"]
    assert 1e-8 < rep.details["gap"] < 1e-6


def test_close_perturbed_gap_passes_the_suite(monkeypatch):
    # every perturbed stack (each cone's third call) gets one tuple whose
    # gap sits in (1e-8, 1e-6) while it still Holds
    close = 8.652266463293756e-07
    calls = []
    check = autgroup.garding_check

    def close_perturbed(cone, xs, tol):
        calls.append(None)
        reps = check(cone, xs, tol)
        if len(calls) % 3 == 0:
            reps[4] = dataclasses.replace(reps[4], details={**reps[4].details, "gap": close})
        return reps

    monkeypatch.setattr(autgroup, "garding_check", close_perturbed)
    result = suite.check_garding_inequality(0, {})
    assert result.status == "pass"
    assert not result.details["problems"]
    for stats in result.details["stats"].values():
        assert stats["min_perturbed_gap"] == close


class TestPerronAndMinimalFace:
    def test_transposition_eigenvector(self):
        cone = gallery.orthant(3)
        cand = LinearMap(exactlin.permutation([1, 0, 2]))
        rep = autgroup.perron_eigenvector(cone, cand)
        assert rep.holds
        w = np.array(rep.witness)
        assert rep.details["eigenvalue"] == pytest.approx(1.0)
        assert w.min() > -1e-9

    def test_scaling_returns_any_direction(self):
        rep = autgroup.perron_eigenvector(gallery.orthant(3), LinearMap(exactlin.diag([2, 2, 2])))
        assert rep.holds

    def test_rotation_conjugation_fixes_identity_direction(self):
        q = LinearMap([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]])
        lq = autgroup.lm_linear_map(q, 3)
        rep = autgroup.perron_eigenvector(gallery.psd(3), lq)
        assert rep.holds

    def test_min_face_support_preserved(self):
        cone = gallery.orthant(3)
        cand = LinearMap(exactlin.permutation([1, 0, 2]))
        rep = autgroup.min_face_fix_check(cone, cand, (1, 1, 0))
        assert rep.holds
        assert rep.details["support"] == [0, 1]

    def test_min_face_range_preserved_on_matrix_cone(self):
        q = LinearMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        lq = autgroup.lm_linear_map(q, 3)
        u = (F(1), F(1), F(0))
        z = gallery.svec(tuple(tuple(a * b for b in u) for a in u))
        rep = autgroup.min_face_fix_check(gallery.psd(3), lq, z)
        assert rep.holds

    def test_non_eigenvector_rejected(self):
        cone = gallery.orthant(3)
        with pytest.raises(ValueError):
            autgroup.min_face_fix_check(
                cone, LinearMap(exactlin.permutation([1, 0, 2])), (1, 0, 0)
            )

    def test_point_outside_the_cone_rejected(self):
        # lambda_min of -1e-5 and -5e-5: inside the old 1e-4 band, but Out
        # by `cones.contains`
        with pytest.raises(ValueError, match="does not lie in the cone"):
            autgroup.min_face_fix_check(
                gallery.orthant(3), LinearMap(exactlin.identity(3)), (1.0, 1.0, -1e-5)
            )
        z = gallery.svec_float(np.diag([1.0, 1.0, -5e-5]))
        with pytest.raises(ValueError, match="does not lie in the cone"):
            autgroup.min_face_fix_check(gallery.psd(3), LinearMap(exactlin.identity(6)), z)

    def test_non_real_rooted_candidate_is_inconclusive(self, monkeypatch):
        # along (1, 0) the restriction of x0^2 + x1^2 at (0, 1) is t^2 + 1,
        # roots +-i: the candidate eigenvector must be rejected, not accepted
        # inside a band its own residual widens
        cone = HyperCone(HomoPoly(2, 2, {(2, 0): 1, (0, 2): 1}), (1, 0))
        candidate = np.array([[0.0], [1.0]])
        monkeypatch.setattr(np.linalg, "eig", lambda a: (np.array([2.0]), candidate))
        rep = autgroup.perron_eigenvector(cone, LinearMap(exactlin.diag([1, 2])))
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_rotation_without_real_eigenvector_is_inconclusive(self):
        # the quarter turn has eigenvalues +-i: the eig loop finds no real
        # eigenvector at the spectral radius
        rep = autgroup.perron_eigenvector(gallery.orthant(2), LinearMap([[0, -1], [1, 0]]))
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_unsupported_gallery_rejected(self):
        with pytest.raises(ValueError):
            autgroup.min_face_fix_check(
                gallery.soc(3), LinearMap(exactlin.identity(3)), (1, 0, 0)
            )


class TestClassifications:
    def test_orthant_scaled_permutation_holds(self):
        cand = LinearMap.scaled_permutation([7] * 4, [1, 2, 3, 0])
        rep = autgroup.classify_orthant_deriv(4, 1, cand, seed=0)
        assert rep.holds and rep.details["prediction"] is True
        assert not rep.details["classification_violation"]

    def test_orthant_unequal_diagonal_fails_with_witness(self):
        cand = LinearMap(exactlin.diag([1, 1, 1, 2]))
        rep = autgroup.classify_orthant_deriv(4, 1, cand, seed=1)
        assert rep.fails and rep.details["prediction"] is False
        w = rep.details["membership_witness"]
        assert w is not None
        assert w["lambda_min_x"] >= 1e-6 and w["lambda_min_image"] <= -1e-6
        amap = cand if w["direction"] == "A" else cand.inverse()
        x = tuple(F(v) for v in w["x"])
        assert_certified_witness(gallery.orthant(4).derivative_cone(1), w, x, amap.apply(x))

    def test_orthant_quadratic_regime_warns(self):
        cand = LinearMap.scaled_permutation([3] * 4, [0, 1, 2, 3])
        rep = autgroup.classify_orthant_deriv(4, 2, cand, seed=2)
        assert rep.holds
        assert rep.regime_warnings

    def test_orthant_small_n_rejected(self):
        with pytest.raises(ValueError):
            autgroup.classify_orthant_deriv(3, 1, LinearMap(exactlin.identity(3)), seed=0)

    def test_psd_signed_permutation_holds(self):
        m = LinearMap([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        rep = autgroup.classify_psd_deriv(4, 1, m, seed=3)
        assert rep.holds and rep.kappa == 1

    def test_psd_scaled_orthogonal_holds(self):
        m = LinearMap(exactlin.diag([3, 3, 3, 3]))
        rep = autgroup.classify_psd_deriv(4, 1, m, seed=4)
        assert rep.holds and rep.details["prediction"] is True

    def test_float_maps_rejected(self):
        q, _ = np.linalg.qr(np.random.default_rng(30).standard_normal((4, 4)))
        with pytest.raises(TypeError):
            autgroup.classify_orthant_deriv(4, 1, q, seed=7)
        with pytest.raises(TypeError):
            autgroup.classify_psd_deriv(4, 1, q, seed=7)

    @pytest.mark.parametrize("seed", [5, 8, 11, 12])
    def test_psd_unequal_diagonal_fails_with_witness(self, seed):
        m = LinearMap(exactlin.diag([1, 1, 1, 2]))
        rep = autgroup.classify_psd_deriv(4, 1, m, seed=seed)
        assert rep.fails and rep.details["prediction"] is False
        w = rep.details["membership_witness"]
        assert w is not None
        exact = autgroup.lm_linear_map(m, 4)
        amap = exact if w["direction"] == "A" else exact.inverse()
        x = tuple(F(v) for v in w["x"])
        assert_certified_witness(gallery.psd(4).derivative_cone(1), w, x, amap.apply(x))


def assert_certified_witness(derived, w, x, image):
    """The witness is the exact value of a float, inside `derived` and its
    image outside, with the reported lambda_min values read off certified
    spectra at both."""
    assert all(F(float(v)) == v for v in x)
    assert membership_exact(derived, x) is Membership.IN
    assert membership_exact(derived, image) is Membership.OUT
    assert w["lambda_min_x"] == spectrum.eigenvalues(derived, x).lambda_min
    assert w["lambda_min_image"] == spectrum.eigenvalues(derived, image).lambda_min


class TestRankOnePreservation:
    def test_certified_matrix_cone_automorphisms_preserve_rank_one(self):
        from hypercones import spectrum

        cone = gallery.psd(3)
        rng = np.random.default_rng(7)
        q = LinearMap([[0, 0, 1], [1, 0, 0], [0, -1, 0]])
        cand = autgroup.lm_linear_map(q, 3)
        assert autgroup.check_automorphism(cone, cand).holds
        for _ in range(1000):
            u = [F(int(v), 4) for v in rng.integers(-8, 9, size=3)]
            if all(v == 0 for v in u):
                u[0] = F(1)
            vec = gallery.svec(tuple(tuple(a * b for b in u) for a in u))
            assert spectrum.rank_exact(cone, cand.apply(vec)) == 1


class TestLieProbe:
    def test_identity_flow_scales(self):
        rep = autgroup.lie_probe(
            gallery.orthant(4), 1, np.eye(4), (-1.0, -0.1, 0.1, 1.0),
            samples=300, seed=8,
        )
        assert rep.holds

    def test_single_coordinate_flow_refuted(self):
        gen = np.diag([1.0, 0.0, 0.0, 0.0])
        rep = autgroup.lie_probe(
            gallery.orthant(4), 1, gen, (-1.0, -0.1, 0.1, 1.0),
            samples=300, seed=9,
        )
        assert rep.fails
        assert rep.witness[0] in (-1.0, -0.1, 0.1, 1.0)

    def test_skew_conjugation_flow_preserves_matrix_relaxation(self):
        w = np.zeros((4, 4))
        w[0, 2], w[2, 0] = 1.0, -1.0
        gen = gallery.svec_product(w, np.eye(4)) + gallery.svec_product(np.eye(4), w)
        # the flow is conjugation by a rotation; verified numerically
        flow = __import__("scipy.linalg", fromlist=["expm"]).expm(0.7 * w)
        assert np.allclose(flow @ flow.T, np.eye(4), atol=1e-12)
        rep = autgroup.lie_probe(
            gallery.psd(4), 1, gen, (-1.0, 1.0), samples=300, seed=10
        )
        assert rep.holds

    def test_overflow_is_inconclusive(self):
        rep = autgroup.lie_probe(
            gallery.orthant(4), 1, np.eye(4) * 500.0, (4.0,), samples=50, seed=11
        )
        assert rep.verdict is Verdict.INCONCLUSIVE


def test_lyapunov_flows_decided_without_float_tier(monkeypatch):
    """Every flow element is certified or refuted on the exact lattice tier:
    with the sampled tier, `lie_probe` and scipy all unavailable, the check
    still passes with the full generator counts."""

    def unavailable(*args, **kwargs):
        raise AssertionError("float tier reached")

    monkeypatch.setattr(autgroup, "_sampled_preservation", unavailable)
    monkeypatch.setattr(autgroup, "lie_probe", unavailable)
    monkeypatch.setitem(sys.modules, "scipy", None)
    check = suite.check_lyapunov_flows(0, {})
    assert check.status == suite.PASS, check.details["problems"]
    d = check.details
    assert (d["psd_passing_generators"], d["psd_refuted_complements"],
            d["orthant_passing"], d["orthant_refuted_diagonals"]) == (7, 6, 1, 3)
