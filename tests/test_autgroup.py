"""Automorphism certificates, classifications, flows, invariant faces."""

import dataclasses
import sys
from fractions import Fraction as F
from math import factorial, lcm, prod

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
        assert autgroup.scaled_permutation_parts(LinearMap([[1, 0], [1, 0]])) is None

    def test_parts_keep_signed_scalings(self):
        parts = autgroup.scaled_permutation_parts(LinearMap([[0, -1], [F(1, 2), 0]]))
        assert parts == ((F(-1), F(1, 2)), (1, 0))

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

    @pytest.mark.parametrize("w, t_of, odd, even, sign", [
        pytest.param([[0, 1, 0], [1, 0, 0], [0, 0, 0]], np.arctanh, np.sinh, np.cosh, 1,
                     id="w0-arctanh"),  # E01 + E10
        pytest.param([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], np.arctan, np.sin, np.cos, -1,
                     id="w1-arctan"),  # skew
    ])
    def test_cayley_lies_on_the_exponential_flow(self, w, t_of, odd, even, sign):
        # Cayley(-u W) = exp(t W) with t = 2 artanh(u), or 2 arctan(u) for skew W;
        # W^3 = sign W sums the series to I + odd(t) W + sign (even(t) - 1) W^2
        wf = np.array(w, dtype=float)
        for u in autgroup.FLOW_PARAMS:
            q = LinearMap.cayley([[-u * v for v in row] for row in w])
            t = 2 * t_of(float(u))
            flow = np.eye(3) + odd(t) * wf + sign * (even(t) - 1) * wf @ wf
            assert np.allclose(q.to_float(), flow, rtol=0, atol=1e-12)


def conjugators(rng, n):
    """Signed permutations, Cayley orthogonals (one scaled by 2/3), dense
    integer and rational maps, and singular rational maps on R^n."""
    for _ in range(2):
        perm, signs = rng.permutation(n), rng.choice([-1, 1], size=n)
        yield LinearMap([[int(signs[r]) if c == perm[r] else 0 for c in range(n)]
                         for r in range(n)])
        q = cayley_orthogonal(rng, n)
        yield q
        yield LinearMap([[F(2, 3) * v for v in row] for row in q.rows])
        yield dense_integer_map(rng, n)
        dense = [[F(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) for _ in range(n)]
                 for _ in range(n)]
        yield LinearMap(dense)
        yield LinearMap(dense[:-1] + [[a - 2 * b for a, b in zip(dense[0], dense[-2])]])


class TestConjugationMap:
    """`lm_linear_map` builds its image from integers; every view of it
    equals the one built from Fraction entries."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_image_matches_the_fraction_construction(self, n):
        for m in conjugators(np.random.default_rng(37 + n), n):
            lq = autgroup.lm_linear_map(m, n)
            mf = np.array(m.rows, dtype=object)
            rows = exactlin.as_matrix(gallery.svec_product(mf, mf).tolist())
            den = lcm(*(v.denominator for row in rows for v in row))
            nums = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
            assert lq.integer_form() == (nums, den)
            assert lq.det == F(exactlin.int_det(nums), den ** len(nums)) == m.det ** (n + 1)
            want = np.array([[float(v) for v in row] for row in rows])
            assert lq.to_float().tobytes() == want.tobytes()
            assert lq.rows == rows
            assert all(type(v) is F for row in lq.rows for v in row)

    def test_checks_never_build_the_rows(self):
        # the exact tier reads the integer form, the determinant and the
        # float matrix; the Fraction rows stay unbuilt
        rng = np.random.default_rng(4)
        cone = gallery.psd(4)
        for m in (LinearMap(exactlin.permutation([2, 0, 3, 1])), dense_integer_map(rng, 4),
                  cayley_orthogonal(rng, 4)):
            lq = autgroup.lm_linear_map(m, 4)
            autgroup.check_deriv_automorphism(cone, 1, lq)
            assert lq._rows is None

    @pytest.mark.parametrize("rows, form, det", [
        ([[2, 1, 0], [0, 1, 0], [0, 0, -3]], ([[3, -3, 0], [0, 6, 0], [0, 0, -2]], 6),
         F(-1, 6)),
        ([[2, 0], [0, -4]], ([[2, 0], [0, -1]], 4), F(-1, 8)),  # adj / det = [[-4, 0], [0, 2]] / -8
        ([[4, 2], [2, 6]], ([[3, -1], [-1, 2]], 10), F(1, 20)),
    ])
    def test_inverse_is_built_reduced(self, rows, form, det):
        # the integer inverse comes back over a positive denominator with
        # no common factor, as from its Fraction rows
        inv = LinearMap(rows).inverse()
        assert inv.integer_form() == form
        assert LinearMap(inv.rows).integer_form() == form
        assert inv.det == det


# A float matrix has no exact tier: every map argument is a LinearMap.
FLOAT_MAP_CALLS = {
    "check_automorphism": lambda a: autgroup.check_automorphism(gallery.orthant(4), a),
    "check_deriv_automorphism": lambda a: autgroup.check_deriv_automorphism(
        gallery.orthant(4), 1, a),
    "stabilizer_check": lambda a: autgroup.stabilizer_check(a, (1, 1, 1, 1)),
    "lm_linear_map": lambda a: autgroup.lm_linear_map(a, 4),
    "lie_probe": lambda a: autgroup.lie_probe(gallery.orthant(4), 1, a),
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

    def test_non_minimal_mismatch_refuted_on_a_ray(self):
        # diag(2,1,1) does not preserve this quadratic cone; its polynomial
        # is not flagged minimal, so a certified ray witness refutes
        cone = gallery.l1_cone().derivative_cone(1)
        amap = LinearMap(exactlin.diag([2, 1, 1]))
        rep = autgroup.check_automorphism(cone, amap)
        assert rep.fails and rep.tier == "exact"
        assert not rep.details["conditional_on_minimality"]
        assert_ray_witness(cone, amap, rep.details, rep.witness)


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
        # the relaxation's polynomial keeps a redundant factor, so it is not
        # flagged minimal: the lattice mismatch cannot refute, no ray gives a
        # witness, and nothing certifies a Holds
        rep = autgroup.check_deriv_automorphism(cone, 1, cand)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert "not flagged minimal" in rep.details["reason"]
        assert "rays" in rep.details["reason"]
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
        # the 2-cycle and the fixed point both have modulus 1: the tie goes
        # to the cycle holding coordinate 0
        cand = LinearMap(exactlin.permutation([1, 0, 2]))
        rep = autgroup.perron_face(gallery.orthant(3), cand)
        assert rep.holds and rep.tier == "exact"
        assert rep.details["cycles"] == [[[0, 1], 1, 1], [[2], 1, 1]]
        assert rep.details["cycle"] == [0, 1]
        assert rep.details["support"] == rep.details["face"] == [0, 1]

    def test_scaling_returns_any_direction(self):
        # every axis is an eigenvector at rho = 2; the first one is taken
        rep = autgroup.perron_face(gallery.orthant(3), LinearMap(exactlin.diag([2, 2, 2])))
        assert rep.holds
        assert rep.details["face"] == [0]

    @pytest.mark.parametrize("a_num, face", [
        (14142135623730950488, [0, 1]),
        (14142135623730950489, [2]),
    ])
    def test_dominance_decided_exactly_next_to_sqrt2(self, a_num, face):
        # the 2-cycle has rho = sqrt 2 and the fixed point rho = a, with a
        # on either side of sqrt 2 but float(a) == sqrt 2: only 2 against
        # a^2, exactly, tells them apart
        a = F(a_num, 10**19)
        assert float(a) == 2**0.5
        cand = LinearMap.scaled_permutation([1, 2, a], [1, 0, 2])
        rep = autgroup.perron_face(gallery.orthant(3), cand)
        assert rep.holds
        assert rep.details["face"] == face

    def test_min_face_support_preserved(self):
        cand = LinearMap.scaled_permutation([3, F(1, 3), 1, 2], [1, 0, 3, 2])
        rep = autgroup.perron_face(gallery.orthant(4), cand)
        assert rep.holds
        # rho^2 of each 2-cycle: 3 * 1/3 = 1 against 1 * 2 = 2
        assert rep.details["cycles"] == [[[0, 1], 1, 1], [[2, 3], 2, 2]]
        assert rep.details["support"] == [2, 3]

    def test_min_face_range_preserved_on_matrix_cone(self):
        q = LinearMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        rep = autgroup.perron_face(gallery.psd(3), autgroup.lm_linear_map(q, 3))
        assert rep.holds
        # matrices with range in span(e0, e1): svec (0, 0), (1, 1), (0, 1)
        assert rep.details["range"] == [0, 1]
        assert rep.details["face"] == [0, 1, 3]

    def test_tied_off_diagonal_cycles_never_chosen(self):
        # 2 * congruence by a signed permutation: every svec cycle has
        # rho = 2, the off-diagonal ones through entries of either sign
        m = LinearMap.scaled_permutation([-1, 1, -1], [2, 1, 0])
        lq = autgroup.lm_linear_map(m, 3)
        cand = LinearMap([[2 * v for v in row] for row in lq.rows])
        assert autgroup.check_automorphism(gallery.psd(3), cand).holds
        rep = autgroup.perron_face(gallery.psd(3), cand)
        assert rep.holds
        assert rep.details["cycle"] == [0, 2] and rep.details["face"] == [0, 2, 4]
        assert [power for _, _, power in rep.details["cycles"]] == [4] * 4
        # an off-diagonal coordinate alone at the top is no Perron face
        with pytest.raises(ValueError, match="dominant cycle"):
            autgroup.perron_face(gallery.psd(3), LinearMap(exactlin.diag([1, 1, 1, 2, 1, 1])))

    def test_face_leaving_column_fails(self):
        # swaps svec (0, 0) with (1, 1) but (0, 1) with (0, 2): the face of
        # span(e0, e1) is not kept, and column 3 is the first to leave
        cand = LinearMap(exactlin.permutation([1, 0, 2, 4, 3, 5]))
        rep = autgroup.perron_face(gallery.psd(3), cand)
        assert rep.fails
        assert rep.witness == (3, 4)

    def test_rotation_conjugation_is_not_monomial(self):
        q = LinearMap([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]])
        lq = autgroup.lm_linear_map(q, 3)
        assert autgroup.check_automorphism(gallery.psd(3), lq).holds
        with pytest.raises(ValueError, match="monomial"):
            autgroup.perron_face(gallery.psd(3), lq)

    def test_rotation_without_positive_cycle_rejected(self):
        # the quarter turn is one 2-cycle of product -1: eigenvalues +-i
        with pytest.raises(ValueError, match="dominant cycle of positive product"):
            autgroup.perron_face(gallery.orthant(2), LinearMap([[0, -1], [1, 0]]))

    def test_unsupported_gallery_rejected(self):
        with pytest.raises(ValueError, match="orthant or psd"):
            autgroup.perron_face(gallery.soc(3), LinearMap(exactlin.identity(3)))


def test_perron_faces_decided_without_float_eigensolvers(monkeypatch):
    """Every Perron face of the suite check is read off the map's cycles:
    with the float eigensolvers unavailable, the check still passes and
    all 100 reports are exact Holds."""

    def unavailable(*args, **kwargs):
        raise AssertionError("float eigensolver reached")

    monkeypatch.setattr(np.linalg, "eig", unavailable)
    monkeypatch.setattr(np.linalg, "eigh", unavailable)
    reports = []
    face = autgroup.perron_face

    def recorded(cone, A):
        reports.append(face(cone, A))
        return reports[-1]

    monkeypatch.setattr(autgroup, "perron_face", recorded)
    check = suite.check_perron_minimal_face(0, {})
    assert check.status == suite.PASS, check.details["problems"]
    assert len(reports) == 100
    assert all(rep.holds and rep.tier == "exact" for rep in reports)


class TestClassifications:
    def test_orthant_scaled_permutation_holds(self):
        cand = LinearMap.scaled_permutation([7] * 4, [1, 2, 3, 0])
        rep = autgroup.classify_orthant_deriv(4, 1, cand)
        assert rep.holds and rep.details["prediction"] is True
        assert not rep.details["classification_violation"]

    def test_orthant_unequal_diagonal_fails_with_witness(self):
        cand = LinearMap(exactlin.diag([1, 1, 1, 2]))
        rep = autgroup.classify_orthant_deriv(4, 1, cand)
        assert rep.fails and rep.details["prediction"] is False
        w = rep.details["membership_witness"]
        assert w is not None
        assert w["lambda_min_x"] >= 1e-6 and w["lambda_min_image"] <= -1e-6
        assert_ray_witness(gallery.orthant(4).derivative_cone(1), cand, w)

    def test_orthant_negative_scalings_have_no_normal_form(self):
        # equal scalings, but negative: not a positive multiple of a
        # permutation, so neither a normal form nor a positive prediction
        cand = LinearMap.scaled_permutation([-2] * 4, [1, 2, 3, 0])
        rep = autgroup.classify_orthant_deriv(4, 1, cand)
        assert rep.fails
        assert rep.details["normal_form"] is None
        assert rep.details["prediction"] is False
        assert not rep.details["classification_violation"]

    def test_orthant_quadratic_regime_warns(self):
        cand = LinearMap.scaled_permutation([3] * 4, [0, 1, 2, 3])
        rep = autgroup.classify_orthant_deriv(4, 2, cand)
        assert rep.holds
        assert rep.regime_warnings

    def test_orthant_small_n_rejected(self):
        with pytest.raises(ValueError):
            autgroup.classify_orthant_deriv(3, 1, LinearMap(exactlin.identity(3)))

    def test_psd_signed_permutation_holds(self):
        m = LinearMap([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        rep = autgroup.classify_psd_deriv(4, 1, m)
        assert rep.holds and rep.kappa == 1

    def test_psd_scaled_orthogonal_holds(self):
        m = LinearMap(exactlin.diag([3, 3, 3, 3]))
        rep = autgroup.classify_psd_deriv(4, 1, m)
        assert rep.holds and rep.details["prediction"] is True

    def test_float_maps_rejected(self):
        q, _ = np.linalg.qr(np.random.default_rng(30).standard_normal((4, 4)))
        with pytest.raises(TypeError):
            autgroup.classify_orthant_deriv(4, 1, q)
        with pytest.raises(TypeError):
            autgroup.classify_psd_deriv(4, 1, q)

    @pytest.mark.parametrize("seed", [5, 8, 11, 12])
    def test_psd_unequal_diagonal_fails_with_witness(self, seed):
        # the witness search takes no seed; the seed draws the diagonal
        rng = np.random.default_rng(seed)
        diag = [1, 1, 1, 1]
        while len(set(diag)) == 1:
            diag = [F(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(4)]
        m = LinearMap(exactlin.diag(diag))
        rep = autgroup.classify_psd_deriv(4, 1, m)
        assert rep.fails and rep.details["prediction"] is False
        w = rep.details["membership_witness"]
        assert w is not None
        assert_ray_witness(gallery.psd(4).derivative_cone(1), autgroup.lm_linear_map(m, 4), w)


def assert_ray_witness(derived, amap, w, witness=None):
    """The witness is e + t * ray or its image under `amap`, inside
    `derived` while its image under `amap` (direction A) or its inverse
    (A_inv) is outside, with the reported lambda_min values read off
    certified spectra at both."""
    x = tuple(F(v) for v in w["x"])
    image = tuple(F(v) for v in w["image"])
    assert witness is None or tuple(witness) == x
    on_ray = tuple(e + F(w["t"]) * r for e, r in zip(derived.e, w["ray"]))
    if w["direction"] == "A":
        assert (x, image) == (on_ray, amap.apply(on_ray))
    else:
        assert (x, image) == (amap.apply(on_ray), on_ray)
    assert membership_exact(derived, x) is Membership.IN
    assert membership_exact(derived, image) is Membership.OUT
    assert w["lambda_min_x"] == spectrum.eigenvalues(derived, x).lambda_min
    assert w["lambda_min_image"] == spectrum.eigenvalues(derived, image).lambda_min
    assert w["lambda_min_x"] >= autgroup.WITNESS_MARGIN
    assert w["lambda_min_image"] <= -autgroup.WITNESS_MARGIN


# The Lorentz boost of `test_l1_hyperbolic_rotation` with its (0, 0) entry
# scaled by 1 + eps: not an automorphism of l1^(1) for eps != 0.
def near_boost(eps):
    return LinearMap([[F(5, 4) * (1 + eps), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]])


class TestNearAutomorphism:
    """Maps close to an automorphism of a cone not flagged minimal are
    refuted exactly by a ray witness, or left Inconclusive, never Held."""

    def test_near_boost_refuted_exactly(self):
        cone = gallery.l1_cone().derivative_cone(1)
        amap = near_boost(F(1, 1000))
        rep = autgroup.check_automorphism(cone, amap)
        assert rep.fails and rep.tier == "exact"
        assert_ray_witness(cone, amap, rep.details, rep.witness)

    def test_nearer_boost_never_holds(self):
        cone = gallery.l1_cone().derivative_cone(1)
        rep = autgroup.check_automorphism(cone, near_boost(F(1, 10**7)))
        assert not rep.holds
        assert rep.fails == (rep.tier == "exact")

    def test_deriv_check_refutes_near_boost(self):
        rep = autgroup.check_deriv_automorphism(gallery.l1_cone(), 1, near_boost(F(1, 1000)))
        assert rep.fails and rep.tier == "exact"
        assert rep.details["base_verdict"] == "FailsWithWitness"
        assert not rep.details["equivalence_violation"]


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
        rep = autgroup.lie_probe(gallery.orthant(4), 1, LinearMap(exactlin.identity(4)))
        assert rep.holds and rep.tier == "exact"
        assert rep.details["u"] == str(autgroup.FLOW_PARAMS[-1])

    def test_single_coordinate_flow_refuted(self):
        # Cayley(diag(1, 0, 0, 0) / 2) = diag(1/3, 1, 1, 1), at u = -1/2
        cone = gallery.orthant(4).derivative_cone(1)
        rep = autgroup.lie_probe(gallery.orthant(4), 1, LinearMap(exactlin.diag([1, 0, 0, 0])))
        assert rep.fails and rep.tier == "exact"
        assert rep.details["u"] == "-1/2"
        x = rep.witness
        assert sum(x) == cone.d and min(x) >= 0
        flow = LinearMap(exactlin.diag([F(1, 3), 1, 1, 1]))
        assert rep.kappa * exact_value(cone.p, flow.apply(x)) != exact_value(cone.p, x)

    def test_skew_conjugation_flow_preserves_matrix_relaxation(self):
        w = [[0] * 4 for _ in range(4)]
        w[0][2], w[2][0] = 1, -1
        rep = autgroup.lie_probe(gallery.psd(4), 1, LinearMap(w))
        assert rep.holds and rep.tier == "exact"

    def test_generator_off_its_cayley_points_rejected(self):
        # diag(2, 0, 0, 0) cubes to diag(8, 0, 0, 0), neither W nor -W
        with pytest.raises(ValueError, match="W\\^3"):
            autgroup.lie_probe(gallery.orthant(4), 1, LinearMap(exactlin.diag([2, 0, 0, 0])))


def test_lyapunov_flows_decided_without_float_tier(monkeypatch):
    """Every flow element is certified or refuted on the exact lattice tier:
    with scipy unavailable the check passes with the full generator counts,
    and every automorphism report on the way is exact."""
    reports = []
    certify = autgroup.check_automorphism

    def recorded(cone, A):
        reports.append(certify(cone, A))
        return reports[-1]

    monkeypatch.setattr(autgroup, "check_automorphism", recorded)
    monkeypatch.setitem(sys.modules, "scipy", None)
    check = suite.check_lyapunov_flows(0, {})
    assert check.status == suite.PASS, check.details["problems"]
    assert reports and all(rep.tier == "exact" for rep in reports)
    d = check.details
    assert (d["psd_passing_generators"], d["psd_refuted_complements"],
            d["orthant_passing"], d["orthant_refuted_diagonals"]) == (7, 6, 1, 3)
