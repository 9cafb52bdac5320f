"""Membership routes, derivative relaxations, nesting witnesses."""

import ast
import importlib.util
import math
import pickle
import sys
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from hypercones import cones, gallery, poly, spectrum, suite
from hypercones.cones import HyperCone
from hypercones.gallery import elementary_symmetric
from hypercones.poly import HomoPoly
from hypercones.report import InconclusiveError, Membership, Verdict
from test_gallery import descriptor, not_hyperbolic_polynomial

try:  # hypothesis is a test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None


class TestContains:
    def test_orthant_interior(self):
        assert cones.contains(gallery.orthant(4), np.array([[1.0, 2, 3, 4]])) == [Membership.IN]

    def test_orthant_outside(self):
        assert cones.contains(gallery.orthant(4), np.array([[-1.0, 3, 3, 3]])) == [Membership.OUT]

    def test_l1_boundary_is_ambiguous(self):
        # x3 = |x1| + |x2| exactly
        assert cones.contains(gallery.l1_cone(), np.array([[1.0, 1, 2]])) == [Membership.BOUNDARY]
        assert cones.membership_exact(gallery.l1_cone(), (1, 1, 2)) is Membership.BOUNDARY

    def test_float_points_accepted(self):
        cone = gallery.orthant(3)
        assert cones.contains(cone, np.array([[0.5, 1.5, 2.5]])) == [Membership.IN]
        # one point, float or rational, is not a stack
        for one_point in (np.array([0.5, 1.5, 2.5]), (1, 2, 3)):
            with pytest.raises(ValueError, match="stack"):
                cones.contains(cone, one_point)


class TestInterior:
    def test_direction_is_interior(self):
        cone = gallery.orthant(3)
        assert cones.membership_exact(cone, (1, 1, 1)) is Membership.IN

    def test_boundary_is_not(self):
        assert cones.membership_exact(gallery.orthant(3), (1, 1, 0)) is not Membership.IN

    def test_soc_interior(self):
        assert cones.membership_exact(gallery.soc(3), (2, 1, 0)) is Membership.IN

    def test_exact_interior_route(self):
        cone = gallery.orthant(3)
        assert cones.membership_exact(cone, (1, 1, 1)) is Membership.IN
        assert cones.membership_exact(cone, (1, 1, 0)) is Membership.BOUNDARY

    def test_one_denominator_clearing_per_point(self, monkeypatch):
        # the exact spectrum, rank and membership of a point all read its
        # one integer restriction; the cones are built before counting
        targets = [gallery.orthant(4), gallery.psd(3).derivative_cone(1), gallery.l1_cone()]
        calls = []
        real = poly.clear_denominators

        def counted(values):
            calls.append(values)
            return real(values)

        monkeypatch.setattr(poly, "clear_denominators", counted)
        rng = np.random.default_rng(31)
        for cone in targets:
            for _ in range(3):
                x = tuple(F(int(v), 6) for v in rng.integers(-12, 13, size=cone.nvars))
                for route in (spectrum.eigenvalues, spectrum.rank_exact, cones.membership_exact):
                    calls.clear()
                    route(cone, x)
                    assert len(calls) == 1, route.__name__
                calls.clear()
                spectrum.rank_exact(cone, x, sturm_verify=True)
                assert len(calls) == 1


class TestNotHyperbolicAtThePoint:
    """The sign rule agrees with the definition only where the restriction
    is real-rooted, so the exact route checks it and the float routes do
    not."""

    @pytest.mark.parametrize("x", [(3, 1, 0), (2, 1, 0), (0, 1, 0)])
    def test_exact_route_raises(self, x):
        cone = HyperCone(not_hyperbolic_polynomial(), (1, 0, 0))
        with pytest.raises(InconclusiveError) as info:
            cones.membership_exact(cone, x)
        assert str(info.value) == spectrum.NOT_REAL_ROOTED
        with pytest.raises(InconclusiveError, match="not real-rooted"):
            cones.contains_by_inequalities(cone, 0, x)

    def test_float_sign_routes_stay_unchecked(self):
        # (3, 1, 0) passes the sign rule although its restriction has complex roots
        cone = HyperCone(not_hyperbolic_polynomial(), (1, 0, 0))
        x = np.array([3.0, 1.0, 0.0])
        assert cones.contains_by_inequalities(cone, 0, x) is Membership.IN
        assert cones.contains_by_inequalities(cone, 0, x[None]) == [Membership.IN]

    def test_real_rooted_point_is_decided(self):
        cone = HyperCone(not_hyperbolic_polynomial(), (1, 0, 0))
        assert cones.membership_exact(cone, (1, 0, 0)) is Membership.IN
        assert cones.membership_exact(cone, (-1, 0, 0)) is Membership.OUT


class TestSharedCones:
    def test_memoised_direction_is_read_only(self):
        cone = gallery.orthant(4)
        with pytest.raises(ValueError):
            cone.e_float[0] = 2.0
        assert gallery.orthant(4).e_float.tolist() == [1.0] * 4


class TestDerivativeCone:
    def test_halfspace_at_top_order(self):
        dc = gallery.orthant(5).derivative_cone(4)
        from math import factorial

        assert dc.p == factorial(4) * elementary_symmetric(5, 1)
        # halfspace: sum of coordinates nonnegative
        assert cones.membership_exact(dc, (-3, 1, 1, 1, 1)) is Membership.IN
        assert cones.membership_exact(dc, (-5, 1, 1, 1, 1)) is Membership.OUT

    def test_first_relaxation_polynomial(self):
        dc = gallery.orthant(4).derivative_cone(1)
        assert dc.p == elementary_symmetric(4, 3)

    def test_order_zero_is_the_cone(self):
        cone = gallery.orthant(4)
        assert cone.derivative_cone(0) is cone
        assert cone.base is cone and cone.k == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gallery.orthant(4).derivative_cone(4)

    def test_nested_relaxation_composes(self):
        cone = gallery.orthant(5)
        assert cone.derivative_cone(1).derivative_cone(2).k == 3

    def test_nested_relaxation_is_cached(self):
        cone = gallery.orthant(5)
        chained = cone.derivative_cone(1).derivative_cone(2)
        assert chained is cone.derivative_cone(3)
        assert chained.base is cone
        assert chained.derivative_cone(0) is chained

    def test_relaxation_shares_base_tower(self):
        for base in (gallery.orthant(5), gallery.psd(3), gallery.l1_cone()):
            for k in range(1, base.d):
                dc = base.derivative_cone(k)
                assert isinstance(dc, HyperCone)
                assert dc.base is base and dc.k == k and dc.d == base.d - k
                assert len(dc.derivs) == dc.d + 1
                for j, q in enumerate(dc.derivs):
                    assert q is base.derivs[k + j]

    def test_relaxation_descriptor_roundtrip(self):
        for base in (gallery.orthant(4), gallery.psd(3)):
            for k in range(1, base.d):
                dc = base.derivative_cone(k)
                again = gallery.cone_from_descriptor(descriptor(dc))
                assert again.k == k and again.base is not again
                assert again.p == dc.p and again.e == dc.e

    def test_direction_interior_in_every_relaxation(self):
        for cone in (gallery.orthant(5), gallery.psd(3), gallery.l1_cone()):
            for k in range(cone.d):
                dc = cone.derivative_cone(k)
                spec = spectrum.eigenvalues(dc, cone.e)
                assert np.allclose(spec.eigenvalues, 1.0, atol=1e-9)
                assert cones.membership_exact(dc, cone.e) is Membership.IN


class TestInequalityRoute:
    def test_boundary_point_is_in_closed_cone(self):
        cone = gallery.orthant(4)
        assert cones.contains_by_inequalities(cone, 1, (-1, 3, 3, 3)) is Membership.IN

    def test_interior_point(self):
        cone = gallery.orthant(4)
        assert cones.contains_by_inequalities(cone, 1, (1, 1, 1, 1)) is Membership.IN

    def test_outside_point(self):
        cone = gallery.orthant(4)
        assert cones.contains_by_inequalities(cone, 1, (-5, 1, 1, 1)) is Membership.OUT

    def test_float_band_is_ambiguous(self):
        cone = gallery.orthant(4)
        x = np.array([-1.0, 3.0, 3.0, 3.0])  # third elementary symmetric = 0
        assert cones.contains_by_inequalities(cone, 1, x) is Membership.BOUNDARY

    def test_order_counts_from_a_relaxation(self):
        # the order is relative to the cone passed in, as for membership_exact
        dc = gallery.orthant(4).derivative_cone(1)
        x = (-1, 3, 3, 3)  # third elementary symmetric = 0
        assert cones.membership_exact(dc, x) is Membership.BOUNDARY
        assert cones.contains_by_inequalities(dc, 0, x) is Membership.IN
        # e2 = 9 and e1 = 7: inside the second relaxation, outside the first
        y = (-2, 3, 3, 3)
        assert cones.contains_by_inequalities(dc, 1, y) is Membership.IN
        assert cones.contains_by_inequalities(dc, 1, np.array(y, dtype=float)) is Membership.IN
        assert cones.contains_by_inequalities(dc, 0, y) is Membership.OUT
        with pytest.raises(ValueError):
            cones.contains_by_inequalities(dc, 3, y)

    def test_orders_compose(self):
        root = gallery.orthant(5)
        rng = np.random.default_rng(24)
        for j in (1, 2):
            dc = root.derivative_cone(j)
            for k in range(dc.d):
                for x in rng.standard_normal((50, 5)):
                    got = cones.contains_by_inequalities(dc, k, x)
                    assert got is cones.contains_by_inequalities(root, j + k, x)

    def test_nesting_along_k(self):
        # membership can only grow with the relaxation order
        cone = gallery.orthant(5)
        rng = np.random.default_rng(21)
        order = {Membership.OUT: 0, Membership.BOUNDARY: 1, Membership.IN: 2}
        for _ in range(500):
            x = tuple(F(int(v), 4) for v in rng.integers(-12, 13, size=5))
            levels = [
                order[cones.contains_by_inequalities(cone, k, x)] for k in range(5)
            ]
            assert levels == sorted(levels)


class TestBatchedEigenvalueRoute:
    def test_rows_get_their_own_verdicts(self):
        rows = np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, 3.0], [0.0, 2.0, 3.0]])
        assert cones.contains(gallery.orthant(3), rows) == [
            Membership.IN, Membership.OUT, Membership.BOUNDARY
        ]

    def test_one_non_real_rooted_row_rejects_the_stack(self):
        # x0^2 + x1^2 restricts to (t - x0)^2 + x1^2: roots x0 +- i x1
        cone = HyperCone(HomoPoly(2, 2, {(2, 0): 1, (0, 2): 1}), (1, 0))
        with pytest.raises(InconclusiveError):
            cones.contains(cone, np.array([[0.0, 1.0]]))
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InconclusiveError, match="row 1 "):
            cones.contains(cone, rows)
        assert cones.contains(cone, rows[[0, 2]]) == [Membership.IN] * 2

    def test_empty_array(self):
        assert cones.contains(gallery.psd(3), np.zeros((0, 6))) == []

    def test_to_level_places_rows(self):
        cone = gallery.psd(3)
        pts = np.random.default_rng(26).standard_normal((50, 6))
        for level in (0.25, 0.0, -0.5):
            moved = cones.to_level(cone, pts, level, cone.lambda_min(pts)[0])
            assert np.allclose(cone.lambda_min(moved)[0], level, atol=1e-9)

    def test_boundary_cloud_layout(self):
        cone = gallery.orthant(3)
        pts = cones.boundary_cloud(cone, np.random.default_rng(27), 40, 10, (0.5, 0.01))
        y = np.random.default_rng(27).standard_normal((40, 3))
        assert pts.shape == (80, 3) and np.array_equal(pts[:40], y)
        lam, _ = cone.lambda_min(pts[40:])
        want = np.repeat([0.5, -0.5, 0.01, -0.01], 10)
        assert np.allclose(lam, want, atol=1e-9)


class TestBatchedInequalityRoute:
    def test_earlier_band_hit_then_out(self):
        # order 0: x1 x2 x3 x4 = 0 sits in the band; order 1: e3 = -5 is Out
        cone = gallery.orthant(4)
        x = np.array([0.0, 1.0, 1.0, -5.0])
        assert cones.contains_by_inequalities(cone, 0, x) is Membership.OUT
        rows = np.array([[1.0, 1.0, 1.0, 1.0], x, [0.0, 1.0, 1.0, 1.0]])
        assert cones.contains_by_inequalities(cone, 0, rows) == [
            Membership.IN, Membership.OUT, Membership.BOUNDARY
        ]

    def test_empty_array(self):
        assert cones.contains_by_inequalities(gallery.psd(3), 1, np.zeros((0, 6))) == []

    def test_row_norms_match_linalg_norm(self):
        pts = np.random.default_rng(25).standard_normal((500, 6)) * 10.0 ** np.arange(-3, 3)
        want = np.array([np.linalg.norm(x) for x in pts])
        assert np.array_equal(cones.row_norms(pts), want)


ROUTE_PAIRS = [(cone_id, k) for cone_id, orders in suite.ROUTE_CONFIGS for k in orders]
WAVES = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def float_tier_pairs():
    """The cones and orders of the benchmark's float tier, read from
    perfbench/workloads.py as it stands."""
    [configs] = [
        ast.literal_eval(stmt.value) for stmt in ast.parse(WORKLOADS.read_text()).body
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets) == "FLOAT_CONFIGS"
    ]
    return [(cone_id, k) for cone_id, orders in configs for k in orders]


EVAL_PAIRS = sorted(set(ROUTE_PAIRS) | set(float_tier_pairs()))


@cache
def load_workloads():
    """perfbench/workloads.py as it stands, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def float_tier_mismatches(seed: int, index: int) -> tuple[int, list]:
    """(points, mismatches) of pass `index` of the benchmark's float tier
    at `seed`: a mismatch is a point whose one-point verdict is not the
    verdict of its row when its cloud is decided as one stack."""
    workloads = load_workloads()
    tol = workloads.MEMBER_TOL
    count, mismatches = 0, []
    for cloud in workloads.FloatTierWorkload(seed).inputs(index):
        stacked = cones.contains_by_inequalities(cloud.base, cloud.k, cloud.points, tol)
        for i, (x, want) in enumerate(zip(cloud.points, stacked)):
            if cones.contains_by_inequalities(cloud.base, cloud.k, x, tol) is not want:
                mismatches.append((cloud.view.label, i))
        count += len(stacked)
    return count, mismatches


def tower(pair):
    """The forms the derivative-sign route evaluates for one (cone, order)."""
    cone_id, k = pair
    target = gallery.parse_cone_id(cone_id).derivative_cone(k)
    return target.derivs[: target.d]


class TestOnePointFloatRoute:
    @pytest.mark.parametrize("pair", EVAL_PAIRS, ids=lambda p: f"{p[0]}^({p[1]})")
    def test_point_values_match_stack_rows(self, pair):
        forms = tower(pair)
        rng = np.random.default_rng(list(map(ord, pair[0])) + [pair[1]])
        y = rng.standard_normal((32, forms[0].nvars))
        pts = np.vstack([y * s for s in np.geomspace(1e-3, 1e3, 7)])
        for q in forms:
            assert [v.hex() for v in q.eval_float(pts).tolist()] == [
                q._eval_float_point(x.tolist()).hex() for x in pts
            ]

    @pytest.mark.parametrize("pair", EVAL_PAIRS, ids=lambda p: f"{p[0]}^({p[1]})")
    def test_point_norm_matches_row_norms(self, pair):
        # the one-point route takes its band's norm as sqrt(x @ x), the
        # stack as `row_norms`: the bands agree only if the norms do, bitwise
        cone_id, k = pair
        target = gallery.parse_cone_id(cone_id).derivative_cone(k)
        rng = np.random.default_rng(list(map(ord, cone_id)) + [k, 1])
        y = rng.standard_normal((256, target.nvars))
        lam, _ = target.lambda_min(y)
        pts = np.vstack([y * s for s in np.geomspace(1e-3, 1e3, 7)] + [
            cones.to_level(target, y, sign * m, lam) for m in WAVES for sign in (1.0, -1.0)
        ])
        assert [math.sqrt(x @ x).hex() for x in pts] == [
            v.hex() for v in cones.row_norms(pts).tolist()
        ]

    def test_pairs_reach_exponents_three_and_four(self):
        # powers above squares are where one rule for both evaluators matters
        exponents = {
            a for pair in EVAL_PAIRS for q in tower(pair)
            for _, factors in q._float_term_list() for _, a in factors
        }
        assert {3, 4} <= exponents

    @pytest.mark.parametrize("length", [5, 7])
    def test_one_point_of_wrong_length_rejected(self, length):
        with pytest.raises(ValueError, match="6 coordinates"):
            cones.contains_by_inequalities(gallery.psd(3), 1, np.ones(length))

    @pytest.mark.parametrize("bad", [
        [math.nan, 1.0, 1.0], [-math.inf, 1.0, 1.0], [1.0, math.inf, 1.0], [1e200, 1.0, 1.0],
    ], ids=str)
    def test_non_finite_point_rejected_by_both_routes(self, bad):
        # every comparison with nan is false: such a point once came back In
        cone = gallery.orthant(3)
        rows = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], bad])
        routes = (lambda pts: cones.contains_by_inequalities(cone, 0, pts),
                  lambda pts: cones.contains(cone, pts))
        # a norm that overflows also sets numpy's overflow flag
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"point \[.*\] has a non-finite"):
                cones.contains_by_inequalities(cone, 0, np.array(bad))
            for route in routes:
                with pytest.raises(ValueError, match="row 0 has a non-finite"):
                    route(np.array([bad]))
                with pytest.raises(ValueError, match="row 2 has a non-finite"):
                    route(rows)
        assert cones.contains_by_inequalities(cone, 0, rows[:2]) == [Membership.IN] * 2

    def test_float_tier_points_match_their_stack_rows(self):
        # every point of the benchmark's first float-tier pass at seed 0; CI
        # runs seeds 0-3, passes 0-1
        assert float_tier_mismatches(0, 0) == (20_480, [])

    @pytest.mark.parametrize("cone_id, k", [("orthant:4", 0), ("psd:3", 1)])
    def test_cone_pickles_after_one_point_verdicts(self, cone_id, k):
        # the compiled one-point evaluators are `exec`-defined functions,
        # which pickle cannot name: they stay out of the pickled state and
        # are compiled again on first use
        base = gallery.parse_cone_id(cone_id)
        pts = np.random.default_rng(47).standard_normal((16, base.nvars))
        want = [cones.contains_by_inequalities(base, k, x) for x in pts]
        form = base.derivs[1]
        assert form._float_point is not None
        again = pickle.loads(pickle.dumps(base))
        assert [cones.contains_by_inequalities(again, k, x) for x in pts] == want
        target = again.derivative_cone(k)
        for q in target.derivs[: target.d] + (pickle.loads(pickle.dumps(form)),):
            assert [q._eval_float_point(x.tolist()).hex() for x in pts] == [
                v.hex() for v in q.eval_float(pts).tolist()
            ]
        assert not again.e_float.flags.writeable

    def test_one_point_route_never_calls_eval_float(self, monkeypatch):
        base = gallery.psd(4)
        target = base.derivative_cone(1)
        y = np.random.default_rng(31).standard_normal((8, base.nvars))
        lam, _ = target.lambda_min(y)
        pts = np.vstack([y] + [cones.to_level(target, y, m, lam) for m in (0.5, 0.0, -0.5)])
        want = cones.contains_by_inequalities(base, 1, pts)
        assert set(want) == set(Membership)

        def refuse(self, points):
            raise RuntimeError("stacked evaluator called")

        monkeypatch.setattr(HomoPoly, "eval_float", refuse)
        assert [cones.contains_by_inequalities(base, 1, x) for x in pts] == want
        with pytest.raises(RuntimeError, match="stacked evaluator called"):
            cones.contains_by_inequalities(base, 1, pts)


if given is not None:

    class TestBatchedRouteProperty:
        @given(
            pair=st.sampled_from(ROUTE_PAIRS),
            seed=st.integers(0, 2**32 - 1),
            scale=st.floats(1e-3, 1e3),
        )
        @settings(max_examples=40, deadline=None)
        def test_rows_match_one_row_calls(self, pair, seed, scale):
            cone_id, k = pair
            base = gallery.parse_cone_id(cone_id)
            target = base.derivative_cone(k)
            y = np.random.default_rng(seed).standard_normal((16, target.nvars)) * scale
            lam, _ = target.lambda_min(y)
            pts = np.vstack([y] + [
                cones.to_level(target, y, sign * m * scale, lam)
                for m in WAVES for sign in (1.0, -1.0)
            ])
            batched = cones.contains_by_inequalities(base, k, pts)
            eig = cones.contains(target, pts)
            assert len(batched) == len(eig) == len(pts)
            for x, got, got_eig in zip(pts, batched, eig):
                assert got is cones.contains_by_inequalities(base, k, x)
                assert [got_eig] == cones.contains(target, x[None, :])
            # each order's value at a point has the bits of its stack row
            for q in target.derivs[: target.d]:
                assert [v.hex() for v in q.eval_float(pts).tolist()] == [
                    q._eval_float_point(x.tolist()).hex() for x in pts
                ]


class TestNesting:
    def test_relaxations_nest_on_random_points(self):
        # membership at order k-1 implies membership (or band) at order k
        rng = np.random.default_rng(23)
        for cone in (gallery.orthant(5), gallery.psd(3), gallery.l1_cone()):
            pts = rng.standard_normal((10_000, cone.nvars))
            prev_lam, prev_res = spectrum.batch_eigenvalues(cone, pts)
            for k in range(1, cone.d):
                dc = cone.derivative_cone(k)
                lam, res = spectrum.batch_eigenvalues(dc, pts)
                inside = prev_lam[:, -1] > 1e-8 + prev_res
                violating = inside & (lam[:, -1] < -(1e-8 + res))
                assert not violating.any()
                prev_lam, prev_res = lam, res


class TestRouteAgreement:
    def test_eigen_vs_inequality_outside_band(self):
        rng = np.random.default_rng(22)
        for cone_id, orders in (("orthant:4", (1, 2)), ("psd:3", (1,)), ("l1", (1,))):
            base = gallery.parse_cone_id(cone_id)
            pts = rng.standard_normal((2000, base.nvars))
            for k in orders:
                dc = base.derivative_cone(k)
                eigs, res = spectrum.batch_eigenvalues(dc, pts)
                lam = eigs[:, -1]
                for x, lm, rs in zip(pts, lam, res):
                    if abs(lm) <= 1e-8 + rs:
                        continue
                    ineq = cones.contains_by_inequalities(base, k, x)
                    if ineq is Membership.BOUNDARY:
                        continue
                    assert (ineq is Membership.IN) == (lm > 0)


class TestStrictContainment:
    def test_orthant_witnesses(self):
        cone = gallery.orthant(4)
        for k in (1, 2, 3):
            rep = cones.strict_containment_witness(cone, k)
            assert rep.holds
            x = rep.witness
            dc_out = cone.derivative_cone(k)
            dc_in = cone.derivative_cone(k - 1)
            assert cones.membership_exact(dc_out, x) is Membership.IN
            assert cones.membership_exact(dc_in, x) is Membership.OUT
            # certified at e + t * ray, with the reported margins read off
            # certified spectra there
            t, ray = rep.details["t"], rep.details["ray"]
            assert x == tuple(e + t * r for e, r in zip(cone.e, ray))
            assert rep.details["lambda_min_outer"] == spectrum.eigenvalues(dc_out, x).lambda_min
            assert rep.details["lambda_min_inner"] == spectrum.eigenvalues(dc_in, x).lambda_min
            assert rep.details["lambda_min_outer"] >= 10 * cones.MEMBERSHIP_TOL
            assert rep.details["lambda_min_inner"] <= -10 * cones.MEMBERSHIP_TOL

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            cones.strict_containment_witness(gallery.orthant(4), 0)

    def test_needs_rank_one_generated_flag(self):
        with pytest.raises(ValueError):
            cones.strict_containment_witness(gallery.l1_cone(), 1)

    def test_exhausted_budget_is_float_tier(self, monkeypatch):
        # no exact step decided it: no ray's candidate certified
        monkeypatch.setattr(cones, "certified_separation", lambda *args: None)
        rep = cones.strict_containment_witness(gallery.orthant(4), 1)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert "16 rays" in rep.details["reason"]
        assert rep.samples == 0
        assert rep.tier == "float"

    @pytest.mark.parametrize("cone_id, k", [("orthant:4", 1), ("orthant:5", 3), ("psd:4", 2)])
    def test_t_outside_the_exit_times_fails_certification(self, cone_id, k):
        # the witness t lies between the exit times -1/lambda_min(ray) of
        # relaxations k-1 and k; moved past both, or before both, the ray
        # point is outside both relaxations, or inside both, and the same
        # certification step rejects it
        cone = gallery.parse_cone_id(cone_id)
        inner, outer = cone.derivative_cone(k - 1), cone.derivative_cone(k)
        rep = cones.strict_containment_witness(cone, k)
        t, ray = rep.details["t"], rep.details["ray"]
        exits = [-1 / c.lambda_min(np.array([ray], dtype=float))[0][0] for c in (inner, outer)]
        assert exits[0] < t < exits[1]
        margin = rep.tolerances["margin"]
        for moved in (2 * F(exits[1]), F(exits[0]) / 2):
            x = tuple(e + moved * r for e, r in zip(cone.e, ray))
            assert cones.certified_separation(outer, x, inner, x, margin) is None
        x = tuple(e + t * r for e, r in zip(cone.e, ray))
        assert cones.certified_separation(outer, x, inner, x, margin) is not None

    def test_report_payload(self):
        rep = cones.strict_containment_witness(gallery.orthant(4), 1)
        data = rep.to_json_dict()
        assert data["verdict"] == "Holds"
        assert "witness" in data


class TestCertifiedSeparation:
    def test_every_step_must_pass(self):
        cone = gallery.orthant(3)
        dc = cone.derivative_cone(1)
        inside, outside = (1, 2, 3), (-1, 2, 3)
        assert cones.certified_separation(cone, inside, cone, outside, 1) == (1.0, -1.0)
        assert cones.certified_separation(cone, (2, 2, 3), cone, outside, F(3, 2)) is None
        assert cones.certified_separation(cone, inside, cone, (-2, 2, 3), F(3, 2)) is None
        assert cones.certified_separation(cone, (0, 2, 3), cone, outside, 0) is None
        assert cones.certified_separation(cone, inside, cone, inside, 0) is None
        # a boundary y is not outside the closed cone, even at margin 0
        assert cones.certified_separation(cone, inside, cone, (0, 2, 3), 0) is None
        # x and y may be judged against different cones: (-1, 2, 3) is in
        # the first relaxation (e2 = 1, e1 = 4) and outside the orthant
        lams = cones.certified_separation(dc, outside, cone, outside, F(1, 10))
        assert lams == (spectrum.eigenvalues(dc, outside).lambda_min, -1.0)


class TestConeValidation:
    def test_nonpositive_direction_value_rejected(self):
        p = HomoPoly(2, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            HyperCone(p, (1, -1))

    def test_constant_polynomial_rejected(self):
        p = HomoPoly(2, 0, {(0, 0): 3})
        with pytest.raises(ValueError, match="degree at least 1"):
            HyperCone(p, (1, 0))

    def test_dimension_mismatch(self):
        p = HomoPoly(2, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            HyperCone(p, (1, 1, 1))

    def test_descriptor_json(self):
        # the documented descriptor format, written by hand
        data = {"label": "orthant:3", "e": ["1", "1", "1"], "k": 1,
                "polynomial": {"nvars": 3, "degree": 3,
                               "terms": [{"exp": [1, 1, 1], "num": "1", "den": "1"}]}}
        dc = gallery.cone_from_descriptor(data)
        assert dc.label == "orthant:3^(1)" and dc.k == 1
        assert dc.base.label == "orthant:3" and dc.base.p == gallery.orthant(3).p
