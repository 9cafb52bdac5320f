"""Root extraction, spectra and rank classification."""

from fractions import Fraction as F

import numpy as np
import pytest

from hypercones import gallery, spectrum
from hypercones.autgroup import LinearMap
from hypercones.cones import HyperCone
from hypercones.poly import HomoPoly
from hypercones.report import InconclusiveError

from test_poly import int_form, root_count_with_mult


class TestRealRoots:
    def test_pure_power(self):
        roots, residual = spectrum.real_roots((0, 0, 0, 1))
        assert roots == (0.0, 0.0, 0.0)
        assert residual == 0.0

    def test_constructed_factorization(self):
        # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
        roots, residual = spectrum.real_roots((-6, 11, -6, 1))
        assert np.allclose(roots, (3, 2, 1), atol=1e-12)
        assert residual <= 1e-12

    def test_quadratic(self):
        roots, _ = spectrum.real_roots((-1, 0, 1))
        assert np.allclose(roots, (1, -1), atol=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            spectrum.real_roots(())

    def test_repeated_roots_exactly_resolved(self):
        # (t-1)^4: naive companion roots scatter by ~1e-4, the square-free
        # split recovers them exactly
        roots, residual = spectrum.real_roots((1, -4, 6, -4, 1))
        assert roots == (1.0, 1.0, 1.0, 1.0)
        assert residual <= 1e-12


class TestCertifiedRoots:
    @pytest.mark.parametrize("j", [20, 30, 40])
    def test_clustered_orthant_point(self, j):
        eps = F(1, 2**j)
        lam = (F(3), 1 + 2 * eps, 1 + eps, F(1))
        spec = spectrum.eigenvalues(gallery.orthant(4), (1, 1 + eps, 1 + 2 * eps, 3))
        for got, want in zip(spec.eigenvalues, lam):
            assert abs(F(got) - want) <= F(1, 10**12)
            assert abs(F(got) - want) <= F(spec.residual)
        assert spec.residual <= 1e-15

    def test_complex_pair_near_the_axis_refuted(self):
        # 1 +- 1e-10 i: the float seeds see a double root at 1, the Sturm
        # chain sees no real root at all
        with pytest.raises(InconclusiveError, match="not real-rooted"):
            spectrum.real_roots(int_form([1 + F(1, 10**20), -2, 1]))

    def test_residual_encloses_irrational_roots(self):
        roots, residual = spectrum.real_roots((-2, 0, 1))
        assert 0 < residual <= 2 * np.spacing(1.5)
        for r in roots:
            lo, hi = F(r) - F(residual), F(r) + F(residual)
            assert (lo * lo - 2) * (hi * hi - 2) < 0

    def test_exact_rank_below_zero_tol(self):
        cone = gallery.orthant(3)
        x = (1, F(1, 10**9), 0)
        spec = spectrum.eigenvalues(cone, x)
        assert spec.rank == 2 == spectrum.rank_exact(cone, x, sturm_verify=True)
        assert spec.mult == 1 and spec.eigenvalues[1] == 1e-9

    @pytest.mark.parametrize("a, gap", [(F(1), F(1, 2**60)), (F(1, 3), F(1, 2**70))])
    def test_roots_closer_than_an_ulp(self, a, gap):
        # distinct roots that no float separates still come back enclosed
        b = a + gap
        roots, residual = spectrum.real_roots(int_form([a * b, -(a + b), 1]))
        assert residual <= 2 * np.spacing(float(a))
        for got, want in zip(roots, (b, a)):
            assert abs(F(got) - want) <= F(residual)


class TestBeyondFloatRange:
    def test_eigenvalue_beyond_float_range_is_inconclusive(self):
        with pytest.raises(InconclusiveError, match="float range"):
            spectrum.eigenvalues(gallery.orthant(3), (10**400, 1, 2))

    def test_root_beyond_float_range_is_inconclusive(self):
        with pytest.raises(InconclusiveError, match="float range"):
            spectrum.real_roots((-(10**400), 1))

    def test_overflowing_seed_step_is_silent(self):
        # the float seeding's Newton step overflows at 1e200; the certified
        # roots do not depend on it
        spec = spectrum.eigenvalues(gallery.orthant(3), (10**200, 1, 2))
        assert spec.eigenvalues[1:] == (2.0, 1.0)
        assert abs(F(spec.eigenvalues[0]) - 10**200) <= F(spec.residual)
        assert spec.residual <= 2 * np.spacing(1e200)

    def test_coefficients_beyond_float_range_roots_inside(self):
        # the constant coefficient 5e600 has no float, the roots do
        x = (10**300, 10**300 + 1, 5)
        spec = spectrum.eigenvalues(gallery.orthant(3), x)
        for got, want in zip(spec.eigenvalues, sorted(x, reverse=True)):
            assert abs(F(got) - want) <= F(spec.residual)
        assert spec.residual <= 2 * np.spacing(1e300)


class TestFloatKernel:
    def test_single_point_matches_batch_row(self):
        # rows are independent: a one-row batch and the same row of a
        # stacked batch agree to the bit
        rng = np.random.default_rng(16)
        for cone in (
            gallery.orthant(4),
            gallery.psd(3),
            gallery.soc(3),
            gallery.l1_cone(),
            gallery.orthant(5).derivative_cone(2),
        ):
            pts = rng.standard_normal((20, cone.nvars))
            eigs, residuals = spectrum.batch_eigenvalues(cone, pts)
            for i, x in enumerate(pts):
                one_eigs, one_residuals = spectrum.batch_eigenvalues(cone, x[None])
                assert one_eigs[0].tolist() == eigs[i].tolist()
                assert one_residuals[0] == residuals[i]

    def test_float_point_has_no_certified_spectrum(self):
        with pytest.raises(TypeError, match="rational point"):
            spectrum.eigenvalues(gallery.orthant(3), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TypeError, match="rational point"):
            spectrum.eigenvalues(gallery.orthant(3), (1, 2.5, 3))

    def test_zero_coordinate_gives_exact_zero(self):
        cone = gallery.orthant(4)
        eigs, residuals = spectrum.batch_eigenvalues(
            cone, np.array([[1.0, 2.0, 3.0, 0.0], [1.0, 0.0, 3.0, 0.0]])
        )
        assert eigs.tolist() == [[3.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 0.0]]
        assert residuals.tolist() == [0.0, 0.0]
        assert spectrum.rank(cone, np.array([[1.0, 2.0, 3.0, 0.0]])) == [3]

    def test_distinct_integer_roots_recovered(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True))
        def check(roots):
            # the eigenvalues of x in the orthant are its coordinates
            cone = gallery.orthant(len(roots))
            eigs, residuals = spectrum.batch_eigenvalues(cone, np.array([roots], dtype=float))
            want = sorted(roots, reverse=True)
            assert residuals[0] <= 1e-8 and len(eigs[0]) == len(want)
            for g, r in zip(eigs[0], want):
                assert abs(g - r) <= 1e-9 * (1 + abs(r))

        check()


class TestEigenvalues:
    def test_weighted_product_rank_two_point(self):
        cone = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1))
        spec = spectrum.eigenvalues(cone, (1, 0, 0))
        assert spec.eigenvalues == (1.0, 1.0, 0.0, 0.0)
        assert spec.rank == 2 and spec.mult == 2

    def test_weighted_product_rank_one_point(self):
        cone = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1))
        spec = spectrum.eigenvalues(cone, (0, 1, 0))
        assert spec.eigenvalues == (1.0, 0.0, 0.0, 0.0)
        assert spec.rank == 1

    def test_orthant_eigenvalues_are_sorted_coordinates(self):
        cone = gallery.orthant(5)
        rng = np.random.default_rng(11)
        pts = np.round(rng.standard_normal((10_000, 5)) * 2**16) / 2**16
        worst = 0.0
        for row in pts:
            spec = spectrum.eigenvalues(cone, [F(v) for v in row])
            want = np.sort(row)[::-1]
            worst = max(worst, float(np.abs(np.array(spec.eigenvalues) - want).max()))
        assert worst < 1e-10

    def test_invariant_rank_plus_mult(self):
        cone = gallery.psd(3)
        rng = np.random.default_rng(12)
        for _ in range(25):
            raw = rng.integers(-4, 5, size=(3, 3))
            sym = tuple(
                tuple(F(int(raw[i][j] + raw[j][i]), 2) for j in range(3))
                for i in range(3)
            )
            spec = spectrum.eigenvalues(cone, gallery.svec(sym))
            assert spec.rank + spec.mult == cone.d


class TestRankMult:
    def test_orthant_counts(self):
        cone = gallery.orthant(3)
        assert spectrum.rank_exact(cone, (1, 1, 0)) == 2
        assert spectrum.eigenvalues(cone, (1, 1, 0)).mult == 1
        assert spectrum.rank(cone, np.array([[1.0, 1.0, 0.0]])) == [2]

    def test_psd_rank_one(self):
        cone = gallery.psd(3)
        u = (F(1), F(-2), F(3))
        vec = gallery.svec(tuple(tuple(a * b for b in u) for a in u))
        assert spectrum.rank_exact(cone, vec) == 1
        assert spectrum.rank(cone, np.array([[float(v) for v in vec]])) == [1]

    def test_ambiguous_band_is_unclassified(self):
        cone = gallery.orthant(3)
        assert spectrum.rank(cone, np.array([[1.0, 1.0, 2e-7]])) == [None]
        # a float stack is the only shape rank takes
        for one_point in (np.array([1.0, 1.0, 2e-7]), (1, 1, 0)):
            with pytest.raises(ValueError, match="stack"):
                spectrum.rank(cone, one_point)

    def test_zero_rule_of_an_eigenvalue_stack(self):
        eigs = np.array([[6.7, 1.6e-6, -3.86], [1.0, 2e-7, 0.0], [1.0, 1e-8, -1.0]])
        ranks, ambiguous = spectrum.zero_rule(eigs)
        assert ranks.tolist() == [3, 2, 2]
        assert ambiguous.tolist() == [False, True, False]

    def test_stacked_rank_matches_one_row_calls(self):
        cone = gallery.orthant(3)
        rng = np.random.default_rng(17)
        pts = np.vstack([
            [[1.0, 1.0, 1.0],   # triple root: residual over the gate
             [1.0, 1.0, 2e-7],  # eigenvalue inside the ambiguous band
             [1.0, 2.0, 0.0],
             [1.0, 0.0, 0.0]],
            rng.standard_normal((12, 3)),
        ])
        assert spectrum.batch_eigenvalues(cone, pts[:1])[1][0] > spectrum.RESIDUAL_GATE
        ranks = spectrum.rank(cone, pts)
        assert ranks[:4] == [None, None, 2, 1] and ranks[4:] == [3] * 12
        assert ranks == [spectrum.rank(cone, x[None, :])[0] for x in pts]

    def test_exact_rank_ignores_band(self):
        cone = gallery.orthant(3)
        assert spectrum.rank_exact(cone, (1, 1, F(1, 5_000_000))) == 3

    def test_sturm_verified_rank(self):
        cone = gallery.psd(4)
        u = (F(1), F(0), F(-1), F(2))
        v = (F(0), F(1), F(1), F(1))
        outer = tuple(
            tuple(a * b + c * d for b, d in zip(u, v)) for a, c in zip(u, v)
        )
        assert spectrum.rank_exact(cone, gallery.svec(outer), sturm_verify=True) == 2


class TestRankProperties:
    def test_subadditive_on_cone_points(self):
        cone = gallery.orthant(4)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            x = [F(int(v), 4) for v in rng.integers(0, 9, size=4)]
            y = [F(int(v), 4) for v in rng.integers(0, 9, size=4)]
            s = tuple(a + b for a, b in zip(x, y))
            r = spectrum.rank_exact(cone, s)
            assert r <= spectrum.rank_exact(cone, tuple(x)) + spectrum.rank_exact(
                cone, tuple(y)
            )

    def test_rank_preserved_by_certified_automorphisms(self):
        from hypercones import autgroup

        cone = gallery.orthant(4)
        rng = np.random.default_rng(14)
        for trial in range(20):
            scalings = [F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
                        for _ in range(4)]
            perm = [int(v) for v in rng.permutation(4)]
            cand = LinearMap.scaled_permutation(scalings, perm)
            assert autgroup.check_automorphism(cone, cand).holds
            for _ in range(50):
                x = tuple(
                    F(int(v), 4) if keep else F(0)
                    for v, keep in zip(
                        rng.integers(1, 9, size=4), rng.integers(0, 2, size=4)
                    )
                )
                assert spectrum.rank_exact(cone, cand.apply(x)) == spectrum.rank_exact(
                    cone, x
                )

    def test_sturm_vs_companion_root_multisets(self):
        cones_to_try = [
            gallery.orthant(4),
            gallery.psd(3),
            gallery.soc(3),
            gallery.l1_cone(),
        ]
        rng = np.random.default_rng(15)
        for cone in cones_to_try:
            for _ in range(40):
                x = tuple(F(int(v), 8) for v in rng.integers(-24, 25, size=cone.nvars))
                q = cone.restrict(x)
                roots, residual = spectrum.real_roots(q)
                assert residual <= 1e-8
                positive = sum(1 for r in roots if r > 1e-9)
                assert positive == root_count_with_mult(q, F(1, 10**9), None)
