"""Root extraction, spectra and rank classification."""

import json
from fractions import Fraction as F
from math import nextafter

import numpy as np
import pytest

from hypercones import exactlin, gallery, poly, spectrum, suite
from hypercones.autgroup import LinearMap
from hypercones.cones import HyperCone
from hypercones.poly import HomoPoly
from hypercones.report import InconclusiveError

from test_autgroup import cayley_orthogonal
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


def assert_encloses_sympy_roots(f, roots, residual):
    """Each certified root lies within the residual of its sympy root."""
    sympy = pytest.importorskip("sympy")
    exact = sympy.Poly(list(reversed(f)), sympy.Symbol("t")).real_roots()
    assert len(exact) == len(roots) == len(f) - 1
    slack = sympy.Rational(1, 10**40)
    for got, want in zip(roots, reversed(exact)):
        err = abs(sympy.Rational(F(got).numerator, F(got).denominator) - want)
        assert err.evalf(60) <= sympy.Float(residual, 60) + slack


class TestSpectra:
    def test_empty_list(self):
        assert spectrum.spectra(gallery.orthant(3), []) == []

    def test_each_spectrum_equals_its_one_point_call(self):
        rng = np.random.default_rng(18)
        eps = F(1, 2**40)
        for cone in (gallery.orthant(4), gallery.psd(3), gallery.soc(3), gallery.l1_cone()):
            xs = [tuple(F(int(v), 8) for v in rng.integers(-24, 25, size=cone.nvars))
                  for _ in range(30)]
            xs += [cone.e, (0,) * cone.nvars, (1,) + (0,) * (cone.nvars - 1)]
            if cone.nvars == 4:
                xs += [(1, 1 + eps, 1 + 2 * eps, 3), (1, 1, 2, 3)]
            assert spectrum.spectra(cone, xs) == [spectrum.eigenvalues(cone, x) for x in xs]

    def test_float_row_is_rejected(self):
        with pytest.raises(TypeError, match="rational point"):
            spectrum.spectra(gallery.orthant(3), [(1, 2, 3), (1.0, 2.0, 3.0)])

    def test_row_beyond_float_range_is_inconclusive(self):
        # its seeds overflow and are dropped; the certified check still decides
        with pytest.raises(InconclusiveError) as info:
            spectrum.spectra(gallery.orthant(3), [(1, 2, 3), (10**400, 1, 2)])
        assert str(info.value) == spectrum.OUTSIDE_FLOAT_RANGE

    def test_complex_roots_refuted(self):
        with pytest.raises(InconclusiveError) as info:
            spectrum.real_roots((1, 0, 1))
        assert str(info.value) == spectrum.NOT_REAL_ROOTED


class TestIsolationBranches:
    """Sign alternation at the seed cuts certifies simple roots; a
    square-free polynomial that does not alternate is re-seeded by exact
    Taylor shifts, and only what still does not alternate takes the Sturm
    counts."""

    @pytest.fixture
    def interior_counts(self, monkeypatch):
        cuts = []
        count = spectrum.sign_variations

        def recording(chain, t):
            if abs(t) < spectrum.FLOAT_MAX:
                cuts.append(t)
            return count(chain, t)

        monkeypatch.setattr(spectrum, "sign_variations", recording)
        return cuts

    @pytest.fixture
    def reseeded(self, monkeypatch):
        """The polynomials handed to `_shifted_seeds`, one entry a round."""
        polys = []
        shift = spectrum._shifted_seeds
        monkeypatch.setattr(spectrum, "_shifted_seeds",
                            lambda f, seeds: polys.append(f) or shift(f, seeds))
        return polys

    def test_separated_roots_take_no_sturm_count(self, interior_counts):
        cone = gallery.orthant(4)
        # (1, 1, 2, 3): Yun's split leaves two factors with separated roots
        for x in [(1, 2, 3, 4), (-3, F(1, 2), 7, 2), (1, 1, 2, 3)]:
            spec = spectrum.eigenvalues(cone, x)
            assert interior_counts == []
            assert_encloses_sympy_roots(cone.restrict(x), spec.eigenvalues, spec.residual)

    @pytest.mark.parametrize("x", [
        (1, 1 + F(1, 2**40), 1 + F(1, 2**39), 3),
        (1, 1, 1 + F(1, 2**40), 1 + F(1, 2**40)),  # its repeated factor is clustered
    ])
    def test_clustered_roots_take_no_sturm_count(self, interior_counts, reseeded, x):
        # the unpolished seeds cannot separate roots 2^12 ulp apart; the
        # seeds of the shifted polynomials do, and the cuts between them
        # alternate
        cone = gallery.orthant(4)
        spec = spectrum.eigenvalues(cone, x)
        assert interior_counts == []
        assert 1 <= len(reseeded) <= spectrum.RESEED_ROUNDS
        assert_encloses_sympy_roots(cone.restrict(x), spec.eigenvalues, spec.residual)

    def test_roots_a_few_ulps_apart_take_sturm_counts(self, interior_counts, reseeded):
        # roots 4 ulp apart leave too little room for the float seeds of
        # any shift: every round fails, and the Sturm counts isolate them
        eps = F(1, 2**50)
        x = (1, 1 + eps, 1 + 2 * eps, 3)
        cone = gallery.orthant(4)
        spec = spectrum.eigenvalues(cone, x)
        assert interior_counts
        assert len(reseeded) == spectrum.RESEED_ROUNDS
        assert_encloses_sympy_roots(cone.restrict(x), spec.eigenvalues, spec.residual)
        assert spec.eigenvalues == (3.0, float(1 + 2 * eps), float(1 + eps), 1.0)

    @pytest.mark.parametrize("x", [
        (1, 1, 2, 3),
        (2, 2, 2, 5),
        (1, 1, 1 + F(1, 2**40), 1 + F(1, 2**40)),
        (F(1, 3), F(1, 3), F(1, 3) + F(1, 2**30), 0),
    ])
    def test_repeated_tail_never_reaches_the_reseed(self, reseeded, x):
        # the re-seeding runs on square-free polynomials only: a tail with
        # a repeated root goes to Yun's split first, and at most its
        # clustered factors are re-seeded
        cone = gallery.orthant(4)
        spec = spectrum.eigenvalues(cone, x)
        tail = cone.restrict(x)[spec.mult:]
        assert tail not in reseeded
        assert all([mult for _, mult in poly.factor_chains(f)] == [1] for f in reseeded)
        assert_encloses_sympy_roots(cone.restrict(x), spec.eigenvalues, spec.residual)

    @pytest.mark.parametrize("proposal", [
        # the cut between the first two seeds falls exactly on the root 2,
        # with f < 0 at the cuts on both sides of it
        [3.0 - 2**-51, 2.0 + 2**-51, 2.0 - 2**-52],
        # both cuts fall between the roots 1 and 2
        [1.7, 1.6, 1.4],
    ])
    def test_misleading_seeds_do_not_move_the_roots(self, monkeypatch, proposal):
        # seeds only propose cuts: a zero sign or a missed sign change at a
        # cut must reject the alternation, and the square-free f goes on
        # to the re-seeding rounds and, failing those, the Sturm counts
        f = (-6, 11, -6, 1)  # (t - 1)(t - 2)(t - 3)
        monkeypatch.setattr(spectrum, "_float_seeds", lambda fs: [
            sorted(spectrum._ordinal(v) for v in proposal) for _ in fs])
        roots, residual = spectrum.real_roots(f)
        assert_encloses_sympy_roots(f, roots, residual)


REAL_SEEDS = spectrum._float_seeds


def perturbed_seeds(how):
    """A stand-in for `spectrum._float_seeds` that moves its proposals: an
    int shifts every seed by that many ordinals, "zigzag" shifts seed i by
    +-(1 + i % 8) ordinals, "drop" drops each polynomial's first seed and
    "none" proposes nothing."""
    def seeds(fs):
        out = REAL_SEEDS(fs)
        if how == "none":
            return [[] for _ in out]
        if how == "drop":
            return [s[1:] for s in out]
        if how == "zigzag":
            return [sorted(v + (-1) ** i * (1 + i % 8) for i, v in enumerate(s)) for s in out]
        return [[v + how for v in s] for s in out]
    return seeds


def suite_json_with_seed_shift(name_filter: str, seed: int, shift: int) -> str:
    """The suite JSON of the checks matching `name_filter` at `seed`, with
    every float seed of the certified spectra shifted by `shift` ordinals."""
    saved = spectrum._float_seeds
    spectrum._float_seeds = perturbed_seeds(shift)
    try:
        return json.dumps(suite.run_suite(seed=seed, name_filter=name_filter).to_json_dict())
    finally:
        spectrum._float_seeds = saved


def seed_test_points():
    """(cone, rational points) pairs: psd:4 Cayley points Q diag(lam) Q^T
    with repeated and zero lam, orthant points with repeats and zeros,
    clusters at 2^-20 .. 2^-40, and the points of
    `test_each_spectrum_equals_its_one_point_call`."""
    rng = np.random.default_rng(36)
    psd4 = []
    for i in range(8):
        lam = [F(int(v), 3) for v in rng.integers(-9, 10, size=4)]
        lam[1] = lam[0]
        if i % 2:
            lam[2] = F(0)
        q = cayley_orthogonal(rng, 4).rows
        psd4.append(gallery.svec(exactlin.matmul(exactlin.matmul(q, exactlin.diag(lam)),
                                                 exactlin.transpose(q))))
    sets = [(gallery.psd(4), psd4)]
    for n in (5, 6):
        pts = [tuple(F(int(v), 2) for v in rng.integers(-4, 5, size=n)) for _ in range(12)]
        sets.append((gallery.orthant(n), pts + [(0,) * (n - 2) + (1, 1), (2,) * n]))
    clusters = [(1, 1 + F(1, 2**j), 1 + F(2, 2**j), 3) for j in range(20, 41, 4)]
    sets.append((gallery.orthant(4), clusters))
    rng = np.random.default_rng(18)
    eps = F(1, 2**40)
    for cone in (gallery.orthant(4), gallery.psd(3), gallery.soc(3), gallery.l1_cone()):
        xs = [tuple(F(int(v), 8) for v in rng.integers(-24, 25, size=cone.nvars))
              for _ in range(30)]
        xs += [cone.e, (0,) * cone.nvars, (1,) + (0,) * (cone.nvars - 1)]
        if cone.nvars == 4:
            xs += [(1, 1 + eps, 1 + 2 * eps, 3), (1, 1, 2, 3)]
        sets.append((cone, xs))
    return sets


class TestSeedIndependence:
    """Every root ends on its one-ulp float cell, so the float seeds move
    the work, never the result."""

    @pytest.fixture(scope="class")
    def points(self):
        sets = seed_test_points()
        return [(cone, xs, spectrum.spectra(cone, xs)) for cone, xs in sets]

    @pytest.mark.parametrize("how", [1, -1, 8, -8, "zigzag", "drop", "none"])
    def test_moved_seeds_give_identical_spectra(self, monkeypatch, points, how):
        monkeypatch.setattr(spectrum, "_float_seeds", perturbed_seeds(how))
        for cone, xs, want in points:
            assert spectrum.spectra(cone, xs) == want

    def test_each_eigenvalue_is_the_least_float_above_its_root(self, points):
        # on a square-free restriction f, f changes sign between the float
        # below each eigenvalue and the eigenvalue, or vanishes there
        checked = 0
        for cone, xs, specs in points:
            for x, spec in zip(xs, specs):
                f = cone.restrict(x)
                if [mult for _, mult in poly.factor_chains(f)] != [1]:
                    continue
                checked += 1
                for lam in spec.eigenvalues:
                    below = nextafter(lam, -np.inf)
                    assert poly.sign_at(f, lam) == 0 or \
                        poly.sign_at(f, below) * poly.sign_at(f, lam) < 0
                exact = all(poly.sign_at(f, lam) == 0 for lam in spec.eigenvalues)
                assert (spec.residual == 0.0) == exact
        assert checked > 100

    def test_repeated_tail_with_alternating_factors_takes_no_sturm_count(self, monkeypatch):
        # (t^2 - 2)^2 (t - 3): the tail does not alternate, so it takes
        # Yun's split, and each factor alternates at its own seed cuts
        counts, splits = [], []
        monkeypatch.setattr(spectrum, "sign_variations",
                            lambda chain, t: counts.append(t) or poly.sign_variations(chain, t))
        monkeypatch.setattr(spectrum, "factor_chains",
                            lambda f: splits.append(f) or poly.factor_chains(f))
        f = (-12, 4, 12, -4, -3, 1)
        roots, residual = spectrum.real_roots(f)
        assert counts == [] and splits == [f]
        # r is the least float above sqrt(2), and -sqrt(2) lies in the cell
        # (-r, -r + 1 ulp]
        r = 2**0.5 if F(2**0.5) ** 2 > 2 else nextafter(2**0.5, 3)
        assert roots == (3.0, r, r, -nextafter(r, 0), -nextafter(r, 0))
        assert residual == r - nextafter(r, 0)


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
        specs = spectrum.spectra(cone, [[F(v) for v in row] for row in pts])
        got = np.array([spec.eigenvalues for spec in specs])
        assert np.abs(got - np.sort(pts, axis=1)[:, ::-1]).max() < 1e-10

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
