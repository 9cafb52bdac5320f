"""Exact polynomial arithmetic: examples and cross-check oracles."""

import itertools
import json
import warnings
from fractions import Fraction as F
from math import comb, factorial, gcd, lcm

import numpy as np
import pytest

from hypercones.poly import (
    HomoPoly,
    as_vector,
    derivatives_along,
    factor_chains,
    is_exact_vector,
    is_real_rooted,
    polar_form_float,
    real_root_count_with_mult,
    restrict_line,
    scaling_mismatch,
    sign_variations,
    simplex_lattice,
    squarefree_factors,
)
from hypercones.poly import _eval_columns, _sturm_chain
from hypercones import autgroup, exactlin, gallery, poly
from hypercones.autgroup import LinearMap
from hypercones.gallery import elementary_symmetric, l1_cone


def restrict_line_naive(p: HomoPoly, e, x) -> list[F]:
    """Substitute x_i -> e_i*t - x_i and expand: the oracle for restrict_line,
    as ascending Fraction coefficients."""
    e = as_vector(e)
    x = as_vector(x)
    d = p.degree
    acc = [F(0)] * (d + 1)
    for exp, c in p.terms.items():
        conv = [c]
        for ei, xi, a in zip(e, x, exp):
            for _ in range(a):
                # multiply the running univariate by (ei*t - xi)
                nxt = [F(0)] * (len(conv) + 1)
                for j, v in enumerate(conv):
                    nxt[j] += v * (-xi)
                    nxt[j + 1] += v * ei
                conv = nxt
        for j, v in enumerate(conv):
            acc[j] += v
    return acc


def int_form(coeffs) -> tuple[int, ...]:
    """Primitive integer multiple (positive factor) of ascending rational
    coefficients, trailing zeros trimmed: the oracle for restrict_line."""
    coeffs = [F(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def evaluate(coeffs, t) -> F:
    """Ascending coefficients evaluated at t, by Horner."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def positive_factor(f, coeffs) -> F:
    """The c > 0 with f = c * coeffs (both ascending), asserted to exist."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert len(f) == len(coeffs)
    c = F(f[-1]) / coeffs[-1]
    assert c > 0 and all(a == c * b for a, b in zip(f, coeffs))
    return c


def polar_form(p: HomoPoly, xs) -> F:
    """Exact polarization sum over nonempty subsets S of the d arguments,
    (1/d!) * sum (-1)^(d-|S|) p(sum of xs in S): the oracle for
    polar_form_float."""
    d = p.degree
    total = F(0)
    for size in range(1, d + 1):
        for subset in itertools.combinations(xs, size):
            point = tuple(sum(col, F(0)) for col in zip(*map(as_vector, subset)))
            total += (-1) ** (d - size) * p.eval(point)
    return total / factorial(d)


def chain_count(chain, lo=None, hi=None) -> int:
    """Distinct real roots in (lo, hi] counted by a Sturm chain; None
    bounds mean -inf and +inf.  Neither bound may be a multiple root of
    chain[0]."""
    a = -float("inf") if lo is None else F(lo)
    b = float("inf") if hi is None else F(hi)
    return sign_variations(chain, a) - sign_variations(chain, b)


def sturm_count_distinct(f, lo=None, hi=None) -> int:
    """Distinct real roots of an ascending integer polynomial f in (lo, hi]."""
    return chain_count(_sturm_chain(f), lo, hi)


def root_count_with_mult(f, lo=None, hi=None) -> int:
    """Real roots of f in (lo, hi] counted with multiplicity: the bounded
    oracle next to the library's unbounded real_root_count_with_mult."""
    return sum(mult * chain_count(chain, lo, hi) for chain, mult in factor_chains(f))


def vars3():
    return [HomoPoly.variable(i, 3) for i in range(3)]


def x1x2x3():
    return HomoPoly(3, 3, {(1, 1, 1): 1})


def restrict_line_warned(p: HomoPoly, e, x) -> tuple[int, ...]:
    """restrict_line, asserting that it warns exactly when p(e) = 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = restrict_line(p, e, x)
    assert [str(w.message) for w in caught] == (
        ["restriction has zero leading coefficient: p(e) = 0"] if p.eval(e) == 0 else []
    )
    return q


def rand_vec(rng, n, den=8):
    return tuple(F(int(v), den) for v in rng.integers(-3 * den, 3 * den + 1, size=n))


class TestEval:
    def test_product_of_ones(self):
        assert x1x2x3().eval((1, 1, 1)) == 1

    def test_zero_factor(self):
        p = HomoPoly(3, 4, {(2, 1, 1): 1})
        assert p.eval((1, 0, 0)) == 0

    def test_l1_quartic_at_direction(self):
        # product of the four linear factors, each equal to 1 at (0,0,1)
        assert l1_cone().p.eval((0, 0, 1)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            x1x2x3().eval((1, 2))

    def test_eval_float_matches_exact(self):
        rng = np.random.default_rng(0)
        p = l1_cone().p
        xs = [rand_vec(rng, 3) for _ in range(50)]
        got = p.eval_float(np.array([[float(v) for v in x] for x in xs]))
        assert got.shape == (50,)
        for value, x in zip(got.tolist(), xs):
            assert value == pytest.approx(float(p.eval(x)), rel=1e-12, abs=1e-12)

    def test_eval_float_takes_stacks_only(self):
        p = l1_cone().p
        pts = np.random.default_rng(1).standard_normal((20, 3))
        stacked = p.eval_float(pts)
        # row i of a stack has the bits of the same row as a one-row stack
        assert [v.hex() for v in stacked.tolist()] == [
            p.eval_float(x[None, :])[0].hex() for x in pts
        ]
        assert p.eval_float(np.zeros((0, 3))).shape == (0,)
        for bad in (pts[0], pts[:, :2], pts[None]):
            with pytest.raises(ValueError, match="stack"):
                p.eval_float(bad)


class TestDirDeriv:
    def test_first_derivative_is_elementary_symmetric(self):
        assert derivatives_along(x1x2x3(), (1, 1, 1))[1] == elementary_symmetric(3, 2)

    def test_l1_first_derivative(self):
        cone = l1_cone()
        x1, x2, x3 = vars3()
        assert derivatives_along(cone.p, cone.e)[1] == 4 * (x3 * (x3 * x3 - x1 * x1 - x2 * x2))

    def test_l1_second_derivative(self):
        cone = l1_cone()
        x1, x2, x3 = vars3()
        assert derivatives_along(cone.p, cone.e)[2] == 4 * (3 * (x3 * x3) - x1 * x1 - x2 * x2)

    def test_order_zero_is_identity(self):
        p = x1x2x3()
        assert derivatives_along(p, (1, 2, 3))[0] == p

    def test_wrong_dimension_direction(self):
        with pytest.raises(ValueError, match="dimension"):
            derivatives_along(x1x2x3(), (1, 1))

    def test_iterated_steps_compose(self):
        # the tower of tower[j] is tower[j:]
        rng = np.random.default_rng(1)
        p = l1_cone().p
        e = rand_vec(rng, 3)
        tower = derivatives_along(p, e)
        for j in range(len(tower)):
            assert derivatives_along(tower[j], e) == tower[j:]


class TestCompose:
    def test_scaling_homogeneity(self):
        p = x1x2x3()
        rows = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert p.compose(rows) == 8 * p

    def test_symmetric_swap(self):
        p = x1x2x3()
        rows = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
        assert p.compose(rows) == p

    def test_swap_on_weighted_product(self):
        p = HomoPoly(3, 4, {(2, 1, 1): 1})  # x1^2 x2 x3
        rows = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
        assert p.compose(rows) == HomoPoly(3, 4, {(1, 2, 1): 1})

    def test_composition_associates(self):
        rng = np.random.default_rng(2)
        p = l1_cone().p
        for _ in range(10):
            a = [rand_vec(rng, 3, den=4) for _ in range(3)]
            b = [rand_vec(rng, 3, den=4) for _ in range(3)]
            ab = [
                tuple(
                    sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)
                )
                for i in range(3)
            ]
            assert p.compose(a).compose(b) == p.compose(ab)

    def test_rectangular_restriction(self):
        p = x1x2x3()
        rows = [(1, 0), (0, 1), (1, 1)]  # x3 -> u1 + u2
        q = p.compose(rows)
        assert q.nvars == 2 and q.degree == 3
        assert q.eval((1, 2)) == 1 * 2 * 3


def rank_mod_prime(rows, prime=2_147_483_647) -> int:
    """Rank of an integer matrix over GF(prime); a lower bound on its rank
    over Q, so full rank here is full rank over Q."""
    a = np.array(rows, dtype=np.int64) % prime
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if not len(nz):
            continue
        pivot = rank + nz[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, prime) % prime
        below = a[rank + 1:]
        below[:] = (below - np.outer(below[:, col], a[rank]) % prime) % prime
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def certified_shapes():
    """(nvars, degree) of every gallery cone and relaxation whose scaling
    identity `check_automorphism` decides on the lattice."""
    cones = [gallery.orthant(n) for n in range(3, 7)]
    cones += [gallery.psd(n) for n in range(2, 5)]
    cones += [gallery.soc(3), l1_cone()]
    return sorted({(c.nvars, c.d - k) for c in cones for k in range(c.d)})


class TestSimplexLattice:
    def test_points_count_and_order(self):
        for n, d in [(1, 3), (3, 2), (4, 4), (6, 5)]:
            pts = [tuple(x) for x in simplex_lattice(n, d)]
            assert len(pts) == len(set(pts)) == comb(n + d - 1, d)
            assert all(sum(x) == d and min(x) >= 0 for x in pts)
            assert pts == sorted(pts, reverse=True)
        assert simplex_lattice(3, 2).tolist() == [
            [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]
        ]

    def test_cached_and_read_only(self):
        lattice = simplex_lattice(4, 3)
        assert simplex_lattice(4, 3) is lattice
        with pytest.raises(ValueError):
            lattice[0, 0] = 7

    @pytest.mark.parametrize("n, d", certified_shapes())
    def test_unisolvent_for_certified_shapes(self, n, d):
        # evaluation matrix of all degree-d monomials at the lattice points
        monomials = [
            tuple(c.count(i) for i in range(n))
            for c in itertools.combinations_with_replacement(range(n), d)
        ]
        lattice = simplex_lattice(n, d).astype(np.int64)
        assert len(lattice) == len(monomials)
        rows = np.prod(lattice[:, None, :] ** np.array(monomials)[None, :, :], axis=2)
        assert rank_mod_prime(rows) == len(monomials)


def scaling_mismatch_oracle(p: HomoPoly, rows, kappa):
    """`scaling_mismatch` as it was before its int64 path: the lattice and
    B'x as object arrays of Python ints, one sum per column of B'."""
    rows = tuple(as_vector(r) for r in rows)
    kappa = F(kappa)
    scale = lcm(*(v.denominator for r in rows for v in r))
    den, terms = p._int_term_list()
    lattice = simplex_lattice(p.nvars, p.degree).astype(object)
    x_cols = lattice.T
    bx_cols = [
        sum(v.numerator * (scale // v.denominator) * x_cols[j] for j, v in enumerate(r) if v)
        for r in rows
    ]
    common = kappa.denominator * scale ** p.degree
    lhs = kappa.numerator * _eval_columns(terms, bx_cols)
    rhs = common * _eval_columns(terms, x_cols)
    differ = np.flatnonzero(lhs != rhs)
    if not len(differ):
        return None
    i = differ[0]
    return tuple(lattice[i]), F(lhs[i], common * den), F(rhs[i], common * den)


class TestScalingMismatch:
    def test_every_lattice_point_is_checked(self):
        # L_a = prod_i prod_{k < a_i} (d x_i - k |x|) vanishes at every
        # lattice point but a, so kappa * L_a = L_a fails at a alone
        for n, d in [(3, 3), (4, 2), (2, 4)]:
            total = HomoPoly.linear_form([1] * n)
            identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            for a in simplex_lattice(n, d):
                lagrange = HomoPoly(n, 0, {(0,) * n: 1})
                for i, ai in enumerate(a):
                    for k in range(ai):
                        lagrange = lagrange * (d * HomoPoly.variable(i, n) - k * total)
                x, lhs, rhs = scaling_mismatch(lagrange, identity, 2)
                assert x == tuple(a) and lhs == 2 * rhs != 0

    def test_own_lattice_values_computed_once(self, monkeypatch):
        # P(x) depends on p alone: one lattice evaluation per form, then one
        # per call for kappa * P(B'x)
        p = HomoPoly(3, 3, {(1, 1, 1): 1, (3, 0, 0): 2})
        calls = []
        real = poly._eval_on_lattice
        monkeypatch.setattr(poly, "_eval_on_lattice", lambda q, mat: calls.append(mat) or real(q, mat))
        swap = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
        first = scaling_mismatch(p, swap, 1)
        assert first is not None and len(calls) == 2
        assert scaling_mismatch(p, swap, 1) == first and len(calls) == 3
        assert first == scaling_mismatch_oracle(p, swap, 1)
        assert not p._lattice_values().flags.writeable

    def test_weighted_product_swap(self):
        p = HomoPoly(3, 4, {(2, 1, 1): 1})
        x, lhs, rhs = scaling_mismatch(p, [(0, 1, 0), (1, 0, 0), (0, 0, 1)], 1)
        assert (x, lhs, rhs) == ((2, 1, 1), F(2), F(4))
        assert scaling_mismatch(p, [(F(1, 2), 0, 0), (0, 4, 0), (0, 0, 1)], 1) is None

    def test_rectangular_map_rejected(self):
        with pytest.raises(ValueError):
            scaling_mismatch(x1x2x3(), [(1, 0), (0, 1), (1, 1)], 1)


class TestScalingMismatchDtypeBoundary:
    """The int64 path is taken only under the overflow bound, and both
    paths return exactly what the object-array oracle returns."""

    @pytest.fixture
    def lhs_dtypes(self, monkeypatch):
        # dtype chosen for each kappa * P(B'x), once `warm` has computed the
        # form's own lattice values P(x), which every later call reuses
        seen = []
        real = poly._lattice_dtype

        def spy(terms, bounds):
            seen.append(real(terms, bounds))
            return seen[-1]

        monkeypatch.setattr(poly, "_lattice_dtype", spy)
        return seen

    @staticmethod
    def warm(p, seen):
        """Compute P(x) of p and return its dtype, leaving `seen` empty."""
        seen.clear()
        p._lattice_values()
        dtypes = list(seen)
        seen.clear()
        return dtypes

    @staticmethod
    def check(p, rows, kappa):
        """The identity holds at kappa and fails at kappa (1 + 1/den)."""
        for kap, holds in ((kappa, True), (kappa * (1 + F(1, kappa.denominator)), False)):
            got = scaling_mismatch(p, rows, kap)
            assert got == scaling_mismatch_oracle(p, rows, kap)
            assert (got is None) == holds
            if got is not None:
                assert all(type(v) is int for v in got[0])

    def test_orthant4_power_of_two_scalings(self, lhs_dtypes):
        # B' = 2^k P: M_i = 4 * 2^k and the bound (4 * 2^k)^4 = 2^(4k + 8)
        p = HomoPoly(4, 4, {(1, 1, 1, 1): 1})  # orthant:4, P(x) not yet computed
        assert self.warm(p, lhs_dtypes) == [np.int64]
        perm = exactlin.permutation([2, 0, 3, 1])
        for k in range(10, 18):
            self.check(p, [[2**k * v for v in row] for row in perm], F(1, 2 ** (4 * k)))
        # two calls per k; k <= 13: 2^60 < 2^63 <= 2^64
        assert lhs_dtypes == [np.int64] * 8 + [object] * 8

    def test_psd3_congruence_scalings(self, lhs_dtypes):
        p = gallery.psd(3).p
        self.warm(p, lhs_dtypes)
        s = [[0, F(1, 2), 1], [F(-1, 2), 0, F(1, 3)], [-1, F(-1, 3), 0]]
        congruence = autgroup.lm_linear_map(LinearMap.cayley(s), 3).rows
        for k in range(0, 24, 2):
            # det(2^k Q X Q^T) = 2^(3k) det X
            self.check(p, [[2**k * v for v in row] for row in congruence], F(1, 2 ** (3 * k)))
        assert {np.int64, object} <= set(lhs_dtypes)

    def test_values_next_to_the_int64_limit(self, lhs_dtypes):
        # B = c J sends every lattice point to (4c, 4c, 4c, 4c), so P(B'x)
        # equals the bound (4c)^4: 55108^4 < 2^63 - 1 < 55112^4
        assert (4 * 13777) ** 4 < 2**63 - 1 < (4 * 13778) ** 4
        for p in (gallery.orthant(4).p, HomoPoly(4, 4, {(2, 1, 0, 1): 1})):
            for c, dtype in ((13777, np.int64), (13778, object)):
                lhs_dtypes.clear()
                got = scaling_mismatch(p, [[c] * 4] * 4, 1)
                assert lhs_dtypes[0] is dtype
                assert got == ((4, 0, 0, 0), (4 * c) ** 4, 0)
                assert got == scaling_mismatch_oracle(p, [[c] * 4] * 4, 1)

    def test_degree_zero_form(self):
        # no term has a variable, so each side is one scalar on the lattice
        p = HomoPoly(2, 0, {(0, 0): 1})
        eye = [(1, 0), (0, 1)]
        assert scaling_mismatch(p, eye, 2) == ((0, 0), F(2), F(1))
        assert scaling_mismatch(p, eye, 1) is None

    def test_float_entries_read_from_json(self, lhs_dtypes):
        # Fraction(0.1) has denominator 2^55: B' = 2^55 B leaves int64
        p = gallery.orthant(4).p
        perm = [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
        for c, dtype in ((0.1, object), (0.25, np.int64)):
            lhs_dtypes.clear()
            A = LinearMap.from_json_rows([[c * v for v in row] for row in perm])
            assert A.rows[0][2] == F(c)
            self.check(p, A.rows, 1 / F(c) ** 4)
            assert lhs_dtypes[0] is dtype


class TestRestrictLine:
    def test_product_form_factorization(self):
        p = x1x2x3()
        q = restrict_line(p, (1, 1, 1), (F(2), F(5), F(-7)))
        assert q == (70, -39, 0, 1)  # (t-2)(t-5)(t+7)

    def test_restriction_at_origin(self):
        q = restrict_line(x1x2x3(), (1, 1, 1), (0, 0, 0))
        assert q == (0, 0, 0, 1)

    def test_lorentz_restriction(self):
        p = HomoPoly(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1})
        q = restrict_line(p, (1, 0, 0), (0, 1, 0))
        assert q == (-1, 0, 1)

    def test_leading_coefficient_is_value_at_direction(self):
        rng = np.random.default_rng(3)
        p = l1_cone().p
        e = (F(1, 2), F(-1, 4), F(3))
        x = rand_vec(rng, 3)
        q = restrict_line(p, e, x)
        # the positive factor is the one that takes p(e) to q's lead
        positive_factor(q, restrict_line_naive(p, e, x))
        assert restrict_line_naive(p, e, x)[-1] == p.eval(e)
        assert F(q[-1]) / p.eval(e) > 0

    def test_naive_oracle_agreement(self):
        rng = np.random.default_rng(4)
        polys = [x1x2x3(), l1_cone().p, HomoPoly(3, 4, {(2, 1, 1): 1})]
        for p in polys:
            for _ in range(20):
                e, x = rand_vec(rng, 3), rand_vec(rng, 3)
                assert restrict_line_warned(p, e, x) == int_form(restrict_line_naive(p, e, x))

    def test_eval_at_point_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        p = l1_cone().p
        for _ in range(20):
            e, x, t0 = rand_vec(rng, 3), rand_vec(rng, 3), F(int(rng.integers(-8, 9)), 4)
            q = restrict_line_warned(p, e, x)
            direct = p.eval(tuple(t0 * ei - xi for ei, xi in zip(e, x)))
            assert evaluate(q, t0) == positive_factor(q, restrict_line_naive(p, e, x)) * direct


class TestPolarForm:
    def test_diagonal_equals_evaluation(self):
        rng = np.random.default_rng(6)
        p = l1_cone().p
        for _ in range(10):
            x = rand_vec(rng, 3)
            assert polar_form(p, [x] * 4) == p.eval(x)

    def test_two_variable_closed_form(self):
        p = HomoPoly(2, 2, {(1, 1): 1})
        u, v = (F(3), F(1, 2)), (F(-1), F(5))
        # symmetrization of x1 x2: (u1 v2 + u2 v1) / 2
        assert polar_form(p, [u, v]) == (u[0] * v[1] + u[1] * v[0]) / 2

    def test_multilinearity_in_each_slot(self):
        rng = np.random.default_rng(7)
        p = x1x2x3()
        xs = [rand_vec(rng, 3) for _ in range(3)]
        base = polar_form(p, xs)
        scaled = polar_form(p, [tuple(2 * v for v in xs[0])] + xs[1:])
        assert scaled == 2 * base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        p = l1_cone().p
        xs = [rand_vec(rng, 3) for _ in range(4)]
        base = polar_form(p, xs)
        perm = [xs[2], xs[0], xs[3], xs[1]]
        assert polar_form(p, perm) == base

    def test_derivative_cross_check(self):
        # (D_e^k p)(x) = d!/(d-k)! * P(e^k, x^(d-k))
        rng = np.random.default_rng(9)
        p = l1_cone().p
        d = p.degree
        for _ in range(10):
            e, x = rand_vec(rng, 3), rand_vec(rng, 3)
            for k, q in enumerate(derivatives_along(p, e)):
                lhs = q.eval(x)
                rhs = polar_form(p, [e] * k + [x] * (d - k))
                assert lhs == F(factorial(d), factorial(d - k)) * rhs

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            polar_form_float(x1x2x3(), [[(1.0, 1.0, 1.0)] * 2])
        with pytest.raises(ValueError, match="stack"):
            polar_form_float(x1x2x3(), [(1.0, 1.0, 1.0)] * 3)

    def test_degree_cap(self):
        n = 25
        p = HomoPoly(1, n, {(n,): 1})
        with pytest.raises(ValueError, match="cap"):
            polar_form_float(p, [[(1.0,)] * n])

    def test_float_variant_matches(self):
        rng = np.random.default_rng(10)
        p = l1_cone().p
        tuples = [[rand_vec(rng, 3) for _ in range(4)] for _ in range(5)]
        approx = polar_form_float(p, [[[float(v) for v in x] for x in xs] for xs in tuples])
        assert approx.shape == (5,)
        for value, xs in zip(approx.tolist(), tuples):
            assert value == pytest.approx(float(polar_form(p, xs)), rel=1e-10, abs=1e-10)


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        p = HomoPoly(2, 2, {(2, 0): 1, (1, 1): 0})
        assert (1, 1) not in p.terms

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            HomoPoly(2, 2, {(1, 0): 1})

    def test_equality_is_term_map_equality(self):
        a = HomoPoly(2, 2, {(2, 0): 1, (0, 2): 2})
        b = HomoPoly(2, 2, {(0, 2): 2, (2, 0): 1})
        assert a == b and hash(a) == hash(b)

    def test_json_roundtrip_canonical_order(self):
        p = l1_cone().p
        data = p.to_json_dict()
        again = HomoPoly.from_json_dict(json.loads(json.dumps(data)))
        assert again == p
        exps = [tuple(t["exp"]) for t in data["terms"]]
        assert exps == sorted(exps, reverse=True)


class TestUniPolyExact:
    """Univariate root counting on ascending integer tuples."""

    def test_squarefree_decomposition(self):
        # -2 t^2 (t-1)^3: factors come back primitive with a positive lead
        assert squarefree_factors((0, 0, 2, -6, 6, -2)) == [((0, 1), 2), ((-1, 1), 3)]

    def test_sturm_counts(self):
        # (t-1)(t-2)(t+3): three distinct real roots, two positive
        f = (6, -7, -2, 1)
        assert sturm_count_distinct(f) == 3
        assert sturm_count_distinct(f, 0, None) == 2
        assert real_root_count_with_mult(f) == 3

    def test_sturm_with_multiplicity(self):
        f = (0, 0, -6, 11, -6, 1)  # t^2 (t-1)(t-2)(t-3)
        assert root_count_with_mult(f, None, 0) == 2
        assert root_count_with_mult(f, 0, None) == 3
        assert real_root_count_with_mult(f) == 5
        assert is_real_rooted(f)

    def test_not_real_rooted(self):
        assert not is_real_rooted((1, 0, 1))  # t^2 + 1
        assert real_root_count_with_mult((-1, 0, 0, 1)) == 1  # t^3 - 1
        with pytest.raises(ValueError):
            is_real_rooted(())

    def test_interval_endpoint_convention(self):
        f = (-1, 1)  # root at 1; interval (lo, hi]
        assert sturm_count_distinct(f, 0, 1) == 1
        assert sturm_count_distinct(f, 1, 2) == 0


@pytest.mark.parametrize("values, exact", [
    ((1, F(1, 2), 3), True),
    ([1, 2.0], False),
    (np.array([1, 2], dtype=object), True),
    (np.array([1, F(1, 3)], dtype=object), True),
    (np.array([1.0, 2.0], dtype=object), False),
    # numpy int and float entries were never `int` or `Fraction`
    (np.array([1, 2]), False),
    (np.array([1.0, 2.0]), False),
])
def test_is_exact_vector(values, exact):
    assert is_exact_vector(values) is exact


def test_derivative_tower_lengths():
    p = l1_cone().p
    tower = derivatives_along(p, (0, 0, 1))
    assert len(tower) == 5
    assert [q.degree for q in tower] == [4, 3, 2, 1, 0]
    assert tower[4].eval((0, 0, 0)) == factorial(4) * p.eval((0, 0, 1))
