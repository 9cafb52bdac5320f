"""Property tests for the exact spectrum path: integer line restriction,
exact membership, exact rank and multiplicity, certified root enclosures,
the interlacing of relaxation spectra, Sturm counts and the derivative
tower every restriction reads.

Needs hypothesis, a test-only dependency; the module is skipped without
it.  The sympy oracle tests are skipped when sympy is missing.
"""

from fractions import Fraction as F

import pytest

import numpy as np

from hypercones import cones, gallery, spectrum
from hypercones.autgroup import LinearMap
from hypercones.poly import (
    derivatives_along,
    is_real_rooted,
    real_root_count_with_mult,
    restrict_line,
)
from hypercones.report import InconclusiveError, Membership

from test_poly import evaluate, int_form, restrict_line_naive, sturm_count_distinct

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASES = {
    "orthant:3": lambda: gallery.orthant(3),
    "orthant:4": lambda: gallery.orthant(4),
    "psd:2": lambda: gallery.psd(2),
    "psd:3": lambda: gallery.psd(3),
    "soc:3": lambda: gallery.soc(3),
    "soc:4": lambda: gallery.soc(4),
    "l1": gallery.l1_cone,
    "soc3-slice-2x2": gallery.soc3_slice_2x2,
}

rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cone_and_point(draw):
    """A gallery cone or one of its relaxations, and a rational point."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]()
    cone = base.derivative_cone(draw(st.integers(0, base.d - 1)))
    x = tuple(draw(st.lists(rational, min_size=cone.nvars, max_size=cone.nvars)))
    return cone, x


@settings(max_examples=150, deadline=None)
@given(cone_and_point())
def test_integer_restriction_matches_naive_expansion(case):
    cone, x = case
    want = int_form(restrict_line_naive(cone.p, cone.e, x))
    assert restrict_line(derivatives_along(cone.p, cone.e), x) == want
    assert cone.restrict(x) == want


@settings(max_examples=150, deadline=None)
@given(cone_and_point())
def test_exact_spectrum_rank_is_certified(case):
    cone, x = case
    spec = spectrum.eigenvalues(cone, x)
    assert spec.rank + spec.mult == cone.d == len(spec.eigenvalues)
    assert spec.rank == spectrum.rank_exact(cone, x, sturm_verify=True)
    assert spec.eigenvalues.count(0.0) >= spec.mult


INTERLACING_BASES = {
    "orthant:5": lambda: gallery.orthant(5),
    "psd:3": lambda: gallery.psd(3),
    "psd:4": lambda: gallery.psd(4),
    "soc:3": lambda: gallery.soc(3),
    "l1": gallery.l1_cone,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INTERLACING_BASES)), st.data())
def test_relaxation_spectra_interlace(name, data):
    """d/dt q(te - x) is the restriction of D_e q, so by Rolle's theorem the
    eigenvalues of x for the relaxation of order k + 1 interlace those for
    order k (Renegar, Hyperbolic programs, and their derivative
    relaxations, 2006), within the two certified residuals."""
    base = INTERLACING_BASES[name]()
    point = st.lists(rational, min_size=base.nvars, max_size=base.nvars).map(tuple)
    xs = data.draw(st.lists(point, min_size=1, max_size=4))
    orders = [spectrum.spectra(base.derivative_cone(k), xs) for k in range(base.d)]
    for outer, inner in zip(orders, orders[1:]):
        for big, small in zip(outer, inner):
            slack = F(big.residual) + F(small.residual)
            lam = [F(v) for v in big.eigenvalues]
            mu = [F(v) for v in small.eigenvalues]
            assert len(mu) == len(lam) - 1
            for i, m in enumerate(mu):
                assert lam[i + 1] - slack <= m <= lam[i] + slack


MEMBERSHIP_BASES = {
    **{f"orthant:{n}": (lambda n=n: gallery.orthant(n)) for n in range(3, 7)},
    "psd:3": lambda: gallery.psd(3),
    "soc:3": lambda: gallery.soc(3),
    "l1": gallery.l1_cone,
}
nonnegative = st.fractions(min_value=0, max_value=4, max_denominator=6)


def membership_by_derivatives(cone, x):
    """The sign rule on one `HomoPoly.eval` per derivative D_e^j p, j < d:
    the oracle for `membership_exact`."""
    boundary = False
    for q in cone.derivs[: cone.d]:
        v = q.eval(x)
        if v < 0:
            return Membership.OUT
        if v == 0:
            boundary = True
    return Membership.BOUNDARY if boundary else Membership.IN


@st.composite
def relaxation(draw, bases):
    base = bases[draw(st.sampled_from(sorted(bases)))]()
    return base.derivative_cone(draw(st.integers(0, base.d - 1)))


@settings(max_examples=200, deadline=None)
@given(relaxation(MEMBERSHIP_BASES), st.data())
def test_membership_matches_derivative_evaluations(cone, data):
    x = tuple(data.draw(st.lists(rational, min_size=cone.nvars, max_size=cone.nvars)))
    assert cones.membership_exact(cone, x) is membership_by_derivatives(cone, x)


@settings(max_examples=150, deadline=None)
@given(relaxation({**MEMBERSHIP_BASES, "psd:4": lambda: gallery.psd(4)}), st.data())
def test_real_rootedness_check_never_fires_on_gallery_cones(cone, data):
    x = tuple(data.draw(st.lists(rational, min_size=cone.nvars, max_size=cone.nvars)))
    assert is_real_rooted(cone.restrict(x))
    assert cones.membership_exact(cone, x) is membership_by_derivatives(cone, x)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6), st.data())
def test_membership_on_orthant_boundary(n, data):
    # a nonnegative point with a zero coordinate lies on the boundary
    base = gallery.orthant(n)
    k = data.draw(st.integers(0, n - 1))
    x = data.draw(st.lists(nonnegative, min_size=n, max_size=n))
    x[data.draw(st.integers(0, n - 1))] = F(0)
    verdict = cones.membership_exact(base.derivative_cone(k), x)
    assert verdict is membership_by_derivatives(base.derivative_cone(k), x)
    if k == 0:
        assert verdict is Membership.BOUNDARY


@st.composite
def psd_boundary_point(draw):
    """(n, Q diag(lam) Q^T in svec coordinates) for a rational Cayley
    transform Q = (I - S)(I + S)^-1 and lam >= 0 with a zero entry."""
    n = draw(st.sampled_from([3, 4]))
    skew = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
            skew[j][i] = -skew[i][j]
    q = np.array(LinearMap.cayley(skew).rows, dtype=object)
    lam = draw(st.lists(nonnegative, min_size=n, max_size=n))
    lam[draw(st.integers(0, n - 1))] = F(0)
    diag = np.array(lam + [F(0)] * (gallery.svec_dim(n) - n), dtype=object)
    return n, tuple(gallery.svec_product(q, q) @ diag)


@settings(max_examples=60, deadline=None)
@given(psd_boundary_point(), st.data())
def test_membership_on_psd_boundary(case, data):
    n, x = case
    assert all(isinstance(v, F) for v in x)
    k = data.draw(st.integers(0, n - 1))
    cone = gallery.psd(n).derivative_cone(k)
    verdict = cones.membership_exact(cone, x)
    assert verdict is membership_by_derivatives(cone, x)
    if k == 0:
        assert verdict is Membership.BOUNDARY


@st.composite
def univariate(draw):
    """A product of rational linear factors (often repeated, sometimes
    clustered) times an optional quadratic that may have complex roots, as
    an ascending integer tuple that need not be primitive or positive."""
    roots = draw(st.lists(rational, min_size=0, max_size=4))
    if roots and draw(st.booleans()):
        roots.append(roots[0] + F(1, 2 ** draw(st.integers(20, 60))))
    if roots and draw(st.booleans()):
        roots.append(roots[-1])
    coeffs = [F(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
    if draw(st.booleans()) or not roots:
        b, c = draw(rational), draw(rational)
        quad = [c, b, F(1)]
        out = [F(0)] * (len(coeffs) + 2)
        for i, u in enumerate(coeffs):
            for j, v in enumerate(quad):
                out[i + j] += u * v
        coeffs = out
    return tuple(draw(st.sampled_from([1, -3, 2])) * c for c in int_form(coeffs))


def _sympy_poly(f):
    sympy = pytest.importorskip("sympy")
    return sympy, sympy.Poly(list(reversed(f)), sympy.Symbol("t"))


@settings(max_examples=60, deadline=None)
@given(univariate())
def test_certified_roots_enclose_sympy_roots(q):
    sympy, poly = _sympy_poly(q)
    exact = poly.real_roots()  # with multiplicity, ascending
    if len(exact) < len(q) - 1:
        with pytest.raises(InconclusiveError):
            spectrum.real_roots(q)
        return
    roots, residual = spectrum.real_roots(q)
    assert len(roots) == len(exact)
    slack = sympy.Rational(1, 10**40)
    for got, want in zip(roots, reversed(exact)):
        err = abs(sympy.Rational(F(got).numerator, F(got).denominator) - want)
        assert err.evalf(60) <= sympy.Float(residual, 60) + slack


@settings(max_examples=60, deadline=None)
@given(univariate(), rational, st.fractions(min_value=0, max_value=3, max_denominator=7))
def test_sturm_counts_match_sympy(q, lo, width):
    sympy, poly = _sympy_poly(q)
    hi = lo + width
    assert sturm_count_distinct(q) == poly.count_roots()
    assert real_root_count_with_mult(q) == len(poly.real_roots())
    if evaluate(q, lo) and evaluate(q, hi):
        # sympy counts on [lo, hi], the chain on (lo, hi]: equal off the roots
        assert sturm_count_distinct(q, lo, hi) == poly.count_roots(lo, hi)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_derivative_tower_matches_sympy(name, data):
    """Entry k of the tower along e is d^k/dt^k p(x + t e) at t = 0."""
    sympy = pytest.importorskip("sympy")
    p = BASES[name]().p
    e = data.draw(st.lists(rational, min_size=p.nvars, max_size=p.nvars))
    xs = sympy.symbols(f"x0:{p.nvars}")
    t = sympy.Symbol("t")

    def as_sympy(q, point):
        return sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**a for v, a in zip(point, exp)))
            for exp, c in q.terms.items()
        )

    along = as_sympy(p, [x + t * sympy.Rational(v.numerator, v.denominator)
                         for x, v in zip(xs, e)])
    tower = derivatives_along(p, e)
    assert len(tower) == p.degree + 1
    for k, q in enumerate(tower):
        want = sympy.diff(along, t, k).subs(t, 0)
        assert sympy.expand(want - as_sympy(q, xs)) == 0


@st.composite
def factored_polynomial(draw):
    """A product of random integer linear and quadratic factors, each to a
    power 1 to 3: repeated roots, and complex pairs from the quadratics
    with a negative discriminant, are common."""
    f = (draw(st.sampled_from([1, -2, 3])),)
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=2))
        factor = tuple(low) + (draw(st.integers(1, 3)),)
        for _ in range(draw(st.integers(1, 3))):
            out = [0] * (len(f) + len(factor) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            f = tuple(out)
    return f


@settings(max_examples=300, deadline=None)
@given(factored_polynomial())
def test_real_rootedness_matches_the_multiplicity_count(f):
    # one Sturm chain on f against Yun's split with a chain per factor
    assert is_real_rooted(f) == (real_root_count_with_mult(f) == len(f) - 1)


@st.composite
def rational_cluster(draw):
    """An orthant:n point whose coordinates cluster: a rational centre plus
    small integer multiples of 2^-e (repeats included) and n - size other
    rational coordinates, in a drawn order."""
    n = draw(st.integers(3, 6))
    size = draw(st.integers(2, n))
    centre = draw(rational)
    e = draw(st.integers(8, 60))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    rest = draw(st.lists(rational, min_size=n - size, max_size=n - size))
    x = [centre + F(j, 2**e) for j in offsets] + rest
    return n, tuple(draw(st.permutations(x)))


@settings(max_examples=100, deadline=None)
@given(rational_cluster())
def test_reseeding_moves_no_spectrum(case):
    # with no re-seeding round, every clustered square-free polynomial
    # goes straight to the Sturm counts; the spectra must not change
    n, x = case
    cone = gallery.orthant(n)
    want = spectrum.spectra(cone, [x])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "RESEED_ROUNDS", 0)
        assert spectrum.spectra(cone, [x]) == want
