"""Property tests for the exact spectrum path: integer line restriction,
exact rank and multiplicity, certified root enclosures and Sturm counts.

Needs hypothesis, a test-only dependency; the module is skipped without
it.  The sympy oracle tests are skipped when sympy is missing.
"""

from fractions import Fraction as F

import pytest

from hypercones import gallery, spectrum
from hypercones.poly import (
    UniPoly,
    real_root_count_with_mult,
    restrict_line,
    sturm_count_distinct,
)
from hypercones.report import InconclusiveError

from test_poly import restrict_line_naive

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
    want = restrict_line_naive(cone.p, cone.e, x)
    assert restrict_line(cone.p, cone.e, x) == want
    assert cone.restrict(x) == want


@settings(max_examples=150, deadline=None)
@given(cone_and_point())
def test_exact_spectrum_rank_is_certified(case):
    cone, x = case
    spec = spectrum.eigenvalues(cone, x)
    assert spec.rank + spec.mult == cone.d == len(spec.eigenvalues)
    assert spec.rank == spectrum.rank_exact(cone, x, sturm_verify=True)
    assert spec.eigenvalues.count(0.0) >= spec.mult


@st.composite
def univariate(draw):
    """A product of rational linear factors (often repeated, sometimes
    clustered) times an optional quadratic that may have complex roots."""
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
    return UniPoly([draw(st.sampled_from([1, -3, F(2, 5)])) * c for c in coeffs])


def _sympy_poly(q):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    return sympy, sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                              for c in reversed(q.trimmed().coeffs)], t)


@settings(max_examples=60, deadline=None)
@given(univariate())
def test_certified_roots_enclose_sympy_roots(q):
    sympy, poly = _sympy_poly(q)
    exact = poly.real_roots()  # with multiplicity, ascending
    if len(exact) < q.degree:
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
    if q.eval(lo) and q.eval(hi):
        # sympy counts on [lo, hi], the chain on (lo, hi]: equal off the roots
        assert sturm_count_distinct(q, lo, hi) == poly.count_roots(lo, hi)
