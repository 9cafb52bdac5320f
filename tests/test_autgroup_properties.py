"""Property test: the lattice certificate decides like an expansion of p o A.

Needs hypothesis, a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction as F

import pytest

from hypercones import autgroup, exactlin, gallery
from hypercones.autgroup import LinearMap
from hypercones.cones import membership_exact
from hypercones.poly import scaling_mismatch
from hypercones.report import Membership, Verdict

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CONES = {
    "orthant:3": lambda: gallery.orthant(3),
    "orthant:4:k=1": lambda: gallery.orthant(4).derivative_cone(1),
    "soc:3": lambda: gallery.soc(3),
    "psd:2": lambda: gallery.psd(2),
    "psd:3:k=1": lambda: gallery.psd(3).derivative_cone(1),
}

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@st.composite
def cone_and_map(draw):
    """A cone and a map that is often an automorphism: a scaled signed
    permutation, sometimes with one entry perturbed."""
    cone = CONES[draw(st.sampled_from(sorted(CONES)))]()
    n = cone.nvars
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        scalings = [draw(positive)] * n
    else:
        scalings = draw(st.lists(positive, min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = signs[i] * scalings[i]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(small)
    mapping = LinearMap(rows)
    if not mapping.invertible:
        mapping = LinearMap(exactlin.identity(n))
    return cone, mapping


@settings(max_examples=150, deadline=None)
@given(cone_and_map())
def test_lattice_verdict_matches_compose(case):
    cone, A = case
    ae = A.apply(cone.e)
    p_ae = cone.p.eval(ae)
    rep = autgroup.check_automorphism(cone, A)
    if p_ae <= 0:
        assert rep.fails and rep.tier == "exact"
        return
    kappa = cone.pe / p_ae
    identity = kappa * cone.p.compose(A.rows) == cone.p
    assert (scaling_mismatch(cone.p, A, kappa) is None) == identity
    # every cone above is flagged minimal, so a mismatch refutes exactly
    holds = identity and membership_exact(cone, ae) is Membership.IN
    assert rep.tier == "exact" and rep.kappa == kappa
    assert rep.verdict is (Verdict.HOLDS if holds else Verdict.FAILS)
