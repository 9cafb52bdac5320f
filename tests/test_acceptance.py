"""Acceptance gate: every headline claim, at its stated tolerance and budget.

Each criterion runs the corresponding named suite check under a fixed seed
and prints one pass/fail line.  The shared context mirrors the suite
runner, so the equivalence audit consumes the classification streams
instead of recomputing them.
"""

import time

import pytest

from hypercones import spectrum, suite

SEED = 0

_CTX: dict = {}
_RESULTS: dict = {}


def _run(name, budget_s):
    fn = dict(suite.ALL_CHECKS)[name]
    start = time.perf_counter()
    check = fn(SEED, _CTX)
    elapsed = time.perf_counter() - start
    _RESULTS[name] = check
    line = f"{'PASS' if check.status == 'pass' else check.status.upper()}: {name} ({elapsed:.2f}s, budget {budget_s}s)"
    print(line)
    assert check.status == "pass", check.details
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget: {elapsed:.1f}s"
    return check


def test_criterion_01_orthant_derivative_identity():
    """Exact identity between iterated derivatives and k! times the
    elementary symmetric polynomials, n = 3..8, all orders; < 1 s."""
    check = _run("orthant-derivative-identity", 1.0)
    assert check.details["identities_checked"] >= 6 * 4


def test_criterion_02_l1_derivatives():
    """The quartic's first two derivatives match their closed forms exactly;
    < 1 s."""
    _run("l1-derivatives", 1.0)


def test_criterion_03_orthant_classification():
    """n in {4,5,6}, k = 1..n-3: 20 scaled permutations per regime certify
    with exact kappa; 100 nonconstant diagonals refute exactly, each with a
    re-verified membership witness of margin >= 1e-6; < 60 s."""
    check = _run("orthant-aut-classification", 60.0)
    assert check.details["holds"] == 20 * len(suite.ORTHANT_REGIMES)
    assert check.details["refuted"] == 100
    assert check.details["min_witness_margin"] >= 1e-6


def test_criterion_04_psd_classification():
    """n = 4, k = 1: 20 rational signed permutations and 20 rational
    Cayley orthogonal conjugations, of both determinants, certify on the
    exact tier with kappa = 1; 20 spread-singular-value candidates are
    refuted with witnesses; < 120 s."""
    check = _run("psd-aut-classification", 120.0)
    assert check.details["signed_permutations"] == 20
    assert check.details["cayley_orthogonal"] == 20
    assert check.details["refuted"] == 20
    assert check.details["min_witness_margin"] >= 1e-6


def test_criterion_05_stabilizer_equivalence_audit():
    """(base automorphism AND fixed direction) <=> derived automorphism
    across every structured candidate above, with zero violations."""
    check = _run("stabilizer-equivalence-audit", 30.0)
    assert check.details["violations"] == 0
    assert check.details["candidates"] >= 280


def test_criterion_06_garding_inequality():
    """1000 random interior tuples per gallery cone give a nonnegative gap;
    100 proportional tuples have |gap| <= 1e-9; 100 perturbed tuples,
    which are not proportional, have a gap above the audit's equality band
    10 * 1e-9 after normalization; no problem is reported; < 30 s."""
    check = _run("garding-inequality", 30.0)
    assert not check.details["problems"]
    for cone_id, stats in check.details["stats"].items():
        assert stats["min_random_gap"] >= -1e-9, cone_id
        assert stats["max_proportional_gap"] <= 1e-9, cone_id
        assert stats["min_perturbed_gap"] > 10 * 1e-9, cone_id


def test_criterion_07_face_chains():
    """Chains on the 6-coordinate cone and the 4x4 matrix cone reach every
    rank 0..d in unit steps with Sturm-verified multiplicities,
    deterministically under the seed; < 10 s."""
    check = _run("face-chains", 10.0)
    assert check.details["orthant:6"]["ranks"] == list(range(7))
    assert check.details["psd:4"]["ranks"] == list(range(5))


def test_criterion_08_rog_flags():
    """Rank-one generation holds for the coordinate, matrix and quadratic
    cones; the squared-coordinate realization fails at e1 with rank 2; the
    four-factor quartic's extreme rays have rank 2; the two pencil
    representations of the quadratic cone split; < 5 s."""
    check = _run("rog-flags", 5.0)
    assert check.details["l1-extreme-ray-ranks"] == [2, 2, 2, 2]
    assert check.details["soc3-slice-2x2"] == "Holds"
    assert check.details["soc3-slice-3x3"] == "FailsWithWitness"


def test_criterion_09_strict_nesting():
    """Separating witnesses with two-sided margins for every relaxation
    order of the coordinate cones up to n = 6 and the 4x4 matrix cone;
    < 30 s."""
    check = _run("strict-nesting", 30.0)
    expected = sum(n - 1 for n in range(3, 7)) + 3
    assert check.details["witnesses"] == expected


def test_criterion_10_perron_minimal_face():
    """50 certified automorphisms of each of the 4-coordinate and 3x3
    matrix cones fix the minimal face of a spectral-radius eigenvector in
    the cone; each face is read off the map's cycles and certified exactly;
    < 30 s."""
    check = _run("perron-minimal-face", 30.0)
    assert check.details["automorphisms_checked"] == 100


def test_criterion_11_lyapunov_flows():
    """For the relaxed 4x4 matrix cone, the 1 + 6 = 7 generators W pass at
    the rational flow points Cayley(-uW), u in {+-1/20, +-1/2}, and 6
    complements are refuted; for the relaxed 4-coordinate cone the identity
    flow passes and 3 traceless diagonal flows are refuted; every verdict
    is exact; < 60 s."""
    check = _run("lyapunov-flows", 60.0)
    assert check.details["psd_passing_generators"] == 7
    assert check.details["psd_refuted_complements"] == 6
    assert check.details["orthant_passing"] == 1
    assert check.details["orthant_refuted_diagonals"] == 3


def test_criterion_12_route_equivalence():
    """Eigenvalue membership and derivative-sign membership agree on 10^4
    points per cone and relaxation outside the ambiguous band, with zero
    disagreements; < 60 s."""
    check = _run("route-equivalence", 60.0)
    for key, stats in check.details["stats"].items():
        assert stats["disagreements"] == 0, key
        assert stats["points"] == 10_000, key


def test_criterion_13_spectral_agreement():
    """Matrix eigensolver and hyperbolic eigenvalues agree to 1e-8; the
    eigensolver membership route matches the symbolic one; slice rank
    equals matrix rank; < 30 s."""
    check = _run("spectral-agreement", 30.0)
    for n in (2, 3, 4):
        assert check.details["stats"][f"psd:{n}-eigen-max-diff"] <= 1e-8
    assert check.details["stats"]["rank-pairing"]["checked"] > 1500


def test_spectral_agreement_propagates_internal_errors(monkeypatch):
    """Only InconclusiveError counts as an ambiguous rank pairing; any other
    error from the rank route is an internal fault and must surface."""

    def broken_rank(cone, x, *args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(spectrum, "rank", broken_rank)
    with pytest.raises(RuntimeError, match="internal fault"):
        suite.check_spectral_agreement(SEED, {})


def test_spectral_agreement_judges_both_ranks_by_one_zero_rule():
    """At seed 1000042 a slice point has pencil eigenvalues (6.70, 1.6e-6,
    -3.86): a matrix rank with its own cut-off (singular values above
    1e-6 of the largest) called it rank 2 where `spectrum.rank` says 3.
    Both ranks now come from `spectrum.zero_rule`, and the check passes."""
    check = suite.check_spectral_agreement(1000042, {})
    assert check.status == "pass", check.details["problems"]


def test_zz_summary():
    """Every criterion ran and passed (prints the tally)."""
    assert len(_RESULTS) == len(suite.ALL_CHECKS)
    passed = sum(1 for c in _RESULTS.values() if c.status == "pass")
    print(f"\nacceptance: {passed}/{len(_RESULTS)} criteria pass")
    assert passed == len(_RESULTS)
