"""The named verification checks behind the `suite` command.

Each check is deterministic under its seed, returns pass / fail /
inconclusive, and embeds enough payload (witnesses, margins, counts) that
a failure can be re-verified without rerunning the suite.  Checks that
share expensive candidate streams communicate through a per-run context
cache so the audit check never recomputes classifications.  Sampled
families are drawn and judged as whole stacks: the Garding check takes its
random and proportional tuples from `autgroup.garding_families`, as
`hypercone garding` does, and replays no draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import autgroup, cones, exactlin, faces, gallery, spectrum
from .autgroup import LinearMap
from .cones import HyperCone
from .poly import HomoPoly, as_vector
from .report import Membership, Verdict

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass
class SuiteCheck:
    name: str
    status: str
    seed: int
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass
class SuiteResult:
    seed: int
    checks: list
    name_filter: str | None = None
    timings: dict | None = None

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "filter": self.name_filter,
            "counts": self.counts,
            "checks": [c.to_json_dict() for c in self.checks],
        }
        if self.timings is not None:
            out["wall_time_s"] = self.timings
        return out


def _status(problems) -> str:
    return PASS if not problems else FAIL


# ---------------------------------------------------------------------------
# 1-2: exact derivative identities
# ---------------------------------------------------------------------------


def check_orthant_derivative_identity(seed: int, ctx: dict) -> SuiteCheck:
    """D^k of the coordinate product equals k! times elementary symmetric."""
    from math import factorial

    problems = []
    checked = 0
    for n in range(3, 9):
        cone = gallery.orthant(n)
        for k in range(0, n + 1):
            got = cone.derivs[k]
            want = factorial(k) * gallery.elementary_symmetric(n, n - k)
            checked += 1
            if got != want:
                problems.append({"n": n, "k": k})
    return SuiteCheck(
        "orthant-derivative-identity",
        _status(problems),
        seed,
        {"identities_checked": checked, "problems": problems},
    )


def check_l1_derivatives(seed: int, ctx: dict) -> SuiteCheck:
    """First and second derivatives of the four-factor quartic, exactly."""
    cone = gallery.l1_cone()
    x1, x2, x3 = (HomoPoly.variable(i, 3) for i in range(3))
    want1 = 4 * (x3 * (x3 * x3 - x1 * x1 - x2 * x2))
    want2 = 4 * (3 * (x3 * x3) - x1 * x1 - x2 * x2)
    problems = []
    if cone.derivs[1] != want1:
        problems.append("first derivative mismatch")
    if cone.derivs[2] != want2:
        problems.append("second derivative mismatch")
    return SuiteCheck("l1-derivatives", _status(problems), seed, {"problems": problems})


# ---------------------------------------------------------------------------
# 3-5: automorphism classifications and the equivalence audit
# ---------------------------------------------------------------------------

ORTHANT_REGIMES = [(n, k) for n in (4, 5, 6) for k in range(1, n - 2)]


def _audit(audit: dict, rep) -> None:
    """Tally one candidate and its equivalence and classification violations."""
    audit["candidates"] += 1
    audit["violations"] += int(rep.details["equivalence_violation"])
    audit["violations"] += int(rep.details.get("classification_violation", False))


def _witness_margin(rep):
    """Two-sided margin of the report's membership witness, or None."""
    witness = rep.details.get("membership_witness")
    if not witness:
        return None
    return min(witness["lambda_min_x"], -witness["lambda_min_image"])


def _orthant_classification(seed: int, ctx: dict) -> dict:
    if "orthant_classification" in ctx:
        return ctx["orthant_classification"]
    rng = np.random.default_rng([seed, 41])
    problems = []
    audit = {"candidates": 0, "violations": 0}
    min_witness_margin = float("inf")
    holds = refuted = 0
    for n, k in ORTHANT_REGIMES:
        for i in range(20):
            alpha = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            perm = [int(v) for v in rng.permutation(n)]
            cand = LinearMap.scaled_permutation([alpha] * n, perm)
            rep = autgroup.classify_orthant_deriv(n, k, cand)
            _audit(audit, rep)
            expected_kappa = Fraction(1) / alpha ** (n - k)
            if rep.holds and rep.tier == "exact" and rep.kappa == expected_kappa:
                holds += 1
            else:
                problems.append(
                    {"family": "scaled-permutation", "n": n, "k": k, "i": i,
                     "verdict": rep.verdict.value}
                )
    for count in range(100):
        n, k = ORTHANT_REGIMES[count % len(ORTHANT_REGIMES)]
        scalings = [
            Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            for _ in range(n)
        ]
        if len(set(scalings)) == 1:
            scalings[0] += 1
        perm = [int(v) for v in rng.permutation(n)]
        cand = LinearMap.scaled_permutation(scalings, perm)
        rep = autgroup.classify_orthant_deriv(n, k, cand)
        _audit(audit, rep)
        margin = _witness_margin(rep)
        if rep.fails and rep.tier == "exact" and margin is not None:
            min_witness_margin = min(min_witness_margin, margin)
            refuted += 1
        else:
            problems.append(
                {"family": "nonconstant-diagonal", "n": n, "k": k,
                 "count": count, "verdict": rep.verdict.value,
                 "witness_found": margin is not None}
            )
    result = {
        "problems": problems,
        "holds": holds,
        "refuted": refuted,
        "min_witness_margin": min_witness_margin,
        "audit": audit,
    }
    ctx["orthant_classification"] = result
    return result


def check_orthant_aut_classification(seed: int, ctx: dict) -> SuiteCheck:
    """Scaled permutations certify; nonconstant diagonals refute with witnesses."""
    r = _orthant_classification(seed, ctx)
    details = {
        "regimes": ORTHANT_REGIMES,
        "holds": r["holds"],
        "refuted": r["refuted"],
        "min_witness_margin": r["min_witness_margin"],
        "problems": r["problems"],
    }
    return SuiteCheck(
        "orthant-aut-classification", _status(r["problems"]), seed, details
    )


def _psd_classification(seed: int, ctx: dict) -> dict:
    if "psd_classification" in ctx:
        return ctx["psd_classification"]
    rng = np.random.default_rng([seed, 43])
    n, k = 4, 1
    problems = []
    audit = {"candidates": 0, "violations": 0}
    signed_perm_ok = cayley_ok = refuted_ok = 0
    for i in range(20):
        perm = [int(v) for v in rng.permutation(n)]
        signs = [int(s) for s in rng.choice([-1, 1], size=n)]
        cand = LinearMap.scaled_permutation(signs, perm)
        rep = autgroup.classify_psd_deriv(n, k, cand)
        _audit(audit, rep)
        if rep.holds and rep.tier == "exact" and rep.kappa == 1:
            signed_perm_ok += 1
        else:
            problems.append({"family": "signed-permutation", "i": i,
                             "verdict": rep.verdict.value})
    for i in range(20):
        skew = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                skew[a][b] = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
                skew[b][a] = -skew[a][b]
        cand = LinearMap.cayley(skew)
        if rng.integers(2):  # the det -1 component of O(n)
            cand = LinearMap([[-v for v in cand.rows[0]], *cand.rows[1:]])
        rep = autgroup.classify_psd_deriv(n, k, cand)
        _audit(audit, rep)
        if rep.holds and rep.tier == "exact" and rep.kappa == 1:
            cayley_ok += 1
        else:
            problems.append({"family": "cayley-orthogonal", "i": i,
                             "verdict": rep.verdict.value})
    count = 0
    min_witness_margin = float("inf")
    while count < 20:
        entries = rng.integers(-3, 4, size=(n, n))
        m = LinearMap([[int(v) for v in row] for row in entries])
        if not m.invertible:
            continue
        sv = np.linalg.svd(m.to_float(), compute_uv=False)
        if sv.max() / sv.min() < 1.5:
            continue
        rep = autgroup.classify_psd_deriv(n, k, m)
        _audit(audit, rep)
        margin = _witness_margin(rep)
        if rep.fails and margin is not None:
            min_witness_margin = min(min_witness_margin, margin)
            refuted_ok += 1
        else:
            problems.append({"family": "spread-singular-values", "count": count,
                             "verdict": rep.verdict.value,
                             "witness_found": margin is not None})
        count += 1
    result = {
        "problems": problems,
        "signed_permutations": signed_perm_ok,
        "cayley_orthogonal": cayley_ok,
        "refuted": refuted_ok,
        "min_witness_margin": min_witness_margin,
        "audit": audit,
    }
    ctx["psd_classification"] = result
    return result


def check_psd_aut_classification(seed: int, ctx: dict) -> SuiteCheck:
    """Conjugation maps on the relaxed matrix cone: signed permutations and
    rational Cayley orthogonals certify exactly, spread maps refute."""
    r = _psd_classification(seed, ctx)
    details = {k: v for k, v in r.items() if k != "audit"}
    return SuiteCheck(
        "psd-aut-classification", _status(r["problems"]), seed, details
    )


def check_stabilizer_equivalence_audit(seed: int, ctx: dict) -> SuiteCheck:
    """(base automorphism AND fixed direction) <=> derived automorphism."""
    a = _orthant_classification(seed, ctx)["audit"]
    b = _psd_classification(seed, ctx)["audit"]
    violations = a["violations"] + b["violations"]
    details = {
        "candidates": a["candidates"] + b["candidates"],
        "violations": violations,
    }
    return SuiteCheck(
        "stabilizer-equivalence-audit",
        PASS if violations == 0 else FAIL,
        seed,
        details,
    )


# ---------------------------------------------------------------------------
# 6: polarized mean inequality
# ---------------------------------------------------------------------------

GARDING_ROSTER = ("orthant:3", "orthant:4", "psd:3", "soc:3", "l1")


def _first_failure(problems, cone_id, kind, reps, gaps, failing) -> None:
    """Record the family's first failing tuple, if any, as a problem."""
    bad = next((i for i, flag in enumerate(failing) if flag), None)
    if bad is not None:
        problems.append({"cone": cone_id, "kind": kind, "i": bad,
                         "gap": gaps[bad], "verdict": reps[bad].verdict.value})


def check_garding_inequality(seed: int, ctx: dict) -> SuiteCheck:
    """Nonnegative gap on random interior tuples; equality iff proportional.

    Per roster cone, `autgroup.garding_families` draws 1000 random and 100
    proportional tuples, and the same generator then draws 1000 perturbed
    candidates in three blocks (bases, others, scalars): a proportional
    tuple whose head is pulled toward another interior point.  The first
    100 candidates whose head has lambda_min > 1e-6 are kept.  Each family
    is one stack and one `garding_check` call, its statistic covers the
    whole stack, and a problem names the family's first failing tuple.
    """
    rng = np.random.default_rng([seed, 61])
    problems = []
    stats = {}
    for cone_id in GARDING_ROSTER:
        cone = gallery.parse_cone_id(cone_id)
        d, n = cone.d, cone.nvars
        randoms, proportionals = autgroup.garding_families(cone, rng, 1000)
        bases = cones.to_interior(cone, rng.standard_normal((1000, n)))
        others = cones.to_interior(cone, rng.standard_normal((1000, n)))
        scalars = rng.uniform(0.5, 3.0, size=(1000, d))

        reps = autgroup.garding_check(cone, randoms, tol=1e-9)
        gaps = [rep.details["gap"] for rep in reps]
        _first_failure(problems, cone_id, "random", reps, gaps,
                       [not rep.holds for rep in reps])
        min_gap = min(gaps)

        reps = autgroup.garding_check(cone, proportionals, tol=1e-9)
        gaps = [abs(rep.details["gap"]) for rep in reps]
        _first_failure(problems, cone_id, "proportional", reps, gaps,
                       [not rep.holds or gap > 1e-9 for rep, gap in zip(reps, gaps)])
        max_prop_gap = max([0.0, *gaps])

        xs = scalars[:, :, None] * bases[:, None, :]
        heads = xs[:, 0]
        xs[:, 0] = 0.55 * heads + 0.45 * others * cones.row_norms(heads)[:, None] / (
            np.maximum(cones.row_norms(others), 1e-12)[:, None]
        )
        lam, _ = cone.lambda_min(xs[:, 0])
        accepted = np.flatnonzero(~(lam <= 1e-6))[:100]
        reps = autgroup.garding_check(cone, xs[accepted], tol=1e-9)
        gaps = [rep.details["gap"] for rep in reps]
        # the audit of `garding_check` already fails a non-proportional
        # tuple whose gap is within 10 * tol of equality
        _first_failure(problems, cone_id, "perturbed", reps, gaps,
                       [not rep.holds for rep in reps])
        if len(reps) < 100:
            problems.append({"cone": cone_id, "kind": "perturbed",
                             "reason": f"only {len(reps)} tuples evaluated"})
        stats[cone_id] = {
            "min_random_gap": min_gap,
            "max_proportional_gap": max_prop_gap,
            "min_perturbed_gap": min([float("inf"), *gaps]),
        }
    return SuiteCheck(
        "garding-inequality", _status(problems), seed,
        {"stats": stats, "problems": problems},
    )


# ---------------------------------------------------------------------------
# 7-8: chains and rank-one-generation flags
# ---------------------------------------------------------------------------


def check_face_chains(seed: int, ctx: dict) -> SuiteCheck:
    """Greedy chains reach full rank one step at a time, repeatably."""
    problems = []
    details = {}
    o6, p4 = gallery.orthant(6), gallery.psd(4)
    rng = np.random.default_rng([seed, 71])
    models = (
        ("orthant:6", faces.GeneratedFaceModel(o6, gallery.extreme_rays(o6))),
        ("psd:4", faces.GeneratedFaceModel(p4, gallery.psd_rank1_generators(4, rng))),
    )
    for label, model in models:
        chain = faces.build_chain(model, 0, seed=seed)
        chain_again = faces.build_chain(model, 0, seed=seed)
        if chain.ranks != list(range(model.cone.d + 1)):
            problems.append({"cone": label, "ranks": chain.ranks})
        if chain.picks != chain_again.picks:
            problems.append({"cone": label, "reason": "not deterministic"})
        details[label] = {"ranks": chain.ranks, "picks": chain.picks}
    return SuiteCheck(
        "face-chains", _status(problems), seed, {**details, "problems": problems}
    )


def check_rog_flags(seed: int, ctx: dict) -> SuiteCheck:
    """Rank-one generation holds and fails exactly where documented."""
    problems = []
    details = {}
    rng = np.random.default_rng([seed, 81])

    o3 = gallery.orthant(3)
    coord3 = gallery.extreme_rays(o3)
    rep = faces.rog_check(faces.GeneratedFaceModel(o3, coord3))
    details["orthant:3"] = rep.verdict.value
    if not rep.holds:
        problems.append("orthant generators should have rank one")

    weighted = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1), label="weighted-product")
    rep = faces.rog_check(faces.GeneratedFaceModel(weighted, coord3))
    details["weighted-product"] = rep.verdict.value
    if not (rep.fails and rep.witness == as_vector((1, 0, 0))
            and rep.details.get("rank") == 2):
        problems.append("squared-variable realization must fail at e1 with rank 2")
    else:
        spec = spectrum.eigenvalues(weighted, (1, 0, 0))
        if list(np.round(spec.eigenvalues, 9)) != [1.0, 1.0, 0.0, 0.0]:
            problems.append({"weighted-eigs": list(spec.eigenvalues)})

    p3 = gallery.psd(3)
    gens = gallery.psd_rank1_generators(3, rng, extras=1)
    rep = faces.rog_check(faces.GeneratedFaceModel(p3, gens))
    details["psd:3"] = rep.verdict.value
    if not rep.holds:
        problems.append("psd rank-one generators should pass")

    s3 = gallery.soc(3)
    rays = [(1, 1, 0), (1, 0, 1), (5, 3, 4), (5, -3, 4), (1, -1, 0), (1, 0, -1)]
    rep = faces.rog_check(faces.GeneratedFaceModel(s3, rays))
    details["soc:3"] = rep.verdict.value
    if not rep.holds:
        problems.append("second-order boundary rays should have rank one")

    l1 = gallery.l1_cone()
    l1_rays = gallery.extreme_rays(l1)
    ranks = [spectrum.rank_exact(l1, r, sturm_verify=True) for r in l1_rays]
    details["l1-extreme-ray-ranks"] = ranks
    if ranks != [2, 2, 2, 2]:
        problems.append({"l1-ranks": ranks})
    rep = faces.rog_check(faces.GeneratedFaceModel(l1, l1_rays))
    if not rep.fails:
        problems.append("l1 cone must fail rank-one generation")

    rays2 = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (5, 3, 4), (5, 4, -3)]
    rep = faces.rog_check(faces.GeneratedFaceModel(gallery.soc3_slice_2x2(), rays2))
    details["soc3-slice-2x2"] = rep.verdict.value
    if not rep.holds:
        problems.append("2x2 slice of the second-order cone should pass")
    rep = faces.rog_check(faces.GeneratedFaceModel(gallery.soc3_slice_3x3(), rays2))
    details["soc3-slice-3x3"] = rep.verdict.value
    if not rep.fails:
        problems.append("3x3 slice of the second-order cone should fail")
    return SuiteCheck(
        "rog-flags", _status(problems), seed, {**details, "problems": problems}
    )


# ---------------------------------------------------------------------------
# 9: strict nesting
# ---------------------------------------------------------------------------


def check_strict_nesting(seed: int, ctx: dict) -> SuiteCheck:
    """Each relaxation strictly contains the previous one, by witness."""
    problems = []
    found = 0
    for n in range(3, 7):
        cone = gallery.orthant(n)
        for k in range(1, n):
            rep = cones.strict_containment_witness(cone, k)
            if rep.holds:
                found += 1
            else:
                problems.append({"cone": f"orthant:{n}", "k": k,
                                 "verdict": rep.verdict.value})
    p4 = gallery.psd(4)
    for k in range(1, 4):
        rep = cones.strict_containment_witness(p4, k)
        if rep.holds:
            found += 1
        else:
            problems.append({"cone": "psd:4", "k": k, "verdict": rep.verdict.value})
    return SuiteCheck(
        "strict-nesting", _status(problems), seed,
        {"witnesses": found, "problems": problems},
    )


# ---------------------------------------------------------------------------
# 10: invariant eigenvectors fix their minimal faces
# ---------------------------------------------------------------------------


def check_perron_minimal_face(seed: int, ctx: dict) -> SuiteCheck:
    """Certified automorphisms fix the minimal face of an eigenvector in the
    cone at their spectral radius, read off their cycles exactly."""
    rng = np.random.default_rng([seed, 101])
    orthant_maps = [
        LinearMap.scaled_permutation(
            [Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for _ in range(4)],
            [int(v) for v in rng.permutation(4)],
        )
        for _ in range(50)
    ]
    psd_maps = []
    for _ in range(50):
        perm = [int(v) for v in rng.permutation(3)]
        signs = [int(s) for s in rng.choice([-1, 1], size=3)]
        alpha = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        lq = autgroup.lm_linear_map(LinearMap.scaled_permutation(signs, perm), 3)
        psd_maps.append(LinearMap([[alpha * v for v in row] for row in lq.rows]))
    problems = []
    runs = (("orthant:4", gallery.orthant(4), orthant_maps),
            ("psd:3", gallery.psd(3), psd_maps))
    for label, cone, maps in runs:
        for i, cand in enumerate(maps):
            if not autgroup.check_automorphism(cone, cand).holds:
                problems.append({"cone": label, "i": i, "stage": "certify"})
                continue
            try:
                rep = autgroup.perron_face(cone, cand)
            except ValueError as exc:
                problems.append({"cone": label, "i": i, "stage": "eigenvector",
                                 "reason": str(exc)})
                continue
            if not rep.holds:
                problems.append({"cone": label, "i": i, "stage": "minimal-face",
                                 "report": rep.to_json_dict()})
    return SuiteCheck(
        "perron-minimal-face", _status(problems), seed,
        {"automorphisms_checked": 100, "problems": problems},
    )


# ---------------------------------------------------------------------------
# 11: exponential flows and the automorphism-group dimension
# ---------------------------------------------------------------------------

def check_lyapunov_flows(seed: int, ctx: dict) -> SuiteCheck:
    """Generator counts behind the automorphism-group dimensions.

    For the relaxed 4x4 matrix cone, the identity scaling and the 6 skew
    conjugation flows X -> exp(tW) X exp(tW)^T are automorphisms
    (dimension (n^2-n+2)/2 = 7), and 6 symmetric traceless complements
    are refuted.  For the relaxed coordinate cone only the identity flow
    passes among diagonal directions (dimension 1).  `autgroup.lie_probe`
    certifies each generator W at its rational flow points on the exact
    tier, so every verdict carries kappa or a lattice witness and none
    depends on the seed.
    """
    def unit(*entries):
        w = [[0] * 4 for _ in range(4)]
        for i, j, v in entries:
            w[i][j] = v
        return LinearMap(w)

    psd4, orthant4 = gallery.psd(4), gallery.orthant(4)
    identity = LinearMap(exactlin.identity(4))
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    traceless = [(f"traceless-diag({i})", unit((i, i, 1), (i + 1, i + 1, -1)))
                 for i in range(3)]
    rows = [("psd_passing_generators", psd4, "identity-scaling", identity, Verdict.HOLDS)]
    rows += [("psd_passing_generators", psd4, f"skew({i},{j})",
              unit((i, j, 1), (j, i, -1)), Verdict.HOLDS) for i, j in pairs]
    rows += [("psd_refuted_complements", psd4, name, w, Verdict.FAILS)
             for name, w in traceless]
    rows += [("psd_refuted_complements", psd4, f"symmetric({i},{j})",
              unit((i, j, 1), (j, i, 1)), Verdict.FAILS)
             for i, j in ((0, 1), (0, 2), (1, 2))]
    rows += [("orthant_passing", orthant4, "identity", identity, Verdict.HOLDS)]
    rows += [("orthant_refuted_diagonals", orthant4, name, w, Verdict.FAILS)
             for name, w in traceless]
    counts = {key: 0 for key, *_ in rows}
    problems = []
    for key, cone, name, w, expected in rows:
        rep = autgroup.lie_probe(cone, 1, w)
        if rep.tier == "exact" and rep.verdict is expected:
            counts[key] += 1
        else:
            problems.append({"cone": f"{cone.label}(1)", "flow": name, "u": rep.details["u"],
                             "verdict": rep.verdict.value, "tier": rep.tier})
    details = {**counts, "psd_expected_dimension": 7, "orthant_expected_dimension": 1,
               "problems": problems}
    return SuiteCheck("lyapunov-flows", _status(problems), seed, details)


# ---------------------------------------------------------------------------
# 12: the two membership routes agree
# ---------------------------------------------------------------------------

ROUTE_CONFIGS = (
    ("orthant:4", (0, 1, 2, 3)),
    ("psd:3", (0, 1, 2)),
    ("soc:3", (0,)),
    ("l1", (0, 1)),
)


# Each relaxation's cloud: 6,000 Gaussian points, and copies of the first
# 1,000 placed at lambda_min = +-0.05 and +-0.005.
ROUTE_CLOUD = (6000, 1000, (0.05, 0.005))


def check_route_equivalence(seed: int, ctx: dict) -> SuiteCheck:
    """Eigenvalue membership vs derivative-sign membership, decisively."""
    rng = np.random.default_rng([seed, 121])
    problems = []
    stats = {}
    for cone_id, orders in ROUTE_CONFIGS:
        base = gallery.parse_cone_id(cone_id)
        for k in orders:
            target = base.derivative_cone(k)
            pts = cones.boundary_cloud(target, rng, *ROUTE_CLOUD)
            eig = cones.contains(target, pts)
            ineq = cones.contains_by_inequalities(base, k, pts, cones.MEMBERSHIP_TOL)
            ambiguous = [Membership.BOUNDARY in pair for pair in zip(eig, ineq)]
            mismatched = [
                i for i, (a, b) in enumerate(zip(eig, ineq)) if a is not b and not ambiguous[i]
            ]
            if mismatched:
                lam, _ = target.lambda_min(pts[mismatched])
                for idx, lmin in zip(mismatched, lam):
                    problems.append({"cone": cone_id, "k": k,
                                     "x": [float(v) for v in pts[idx]],
                                     "eig_lambda_min": float(lmin),
                                     "inequality": ineq[idx].value})
            stats[f"{cone_id}:k={k}"] = {
                "points": len(pts),
                "ambiguous_band": sum(ambiguous),
                "disagreements": len(mismatched),
            }
    dc = gallery.l1_cone().derivative_cone(1)
    pts = cones.boundary_cloud(dc, rng, *ROUTE_CLOUD)
    mapped = pts[:, [2, 0, 1]]  # (x1,x2,x3) -> (x3,x1,x2)
    pairs = list(zip(cones.contains(dc, pts), cones.contains(gallery.soc(3), mapped)))
    decisive = sum(Membership.BOUNDARY not in pair for pair in pairs)
    mismatch = sum(Membership.BOUNDARY not in pair and pair[0] is not pair[1] for pair in pairs)
    if mismatch:
        problems.append({"cone": "l1(1) vs soc:3", "disagreements": mismatch})
    stats["l1(1)-vs-soc:3"] = {
        "points": len(pts),
        "decisive": decisive,
        "disagreements": mismatch,
    }
    return SuiteCheck(
        "route-equivalence", _status(problems), seed,
        {"stats": stats, "problems": problems},
    )


# ---------------------------------------------------------------------------
# 13: spectra of matrices and the slice rank pairing
# ---------------------------------------------------------------------------


def check_spectral_agreement(seed: int, ctx: dict) -> SuiteCheck:
    """Matrix eigensolver vs hyperbolic route; slice rank equals matrix rank."""
    rng = np.random.default_rng([seed, 131])
    problems = []
    stats = {}
    for n in (2, 3, 4):
        cone = gallery.psd(n)
        syms, vecs = [], []
        for _ in range(1000 // (5 - n)):
            raw = rng.standard_normal((n, n))
            sym = np.round((raw + raw.T) * 128) / 256
            syms.append(sym)
            vecs.append(gallery.svec(tuple(tuple(Fraction(v) for v in row) for row in sym)))
        exact = np.array([spec.eigenvalues for spec in spectrum.spectra(cone, vecs)])
        diffs = np.abs(exact - np.linalg.eigvalsh(np.array(syms))[:, ::-1]).max(axis=1)
        bad = np.flatnonzero(diffs > 1e-8)
        if bad.size:
            problems.append({"kind": "eigen-agreement", "n": n, "i": int(bad[0]),
                             "diff": float(diffs[bad[0]])})
        stats[f"psd:{n}-eigen-max-diff"] = float(diffs.max())

    for n, orders in ((3, (1,)), (4, (1, 2))):
        cone = gallery.psd(n)
        for k in orders:
            dc = cone.derivative_cone(k)
            agreements = disagreements = ambiguous = 0
            raws = [rng.standard_normal((n, n)) for _ in range(1000)]
            syms = np.array([(raw + raw.T) / 2 for raw in raws])
            fast = gallery.psd_deriv_member(n, k, syms)
            slow = cones.contains(dc, gallery.svec_float(syms))
            for i, pair in enumerate(zip(fast, slow)):
                if Membership.BOUNDARY in pair:
                    ambiguous += 1
                    continue
                if pair[0] is pair[1]:
                    agreements += 1
                else:
                    disagreements += 1
                    problems.append({"kind": "spectral-membership", "n": n,
                                     "k": k, "i": i})
            stats[f"psd:{n}:k={k}"] = {
                "agreements": agreements,
                "ambiguous": ambiguous,
                "disagreements": disagreements,
            }

    pair_checked = pair_ambiguous = 0
    slices = 0
    while slices < 5:
        mats = [exactlin.identity(3)]
        for _ in range(2):
            raw = rng.integers(-2, 3, size=(3, 3))
            sym = tuple(
                tuple(Fraction(int(raw[i][j] + raw[j][i])) for j in range(3))
                for i in range(3)
            )
            mats.append(sym)
        rows = [gallery.svec(m) for m in mats]
        if exactlin.rank(rows) != 3:
            continue
        slices += 1
        cone = gallery.spectrahedral(mats, (1, 0, 0), label=f"slice-{slices}")
        pts = rng.standard_normal((200, 3))
        boundary = cones.to_level(cone, pts, 0.0, cone.lambda_min(pts)[0])
        xs = np.vstack([pts, boundary])
        # A_0 = I and e = (1, 0, 0): the pencil's eigenvalues are the hyperbolic ones
        ranks, unclear = spectrum.zero_rule(np.linalg.eigvalsh(gallery.pencil_matrix(mats, xs)))
        pairs = zip(xs, ranks.tolist(), unclear.tolist(), spectrum.rank(cone, xs))
        for x, matrix_rank, ambiguous, hyp_rank in pairs:
            if ambiguous or hyp_rank is None:
                pair_ambiguous += 1
                continue
            pair_checked += 1
            if hyp_rank != matrix_rank:
                problems.append({"kind": "rank-pairing", "slice": slices,
                                 "matrix_rank": matrix_rank,
                                 "hyperbolic_rank": hyp_rank,
                                 "x": [float(v) for v in x]})
    stats["rank-pairing"] = {"checked": pair_checked, "ambiguous": pair_ambiguous}
    return SuiteCheck(
        "spectral-agreement", _status(problems), seed,
        {"stats": stats, "problems": problems},
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    ("orthant-derivative-identity", check_orthant_derivative_identity),
    ("l1-derivatives", check_l1_derivatives),
    ("orthant-aut-classification", check_orthant_aut_classification),
    ("psd-aut-classification", check_psd_aut_classification),
    ("stabilizer-equivalence-audit", check_stabilizer_equivalence_audit),
    ("garding-inequality", check_garding_inequality),
    ("face-chains", check_face_chains),
    ("rog-flags", check_rog_flags),
    ("strict-nesting", check_strict_nesting),
    ("perron-minimal-face", check_perron_minimal_face),
    ("lyapunov-flows", check_lyapunov_flows),
    ("route-equivalence", check_route_equivalence),
    ("spectral-agreement", check_spectral_agreement),
)


def check_names():
    return [name for name, _ in ALL_CHECKS]


def select_checks(name_filter: str | None):
    """(name, check) pairs whose name contains the filter; ValueError if none."""
    selected = [
        (name, fn) for name, fn in ALL_CHECKS
        if name_filter is None or name_filter in name
    ]
    if not selected:
        raise ValueError(f"filter {name_filter!r} matches no checks")
    return selected


def run_suite(seed: int = 0, name_filter: str | None = None,
              timing: bool = False, progress=None) -> SuiteResult:
    """Run the named checks (optionally substring-filtered) under one seed.

    Identical seeds and filters produce byte-identical JSON; wall times are
    reported only when explicitly requested, to keep that contract.
    """
    selected = select_checks(name_filter)
    ctx: dict = {}
    checks = []
    timings = {} if timing else None
    for name, fn in selected:
        start = time.perf_counter()
        result = fn(seed, ctx)
        elapsed = time.perf_counter() - start
        if timing:
            timings[name] = round(elapsed, 3)
        checks.append(result)
        if progress is not None:
            progress(result, elapsed)
    return SuiteResult(seed=seed, checks=checks, name_filter=name_filter,
                       timings=timings)
