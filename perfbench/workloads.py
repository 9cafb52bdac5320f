"""The three benchmark workloads: inputs from a seed, a timed pass, oracles.

Every workload is a closed loop with one caller: an operation is issued
only after the previous verdict has come back.  A pass is a fixed-size set
of operations whose inputs come from (seed, pass index) alone, and every
operation carries the answer it must produce, known from how its input was
built, so the library only ever sees generated inputs and never grades
itself.

- `suite`: one `run_suite` pass over all 13 checks is one operation, and
  every check must pass.
- `exact-tier`: rational candidate maps through `check_deriv_automorphism`
  and rational points through `eigenvalues` plus `rank_exact` with the
  Sturm recount.  No float sampling is involved.
- `float-tier`: seeded float point clouds decided by the per-point
  derivative-sign route and the batched eigenvalue route.  No `compose`
  and no exact evaluation is involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from hypercones import autgroup, cones, exactlin, gallery, spectrum, suite
from hypercones.autgroup import LinearMap
from hypercones.report import InconclusiveError, Membership, Verdict

# Eigenvalues must lie inside the spectrum's own band, tol + residual.
EIG_TOL = 1e-8
# An exact-point eigenvalue further than this times (1 + |lambda|) from the
# known one is imprecise (the clustered-root defect), though not wrong.
PRECISE_REL = 1e-12


@dataclass
class Outcome:
    """What one operation did: its latency and how it was judged."""

    seconds: float = 0.0
    decisive: bool = True
    failure: str | None = None
    imprecise: bool = False


@dataclass
class PassResult:
    outcomes: list = field(default_factory=list)
    imprecise_checked: int = 0


def _failure(exc: Exception) -> str:
    return f"exception:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


class SuiteWorkload:
    """The ROADMAP's end-to-end target: every suite check under one seed.

    It is the only workload that runs faces, flows, nesting, Perron and
    the classifier witness searches, and the per-call cone and tower
    rebuilds that memoisation would remove.
    """

    name = "suite"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        # below full scale only the two cheap derivative-identity checks run
        self.name_filter = None if scale >= 1.0 else "derivative"
        # run_suite builds its own cones; these put the import plus the
        # gallery and tower cost of every suite cone into set-up time
        self.cones =[gallery.orthant(n) for n in (3, 4, 5, 6)]
        self.cones += [gallery.psd(n) for n in (2, 3, 4)]
        self.cones += [gallery.soc(3), gallery.l1_cone()]
        for cone in self.cones:
            for k in range(1, cone.d):
                cone.derivative_cone(k)
            spectrum.eigenvalues(cone, cone.e)

    def check_names(self):
        return [
            name for name in suite.check_names()
            if self.name_filter is None or self.name_filter in name
        ]

    def inputs(self, index: int) -> dict:
        return {
            "seed": self.seed + 1_000_003 * index,
            "expected": {name: suite.PASS for name in self.check_names()},
        }

    def run(self, inputs: dict, tracer=None) -> PassResult:
        """One operation: the whole pass, as a user of `hypercone suite` waits
        for it.  It fails when any check misses its expected status."""
        if tracer is not None:
            tracer.op_id = 0
        start = time.perf_counter()
        try:
            checks = suite.run_suite(inputs["seed"], name_filter=self.name_filter).checks
        except InconclusiveError:
            return PassResult([Outcome(time.perf_counter() - start, decisive=False)])
        except Exception as exc:  # tallied as a failed operation by type
            return PassResult([Outcome(time.perf_counter() - start, failure=_failure(exc))])
        seconds = time.perf_counter() - start
        statuses = {check.name: check.status for check in checks}
        wrong = sorted(
            name for name in inputs["expected"].keys() | statuses.keys()
            if statuses.get(name) != inputs["expected"].get(name)
        )
        return PassResult([Outcome(
            seconds,
            decisive=suite.INCONCLUSIVE not in statuses.values(),
            failure="check:" + ",".join(wrong) if wrong else None,
        )])


# ---------------------------------------------------------------------------
# exact-tier
# ---------------------------------------------------------------------------

ORTHANT_MAP_DIMS = (4, 5, 6)
CLUSTER_EXPONENTS = (20, 24, 28, 32, 36, 40)


def _rational(rng, lo: int, hi: int, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.choice(dens)))


def _cayley_orthogonal(rng, n: int):
    """Q = (I - S)(I + S)^-1 for a random rational skew-symmetric S."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = _rational(rng, -2, 2)
            s[i][j], s[j][i] = v, -v
    eye = exactlin.identity(n)
    minus = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    return exactlin.matmul(minus, exactlin.inverse(plus))


def _spectrum_values(rng, n: int):
    """n rational eigenvalues with a repeat, a zero or both in most draws."""
    pool = [_rational(rng, -6, 9) for _ in range(n)]
    shape = int(rng.integers(0, 4))
    if shape == 0:
        pool[1] = pool[0]
    elif shape == 1:
        pool[1], pool[2] = pool[0], Fraction(0)
    elif shape == 2:
        pool[-1] = pool[-2] = Fraction(0)
    return pool


def _signed_permutation(rng, n: int):
    perm = rng.permutation(n)
    signs = rng.choice([-1, 1], size=n)
    return [[int(signs[r]) if c == perm[r] else 0 for c in range(n)] for r in range(n)]


def _dense_conjugator(rng, n: int) -> LinearMap:
    """Invertible integer matrix, no zero entry, far from scaled orthogonal."""
    while True:
        entries = rng.choice([-3, -2, -1, 1, 2, 3], size=(n, n))
        m = LinearMap([[int(v) for v in row] for row in entries])
        if not m.invertible:
            continue
        mtm = exactlin.matmul(exactlin.transpose(m.rows), m.rows)
        if any(mtm[i][j] != 0 for i in range(n) for j in range(n) if i != j):
            return m


@dataclass
class MapOp:
    cone: object
    n: int
    matrix: object  # LinearMap on the cone, or the 4x4 conjugator for psd:4
    conjugate: bool
    expected: Verdict


@dataclass
class PointOp:
    cone: object
    point: tuple
    eigenvalues: tuple  # known, sorted descending
    rank: int


class ExactTierWorkload:
    """Certify / refute rational maps and certify rational spectra.

    Maps: on orthant:4-6 with k=1, constant-scale permutations hold and
    non-constant diagonals are refuted; on psd:4 with k=1, signed
    permutation conjugations hold and dense integer conjugations are
    refuted.  Both certificates and refutations go through `compose`.
    Points: psd:4 points Q diag(lambda) Q^T with Q rational Cayley-
    orthogonal and repeated or zero lambda, orthant:5-6 points with
    repeats and zeros, and the clustered orthant:4 points
    (1, 1+eps, 1+2eps, 3) for eps = 2^-20 .. 2^-40, which keep the known
    clustered-root imprecision visible.
    """

    name = "exact-tier"
    K = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.orthants = {n: gallery.orthant(n) for n in (4, 5, 6)}
        self.psd4 = gallery.psd(4)
        for cone in [*self.orthants.values(), self.psd4]:
            cone.derivative_cone(self.K)
            spectrum.eigenvalues(cone, cone.e)

    def _count(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def inputs(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index, 2])
        ops = []
        for n in ORTHANT_MAP_DIMS:
            cone = self.orthants[n]
            perm = [int(v) for v in rng.permutation(n)]
            c = _rational(rng, 1, 9)
            ops.append(MapOp(cone, n, LinearMap.scaled_permutation([c] * n, perm),
                             False, Verdict.HOLDS))
            scalings = [c] * n
            while len(set(scalings)) == 1:
                scalings = [_rational(rng, 1, 9) for _ in range(n)]
            perm = [int(v) for v in rng.permutation(n)]
            ops.append(MapOp(cone, n, LinearMap.scaled_permutation(scalings, perm),
                             False, Verdict.FAILS))
        for _ in range(self._count(4)):
            ops.append(MapOp(self.psd4, 4, LinearMap(_signed_permutation(rng, 4)),
                             True, Verdict.HOLDS))
        for _ in range(self._count(8)):
            ops.append(MapOp(self.psd4, 4, _dense_conjugator(rng, 4), True, Verdict.FAILS))
        for _ in range(self._count(8)):
            lam = _spectrum_values(rng, 4)
            q = _cayley_orthogonal(rng, 4)
            x = exactlin.matmul(exactlin.matmul(q, exactlin.diag(lam)), exactlin.transpose(q))
            ops.append(self._point(self.psd4, gallery.svec(x), lam))
        for i in range(self._count(8)):
            n = 5 + i % 2
            lam = _spectrum_values(rng, n)
            ops.append(self._point(self.orthants[n], tuple(rng.permutation(lam)), lam))
        for j in CLUSTER_EXPONENTS:
            eps = Fraction(1, 2**j)
            lam = [Fraction(1), 1 + eps, 1 + 2 * eps, Fraction(3)]
            ops.append(self._point(self.orthants[4], tuple(rng.permutation(lam)), lam))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    @staticmethod
    def _point(cone, point, lam) -> PointOp:
        return PointOp(
            cone=cone,
            point=tuple(Fraction(v) for v in point),
            eigenvalues=tuple(sorted((float(v) for v in lam), reverse=True)),
            rank=sum(1 for v in lam if v != 0),
        )

    def run(self, ops: list, tracer=None) -> PassResult:
        result = PassResult()
        clock = time.perf_counter
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            is_map = isinstance(op, MapOp)
            result.imprecise_checked += not is_map
            start = clock()
            try:
                judged = self._run_map(op) if is_map else self._run_point(op)
            except InconclusiveError:
                judged = Outcome(decisive=False)
            except Exception as exc:  # tallied as a failed operation by type
                judged = Outcome(failure=_failure(exc))
            judged.seconds = clock() - start
            result.outcomes.append(judged)
        return result

    def _run_map(self, op: MapOp) -> Outcome:
        mapping = autgroup.lm_linear_map(op.matrix, op.n) if op.conjugate else op.matrix
        rep = autgroup.check_deriv_automorphism(op.cone, self.K, mapping)
        if rep.verdict is Verdict.INCONCLUSIVE:
            return Outcome(decisive=False)
        if rep.verdict is not op.expected:
            return Outcome(failure="wrong-verdict")
        if rep.tier != "exact":
            return Outcome(failure="not-exact-tier")
        if rep.details["equivalence_violation"]:
            return Outcome(failure="equivalence-violation")
        return Outcome()

    @staticmethod
    def _run_point(op: PointOp) -> Outcome:
        spec = spectrum.eigenvalues(op.cone, op.point)
        rank = spectrum.rank_exact(op.cone, op.point, sturm_verify=True)
        if rank != op.rank:
            return Outcome(failure="wrong-rank")
        if len(spec.eigenvalues) != len(op.eigenvalues):
            return Outcome(failure="wrong-degree")
        band = EIG_TOL + spec.residual
        errors = [abs(a - b) for a, b in zip(spec.eigenvalues, op.eigenvalues)]
        if any(err > band for err in errors):
            return Outcome(failure="eigenvalue-outside-band")
        imprecise = any(
            err > PRECISE_REL * (1.0 + abs(lam)) for err, lam in zip(errors, op.eigenvalues)
        )
        return Outcome(imprecise=imprecise)


# ---------------------------------------------------------------------------
# float-tier
# ---------------------------------------------------------------------------

FLOAT_CONFIGS = (
    ("orthant:5", (0, 1, 2)),
    ("psd:4", (0, 1)),
    ("psd:3", (0, 1)),
    ("soc:3", (0,)),
    ("l1", (0, 1)),
)
# Boundary-shifted waves; 1e-9 sits inside the 1e-8 ambiguous band.
WAVE_MARGINS = (1e-2, 1e-4, 1e-6, 1e-9)
# Waves this far out have a side known from their construction.
KNOWN_SIDE_MARGIN = 1e-4
MEMBER_TOL = 1e-8


@dataclass
class Cloud:
    base: object
    view: object
    k: int
    points: np.ndarray
    expected: np.ndarray  # +1 inside, -1 outside, 0 unknown (bulk, thin waves)


class FloatTierWorkload:
    """Float membership on Gaussian clouds plus boundary-shifted waves."""

    name = "float-tier"
    BULK = 1024
    WAVE = 128

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.bulk = max(8, round(self.BULK * scale))
        self.wave = max(2, round(self.WAVE * scale))
        self.targets = []
        for cone_id, orders in FLOAT_CONFIGS:
            base = gallery.parse_cone_id(cone_id)
            for k in orders:
                view = cones.cone_view(base.derivative_cone(k) if k else base)
                # warm-up query: fills the float coefficient caches
                spectrum.batch_eigenvalues(view, view.e_float[None, :])
                cones.contains_by_inequalities(base, k, view.e_float, MEMBER_TOL)
                self.targets.append((base, view, k))

    def inputs(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index, 3])
        clouds = []
        for base, view, k in self.targets:
            bulk = rng.standard_normal((self.bulk, view.nvars))
            chunks = [bulk]
            expected = [np.zeros(len(bulk), dtype=int)]
            for m in WAVE_MARGINS:
                for sign in (1, -1):
                    # fresh directions per wave: the cost of deciding a point
                    # depends on its direction, so shared ones would make
                    # the cost mix of a pass hinge on a few draws
                    y = rng.standard_normal((self.wave, view.nvars))
                    eigs, residuals = spectrum.batch_eigenvalues(view, y)
                    chunks.append(y - (eigs[:, -1] - sign * m)[:, None] * view.e_float[None, :])
                    known = (residuals < 1e-9) & (m >= KNOWN_SIDE_MARGIN)
                    expected.append(np.where(known, sign, 0))
            clouds.append(Cloud(base, view, k, np.vstack(chunks), np.concatenate(expected)))
        return clouds

    def run(self, clouds: list, tracer=None) -> PassResult:
        result = PassResult()
        clock = time.perf_counter
        op = 0
        for cloud in clouds:
            if tracer is not None:
                tracer.op_id = op
            start = clock()
            try:
                eigs, residuals = spectrum.batch_eigenvalues(cloud.view, cloud.points)
            except Exception as exc:  # the whole cloud fails with its batch
                share = (clock() - start) / len(cloud.points)
                result.outcomes.extend(
                    Outcome(share, failure=_failure(exc)) for _ in cloud.points
                )
                op += len(cloud.points)
                continue
            share = (clock() - start) / len(cloud.points)
            lam = eigs[:, -1]
            band = MEMBER_TOL + residuals
            eig_side = np.where(lam > band, 1, np.where(lam < -band, -1, 0))
            for i, x in enumerate(cloud.points):
                if tracer is not None:
                    tracer.op_id = op
                op += 1
                start = clock()
                try:
                    verdict = cones.contains_by_inequalities(cloud.base, cloud.k, x, MEMBER_TOL)
                except InconclusiveError:
                    verdict = None
                except Exception as exc:  # tallied as a failed operation by type
                    result.outcomes.append(Outcome(clock() - start + share, failure=_failure(exc)))
                    continue
                seconds = clock() - start + share
                result.outcomes.append(_judge_point(seconds, verdict, eig_side[i], cloud.expected[i]))
        return result


def _judge_point(seconds, verdict, eig_side, expected) -> Outcome:
    if verdict is None or verdict is Membership.BOUNDARY or eig_side == 0:
        return Outcome(seconds, decisive=False)
    ineq_side = 1 if verdict is Membership.IN else -1
    if ineq_side != eig_side:
        return Outcome(seconds, failure="route-disagreement")
    if expected and ineq_side != expected:
        return Outcome(seconds, failure="wrong-side")
    return Outcome(seconds)


WORKLOADS = {
    SuiteWorkload.name: SuiteWorkload,
    ExactTierWorkload.name: ExactTierWorkload,
    FloatTierWorkload.name: FloatTierWorkload,
}
