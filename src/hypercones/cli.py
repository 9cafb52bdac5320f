"""Batch command-line front end.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 for In / Holds /
all-pass, 1 for Out / FailsWithWitness / suite failure, 2 for rejected
input (bad syntax, unknown cone, a cone without built-in generators, a
singular map, an order or filter out of range), 3 for dimension
mismatches, 4 for ambiguous or inconclusive results, 70 (sysexits
EX_SOFTWARE) for an internal fault.  Only input is rejected with 2 or 3:
any other error raised while a command runs is a fault of the program, so
its traceback goes to stderr and the exit code is 70, never a verdict
code.  The default seed comes from HYPERCONE_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from . import autgroup, cones, faces, gallery, spectrum, suite
from .autgroup import LinearMap
from .report import InconclusiveError, Membership, Verdict

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_AMBIGUOUS = 4
EXIT_INTERNAL = 70

_MEMBERSHIP_EXIT = {
    Membership.IN: EXIT_OK,
    Membership.OUT: EXIT_NEGATIVE,
    Membership.BOUNDARY: EXIT_AMBIGUOUS,
}
_VERDICT_EXIT = {
    Verdict.HOLDS: EXIT_OK,
    Verdict.FAILS: EXIT_NEGATIVE,
    Verdict.INCONCLUSIVE: EXIT_AMBIGUOUS,
}


class ParseFailure(Exception):
    pass


class DimensionFailure(Exception):
    pass


def _emit(data, compact: bool):
    if compact:
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(data, sort_keys=True, indent=2)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so the
        # flush at interpreter exit cannot fail again; the verdict still
        # decides the exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _diag(message: str):
    print(message, file=sys.stderr)


def _parse_point(text: str):
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"cannot parse point {text!r}: {exc}") from None


def _parse_cone(cone_id: str):
    try:
        return gallery.parse_cone_id(cone_id)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot resolve cone id {cone_id!r}: {exc}") from None


def _check_dimension(cone, point):
    if len(point) != cone.nvars:
        raise DimensionFailure(
            f"point has {len(point)} coordinates, cone lives in {cone.nvars}"
        )


def _load_matrix(path: str) -> LinearMap:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return LinearMap.from_json_rows(data)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot load matrix from {path!r}: {exc}") from None


def _face_model(cone) -> faces.GeneratedFaceModel:
    try:
        rays = gallery.extreme_rays(cone)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from None
    return faces.GeneratedFaceModel(cone, rays)


def _default_seed() -> int:
    raw = os.environ.get("HYPERCONE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_eig(args) -> int:
    cone = _parse_cone(args.cone_id)
    point = _parse_point(args.point)
    _check_dimension(cone, point)
    spec = spectrum.eigenvalues(cone, point)
    _emit(spec.to_json_dict(), args.json)
    return EXIT_OK


def cmd_member(args) -> int:
    cone = _parse_cone(args.cone_id)
    point = _parse_point(args.point)
    _check_dimension(cone, point)
    verdict = cones.contains_by_inequalities(cone.base, cone.k, point)
    _emit(
        {
            "cone": args.cone_id,
            "verdict": verdict.value,
            "point": [str(v) for v in point],
        },
        args.json,
    )
    return _MEMBERSHIP_EXIT[verdict]


def cmd_deriv(args) -> int:
    cone = _parse_cone(args.cone_id)
    base = cone.base
    k = cone.k + args.k
    if not 0 <= k <= base.d:
        raise ParseFailure(f"derivative order {k} outside 0..{base.d}")
    _emit(base.derivs[k].to_json_dict(), args.json)
    return EXIT_OK


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def cmd_autcheck(args) -> int:
    cone = _parse_cone(args.cone_id)
    mapping = _load_matrix(args.matrix_file)
    if mapping.n != cone.nvars:
        raise DimensionFailure(
            f"matrix is {mapping.n}x{mapping.n}, cone lives in {cone.nvars}"
        )
    if not mapping.invertible:
        raise ParseFailure("map must be invertible")
    if args.k is not None:
        if cone.k:
            raise ParseFailure("--k is for base cone ids; the id already has k")
        if not 1 <= args.k <= cone.d - 1:
            raise ParseFailure(f"relaxation order {args.k} outside 1..{cone.d - 1}")
        report = autgroup.check_deriv_automorphism(cone, args.k, mapping)
    else:
        report = autgroup.check_automorphism(cone, mapping)
    for warning in report.regime_warnings:
        _diag(f"warning: {warning}")
    _emit(report.to_json_dict(), args.json)
    return _VERDICT_EXIT[report.verdict]


def cmd_chain(args) -> int:
    cone = _parse_cone(args.cone_id)
    model = _face_model(cone)
    if not 0 <= args.start < len(model.generators):
        raise ParseFailure(
            f"start index {args.start} outside 0..{len(model.generators) - 1}"
        )
    try:
        chain = faces.build_chain(model, args.start, seed=args.seed if args.shuffle else None)
    except faces.ChainError as exc:
        _diag(f"chain construction failed: {exc}")
        return EXIT_NEGATIVE
    _emit(chain.to_json_dict(), args.json)
    return EXIT_OK


def cmd_rogcheck(args) -> int:
    cone = _parse_cone(args.cone_id)
    model = _face_model(cone)
    report = faces.rog_check(model)
    _emit(report.to_json_dict(), args.json)
    return _VERDICT_EXIT[report.verdict]


def cmd_garding(args) -> int:
    import numpy as np

    if args.samples < 1:
        raise ParseFailure(f"--samples must be at least 1, got {args.samples}")
    cone = _parse_cone(args.cone_id)
    randoms, proportionals = autgroup.garding_families(
        cone, np.random.default_rng(args.seed), args.samples
    )
    reps = autgroup.garding_check(cone, randoms, tol=args.tol)
    worst_random = min(rep.details["gap"] for rep in reps)
    problems = [{"kind": "random", "i": i} for i, rep in enumerate(reps) if not rep.holds]
    reps = autgroup.garding_check(cone, proportionals, tol=args.tol)
    worst_prop = max([0.0, *(abs(rep.details["gap"]) for rep in reps)])
    problems += [{"kind": "proportional", "i": i} for i, rep in enumerate(reps) if not rep.holds]
    _emit(
        {
            "cone": args.cone_id,
            "samples": args.samples,
            "min_gap_random": worst_random,
            "max_gap_proportional": worst_prop,
            "problems": problems,
        },
        args.json,
    )
    return EXIT_OK if not problems else EXIT_NEGATIVE


def cmd_suite(args) -> int:
    def progress(check, elapsed):
        _diag(f"{check.name}: {check.status} ({elapsed:.2f}s)")

    try:
        suite.select_checks(args.filter)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from None
    result = suite.run_suite(
        seed=args.seed,
        name_filter=args.filter,
        timing=args.timing,
        progress=progress,
    )
    _emit(result.to_json_dict(), args.json)
    counts = result.counts
    if counts[suite.FAIL]:
        return EXIT_NEGATIVE
    if counts[suite.INCONCLUSIVE]:
        return EXIT_AMBIGUOUS
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercone",
        description="Eigenvalues, membership, facial chains and automorphism "
        "certificates for cones of real-rooted directions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--json",
            action="store_true",
            help="compact single-line JSON (default is indented)",
        )

    def seed(p):
        p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("eig", help="eigenvalues of a point")
    p.add_argument("cone_id")
    p.add_argument("point", help="comma-separated rationals, e.g. 1,3/2,-0.25")
    common(p)
    p.set_defaults(fn=cmd_eig)

    p = sub.add_parser("member", help="three-valued cone membership")
    p.add_argument("cone_id")
    p.add_argument("point")
    common(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("deriv", help="print the k-th derivative polynomial")
    p.add_argument("cone_id")
    p.add_argument("--k", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_deriv)

    p = sub.add_parser("autcheck", help="certify or refute a linear map")
    p.add_argument("cone_id")
    p.add_argument("matrix_file", help="JSON rows of rationals as strings")
    p.add_argument("--k", type=int, default=None,
                   help="check the k-th derivative relaxation instead")
    common(p)
    p.set_defaults(fn=cmd_autcheck)

    p = sub.add_parser("chain", help="greedy face chain from built-in generators")
    p.add_argument("cone_id")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle candidate order under --seed")
    seed(p)
    common(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("rogcheck", help="are all built-in generators rank one?")
    p.add_argument("cone_id")
    common(p)
    p.set_defaults(fn=cmd_rogcheck)

    p = sub.add_parser("garding", help="sampled polarized-mean inequality check")
    p.add_argument("cone_id")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=_positive_float, default=cones.MEMBERSHIP_TOL)
    seed(p)
    common(p)
    p.set_defaults(fn=cmd_garding)

    p = sub.add_parser("suite", help="run the named verification checks")
    p.add_argument("--filter", default=None, help="substring of check names")
    p.add_argument("--timing", action="store_true",
                   help="include wall times in the JSON output")
    seed(p)
    common(p)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ParseFailure as exc:
        _diag(f"error: {exc}")
        return EXIT_PARSE
    except DimensionFailure as exc:
        _diag(f"error: {exc}")
        return EXIT_DIMENSION
    except InconclusiveError as exc:
        _diag(f"inconclusive: {exc}")
        return EXIT_AMBIGUOUS
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
