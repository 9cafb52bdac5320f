"""In-memory span tracing around calls into the hypercones modules.

Nothing here edits the library: `Tracer.install` swaps each traced public
function for a wrapper, in the module that defines it and in every
hypercones module that imported the same function object by name, and
`uninstall` puts the originals back.  Methods of `HomoPoly` are swapped on
the class.

A span is (name, start, end, parent, op_id, tag).  `parent` is the index of
the enclosing traced span or -1, `op_id` identifies the benchmark operation
that caused it, and `tag` is a small per-call outcome (the exception type,
or a value a counter needs, such as the number of points evaluated).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path).  Several entries may share one
# prefix; their spans are aggregated under it.
TRACED = (
    ("poly.HomoPoly.compose", "poly", "HomoPoly.compose"),
    ("poly.HomoPoly.eval", "poly", "HomoPoly.eval"),
    ("poly.HomoPoly.eval_float", "poly", "HomoPoly.eval_float"),
    ("poly.restrict_line", "poly", "restrict_line"),
    ("poly.squarefree_factors", "poly", "squarefree_factors"),
    ("poly.is_real_rooted", "poly", "is_real_rooted"),
    ("poly.real_root_count_with_mult", "poly", "real_root_count_with_mult"),
    ("poly.derivatives_along", "poly", "derivatives_along"),
    ("spectrum.eigenvalues", "spectrum", "eigenvalues"),
    ("spectrum.real_roots", "spectrum", "real_roots"),
    ("spectrum.rank_exact", "spectrum", "rank_exact"),
    ("spectrum.batch_eigenvalues", "spectrum", "batch_eigenvalues"),
    ("spectrum.rank", "spectrum", "rank"),
    ("cones.membership_exact", "cones", "membership_exact"),
    ("cones.contains_by_inequalities", "cones", "contains_by_inequalities"),
    ("gallery.build", "gallery", "orthant"),
    ("gallery.build", "gallery", "psd"),
    ("gallery.build", "gallery", "soc"),
    ("gallery.build", "gallery", "l1_cone"),
    ("autgroup.check_automorphism", "autgroup", "check_automorphism"),
    ("autgroup.check_deriv_automorphism", "autgroup", "check_deriv_automorphism"),
    ("autgroup.classify_orthant_deriv", "autgroup", "classify_orthant_deriv"),
    ("autgroup.classify_psd_deriv", "autgroup", "classify_psd_deriv"),
    ("autgroup.membership_violation_witness", "autgroup", "membership_violation_witness"),
    ("autgroup.garding_check", "autgroup", "garding_check"),
    ("autgroup.lie_probe", "autgroup", "lie_probe"),
    ("autgroup.lm_linear_map", "autgroup", "lm_linear_map"),
    ("exactlin.linalg", "exactlin", "det"),
    ("exactlin.linalg", "exactlin", "inverse"),
    ("exactlin.linalg", "exactlin", "matmul"),
    ("exactlin.linalg", "exactlin", "rank"),
    ("faces.build_chain", "faces", "build_chain"),
    ("faces.rog_check", "faces", "rog_check"),
)


def _points_tag(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    shape = getattr(pts, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _value_tag(args, kwargs, result):
    return getattr(result, "value", None)


def _tier_tag(args, kwargs, result):
    return result.tier


def _found_tag(args, kwargs, result):
    return result is not None


# Outcome recorders for the ratios reported next to the plain counters.
TAGS = {
    "poly.HomoPoly.eval_float": _points_tag,
    "cones.contains_by_inequalities": _value_tag,
    "autgroup.check_automorphism": _tier_tag,
    "autgroup.membership_violation_witness": _found_tag,
}


def layer_names():
    """Metric prefixes of the traced layers, in declaration order."""
    return list(dict.fromkeys(name for name, _, _ in TRACED))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, tag=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if outcome is None and tag is not None:
                    outcome = tag(args, kwargs, result)
                spans[index] = (name, start, end, parent, self.op_id, outcome)
            return result

        return functools.wraps(fn)(traced)

    def install(self, checks=None):
        """Wrap every TRACED function; `checks` wraps suite.ALL_CHECKS too."""
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == "hypercones" or name.startswith("hypercones.")
        }
        for name, module, path in TRACED:
            owner = mods[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(name, original, TAGS.get(name)))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original, TAGS.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        if checks:
            suite = mods["suite"]
            wrapped_checks = tuple(
                (check, self.wrap(f"suite.{check}", fn)) for check, fn in suite.ALL_CHECKS
            )
            self._patch(suite, "ALL_CHECKS", wrapped_checks)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived numbers --------------------------------------------------------

    def layer_metrics(self, check_names):
        """Counters and self times per layer, the outcome ratios, and the
        busy time of each named suite check."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            busy_s[name] += end - start

        def tagged(name):
            return [s[5] for s in self.spans if s[0] == name]

        def ratio(hits, total):
            return hits / total if total else 0.0

        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["poly.HomoPoly.eval_float.points"] = (
            sum(t for t in tagged("poly.HomoPoly.eval_float") if isinstance(t, int)),
            "count",
        )
        verdicts = tagged("cones.contains_by_inequalities")
        out["cones.contains_by_inequalities.boundary_ratio"] = (
            ratio(sum(v == "Boundary-ambiguous" for v in verdicts), len(verdicts)),
            "ratio",
        )
        roots = [i for i, s in enumerate(self.spans) if s[0] == "spectrum.real_roots"]
        fallback = {
            s[3] for s in self.spans
            if s[0] == "poly.squarefree_factors" and s[3] >= 0
            and self.spans[s[3]][0] == "spectrum.real_roots"
        }
        out["spectrum.real_roots.fallback_ratio"] = (
            ratio(sum(i in fallback for i in roots), len(roots)),
            "ratio",
        )
        out["spectrum.rank.inconclusive"] = (
            sum(t == "InconclusiveError" for t in tagged("spectrum.rank")),
            "count",
        )
        tiers = tagged("autgroup.check_automorphism")
        out["autgroup.check_automorphism.exact_ratio"] = (
            ratio(sum(t == "exact" for t in tiers), len(tiers)),
            "ratio",
        )
        found = tagged("autgroup.membership_violation_witness")
        out["autgroup.membership_violation_witness.found_ratio"] = (
            ratio(sum(t is True for t in found), len(found)),
            "ratio",
        )
        for check in check_names:
            out[f"suite.{check}.busy_s"] = (busy_s[f"suite.{check}"], "s")
        return out

    def write(self, path):
        """Dump every span as gzipped JSON lines, one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op_id", "tag"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
