"""Spans and counters around tpoly's layer functions, from outside.

The program has no trace hooks of its own, so the tracer replaces
module attributes that callers look up at call time (for example
``tpoly.dwork.poly_matmul``) with timing wrappers, and puts the
originals back on ``remove``.  A function imported by name into other
tpoly modules is replaced there too.  Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name); spans nest through a per-tracer stack
SPANS = [
    ("tpoly.dwork", "char_series", "dwork.char_series"),
    ("tpoly.dwork", "expand_Ef", "dwork.expand_Ef"),
    ("tpoly.dwork", "window_points", "dwork.window_points"),
    ("tpoly.dwork", "dwork_matrix", "dwork.dwork_matrix"),
    ("tpoly.dwork", "poly_matmul", "dwork.poly_matmul"),
    ("tpoly.dwork", "poly_trace", "dwork.poly_trace"),
    ("tpoly.dwork", "_twisted_traces", "dwork.twisted_traces"),
    ("tpoly.dwork", "_expand_Ef_zq", "dwork.expand_Ef_zq"),
    ("tpoly.dwork", "_zq_mat_mul", "dwork.zq_mat_mul"),
    ("tpoly.series", "artin_hasse", "series.artin_hasse"),
    ("tpoly.series", "pi_of_T", "series.pi_of_T"),
    ("tpoly.combos", "special_bijections", "combos.special_bijections"),
    ("tpoly.combos", "relatedness_classes", "combos.relatedness_classes"),
    ("tpoly.combos", "combo_from_bijection", "combos.combo_from_bijection"),
    ("tpoly.hodge", "assignment_oracle", "hodge.assignment_oracle"),
    ("tpoly.hodge", "greedy_minimal_permutation",
     "hodge.greedy_minimal_permutation"),
    ("tpoly.hodge", "ihp", "hodge.ihp"),
    ("tpoly.beta", "assemble_beta", "beta.assemble_beta"),
    ("tpoly.beta", "related_class_characterization",
     "beta.related_class_characterization"),
]

# (module, class, method): calls are counted, not timed
COUNTED = [
    ("tpoly.series", "SeriesRing", "mul"),
    ("tpoly.series", "UnramifiedRing", "mul"),
    ("tpoly.series", "UnramifiedRing", "add"),
    ("tpoly.series", "UnramifiedRing", "frobenius"),
]


def _madds(args, _result):
    """Multiply-adds poly_matmul computes over the nonzero T-slices of a."""
    a, b = args[0], args[1]
    m, k, N = a.shape
    n = b.shape[1]
    live = a.any(axis=(0, 1))
    return {"madds": int(sum(m * k * n * (N - t) for t in range(N) if live[t]))}


def _nonzero(_args, mat):
    return {"entries": int(mat.size), "nonzero": int((mat != 0).sum())}


SIZERS = {
    "dwork.poly_matmul": _madds,
    "dwork.dwork_matrix": _nonzero,
    "dwork.expand_Ef": lambda _a, r: {"series": len(r)},
    "dwork.window_points": lambda _a, r: {"points": len(r)},
    "combos.special_bijections": lambda _a, r: {"count": len(r)},
    "combos.relatedness_classes": lambda _a, r: {"classes": len(r)},
}


class Tracer:
    """Collects spans (name, start, end, parent index, task) and counters.

    Set ``task`` before each traced task; its spans carry that id.
    """

    def __init__(self):
        self.task = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct_bijections: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        sizer = SIZERS.get(name)
        distinct = self.distinct_bijections
        track_beta = name == "combos.combo_from_bijection"

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.task])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if sizer is not None:
                for key, val in sizer(args, result).items():
                    counts[f"{name}.{key}"] += val
            if track_beta:
                distinct.add((args[0], args[2].pairs))
            return result
        return wrapped

    def count_wrapper(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("tpoly") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every layer function and each verify check."""
        for modname, attr, name in SPANS:
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self.span_wrapper(name, fn))
        cli = sys.modules["tpoly.cli"]
        make_check = cli._check

        def check(name, provenance, fn):
            key, run = make_check(name, provenance, fn)
            return key, self.span_wrapper(f"cli.check.{key}", run)
        self._saved.append((cli, "_check", make_check))
        cli._check = check
        for modname, cls_name, meth in COUNTED:
            cls = getattr(sys.modules[modname], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self.count_wrapper(
                f"series.{cls_name}.{meth}.calls", fn))

    def remove(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    def totals(self) -> tuple[Counter, Counter]:
        """Inclusive seconds per span name, and self seconds."""
        incl, child = Counter(), Counter()
        for name, t0, t1, parent, _ in self.spans:
            incl[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0
        self_s = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
        return incl, self_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task}) + "\n")
