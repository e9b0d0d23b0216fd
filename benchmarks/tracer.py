"""Span recorder for the traced benchmark run.

The recorder wraps every public function of qhyper's modules from the
benchmark's side; no file of the package changes.  A wrapped function
is replaced in each qhyper module namespace that holds a reference to
it, because modules call one another through names they imported
(``hosvd`` imported ``k_mode_unfold``, ``mode_permute`` and
``multilinear_multiply`` from ``tensor``; ``cli`` imported the
``hosvd`` functions; ``states`` imported ``hdet_fast``).  Modules are
looked up in ``sys.modules``: the attribute ``qhyper.hosvd`` is the
re-exported function, not the module.

Spans (op, name, start, end, parent, counters) are kept in memory and
written out by :meth:`Recorder.dump`.  A span's self time is its
duration minus the durations of its direct children; spans never
overlap other than by nesting, since the benchmark runs one thread.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import math
import os
import sys
import time

LAYERS = ("tensor", "hosvd", "states", "hyperdet", "cli")

_IN_FLAGS = ("--in", "--state", "--a", "--b")


def _flag_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else None


def _cli_bytes(args, kwargs, result):
    # Output written to stdout is counted from the StringIO the
    # benchmark redirects it to; output files from their size.
    argv = list(args[0] if args else kwargs.get("argv") or [])
    bytes_in = sum(
        os.path.getsize(p) for p in (_flag_value(argv, f) for f in _IN_FLAGS) if p
    )
    out = _flag_value(argv, "--out")
    bytes_out = os.path.getsize(out) if out and os.path.exists(out) else 0
    if isinstance(sys.stdout, io.StringIO):
        bytes_out += sys.stdout.tell()
    return {"bytes_in": bytes_in, "bytes_out": bytes_out}


def _permutation_terms(H, pinned):
    # (m!)^N tuples for hdet_general, (m!)^(N-1) with one permutation pinned.
    return {"terms": math.factorial(H.dims[0]) ** (H.order - pinned)}


# Work counts taken at the layer boundary, from argument and result
# sizes.  Byte counts are computed from array sizes, not measured.
COUNTERS = {
    "hosvd.canonicalize_core": lambda a, kw, r: {"entries": a[0].core.data.size},
    "hosvd.lu_equivalence": lambda a, kw, r: {"verdict": r.tag.value},
    "tensor.k_mode_unfold": lambda a, kw, r: {"bytes": r.nbytes},
    "states.parse_ket": lambda a, kw, r: {"bytes_in": len(a[0].encode())},
    # complex amplitudes plus the int8 sign string, each read once
    "hyperdet.hdet_fast": lambda a, kw, r: {
        "bytes": a[0].amplitudes.nbytes + a[0].amplitudes.size
    },
    "hyperdet.hdet_reduced": lambda a, kw, r: _permutation_terms(a[0], 1),
    "hyperdet.hdet_general": lambda a, kw, r: _permutation_terms(a[0], 0),
    "cli.main": _cli_bytes,
}

# Span fields, in the order they are stored and written.
FIELDS = ("op", "name", "start_s", "end_s", "parent", "counters")


class Recorder:
    """Records one span per call of a wrapped qhyper function."""

    def __init__(self):
        self.spans = []
        self.op = -1  # index of the benchmark operation in progress
        self._stack = []
        self._patches = []
        self._wrapped = {}  # id(original) -> (original, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every public qhyper function wherever it is bound."""
        if not self._wrapped:
            for layer in LAYERS:
                module = sys.modules[f"qhyper.{layer}"]
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "qhyper" and not name.startswith("qhyper."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def restore(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))

    def aggregate(self):
        """{function: {"calls", "busy_s", "self_s", counter sums}}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        table = {}
        for i, (_, name, start, end, _, counters) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
            for key, value in (counters or {}).items():
                if isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
        return table

    def search_stats(self):
        """Relabeling-search counts: canonicalize_core calls under each
        lu_equivalence span minus one (the second input's core), and
        EquivalentCoreMatch verdicts per candidate examined."""
        spans = self.spans
        cores = {}
        for span in spans:
            if span[1] != "hosvd.canonicalize_core":
                continue
            p = span[4]
            while p >= 0 and spans[p][1] != "hosvd.lu_equivalence":
                p = spans[p][4]
            if p >= 0:
                cores[p] = cores.get(p, 0) + 1
        calls = [i for i, s in enumerate(spans) if s[1] == "hosvd.lu_equivalence"]
        candidates = [max(cores.get(i, 0) - 1, 0) for i in calls]
        matches = sum(
            1 for i in calls if (spans[i][5] or {}).get("verdict") == "EquivalentCoreMatch"
        )
        examined = sum(candidates)
        return {
            "hosvd.candidates_per_call.mean": examined / len(calls) if calls else 0.0,
            "hosvd.candidates_per_call.max": max(candidates, default=0),
            "hosvd.match_ratio": matches / examined if examined else 0.0,
        }

    def metrics(self, per_layer, ops, overhead):
        """Values of the ``per_layer`` metrics (BENCHMARK.json entries) for
        a traced phase of ``ops`` operations.  ``<function>.<field>`` is
        the field's total from :meth:`aggregate` per operation."""
        table = self.aggregate()
        values = self.search_stats()
        values["trace.overhead_frac"] = overhead
        out = {}
        for metric in per_layer:
            name = metric["name"]
            if name not in values:
                function, _, field = name.rpartition(".")
                values[name] = table.get(function, {}).get(field, 0) / ops
            out[name] = {"value": values[name], "unit": metric["unit"]}
        return out
