"""Span tracing of one CLI call, installed from outside the library.

`install` replaces the public function at each module boundary, in every
namespace that calls it (``latspec.zeros.det_eval``, ``latspec.hardy.det_eval``
...), with a wrapper that records a span ``(name, start, end, parent, tag)``
and a few counters.  Spans stay in memory; `Tracer.dump` writes them once
the call is over, and `summarize` turns them into the per-module metrics.

The span stack is a plain list: the benchmark always passes ``--threads 1``,
so every traced call runs on the main thread.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict


def canon(n):
    """The Green kernel's symmetry-canonical site, as the memo keys it."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _off_band_key(args, kwargs):
    return ("off", canon(_arg(args, kwargs, 0, "n")), complex(_arg(args, kwargs, 1, "lam")))


def _boundary_key(args, kwargs):
    n, lam0, side = (_arg(args, kwargs, i, k) for i, k in enumerate(("n", "lambda0", "side")))
    return ("on", canon(n), float(lam0), side)


def _jensen_tag(args, kwargs):
    return "r%03d" % round(100 * float(_arg(args, kwargs, 2, "r")))


# (span name, namespaces patched, key of the call for reuse accounting,
#  tag of the span); consumers called by the CLI are patched in latspec.cli
TARGETS = [
    ("zeros.find_zeros", ["latspec.cli"], None, None),
    ("hardy.boundary_trace", ["latspec.cli"], None, None),
    ("hardy.jensen_check", ["latspec.cli"], None, _jensen_tag),
    ("hardy.outer_reconstruct", ["latspec.cli"], None, None),
    ("hardy.trace_residuals", ["latspec.cli"], None, None),
    ("determinant.taylor_coeffs", ["latspec.cli"], None, None),
    ("bounds.check_bounds", ["latspec.cli"], None, None),
    ("determinant.det_eval",
     ["latspec.cli", "latspec.zeros", "latspec.hardy", "latspec.determinant"], None, None),
    ("resolvent.green_auto", ["latspec.cli", "latspec.determinant"], _off_band_key, None),
    ("resolvent.green_torus",
     ["latspec.cli", "latspec.determinant", "latspec.resolvent"], _off_band_key, None),
    ("resolvent.green_boundary",
     ["latspec.cli", "latspec.determinant", "latspec.zeros"], _boundary_key, None),
    ("quadrature.tail_integral_vec", ["latspec.resolvent"], None, None),
    ("bessel.bessel_j_grid", ["latspec.resolvent"], None, None),
]

JENSEN_RADII = ("r050", "r080", "r095")  # the trace-check default --r-list


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.keys: dict = defaultdict(set)

    def wrap(self, name, fn, key=None, tag=None):
        spans, stack, counts, keys = self.spans, self.stack, self.counts, self.keys
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if key is not None:
                keys[name].add(key(args, kwargs))
            label = tag(args, kwargs) if tag is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (name, t0, clock(), parent, label)
                stack.pop()
            if name == "zeros.find_zeros":
                counts["zeros.find_zeros.zeros_found"] += len(result)
            elif name == "hardy.boundary_trace":
                counts["hardy.boundary_trace.flagged_points"] += len(result.flagged)
                counts["hardy.boundary_trace.dropped_windows"] += result.dropped_windows
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target in each of its namespaces that holds it.  A
        target found in none of them raises, so a renamed function fails
        the traced run instead of reading 0."""
        for name, modules, key, tag in TARGETS:
            attr = name.rsplit(".", 1)[1]
            wrapper = None
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if wrapper is None:
                    wrapper = self.wrap(name, fn, key, tag)
                setattr(mod, attr, wrapper)
            if wrapper is None:
                raise LookupError(f"trace target {name} is in none of {modules}")

    def run(self, fn, *args):
        """Call fn inside the root span ``cli.main``."""
        return self.wrap("cli.main", fn)(*args)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans}, fh)

    def summarize(self) -> dict:
        return summarize(self.spans, self.counts, self.keys)


def summarize(spans, counts, keys) -> dict:
    """Per-module metrics of one traced call.

    busy_s sums a name's span durations, self_s subtracts the durations of
    each span's direct children, and det_evals counts det_eval spans by the
    consumer (child of cli.main) that caused them."""
    busy = Counter()
    calls = Counter()
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, tag in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        if tag is not None:
            busy[f"{name}.{tag}"] += t1 - t0
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_time = Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        self_time[name] += t1 - t0 - child_time[i]

    consumer = [None] * len(spans)  # spans are appended parent-first
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            consumer[i] = i if p[0] == "cli.main" else consumer[parent]
    det_by = Counter()
    for i, span in enumerate(spans):
        if span[0] == "determinant.det_eval" and consumer[i] is not None:
            det_by[spans[consumer[i]][0]] += 1

    def reuse(name):
        return 1.0 - len(keys[name]) / calls[name] if calls[name] else 0.0

    m = {
        "cli.main.self_s": self_time["cli.main"],
        "zeros.find_zeros.busy_s": busy["zeros.find_zeros"],
        "zeros.find_zeros.det_evals": det_by["zeros.find_zeros"],
        "zeros.find_zeros.zeros_found": counts["zeros.find_zeros.zeros_found"],
        "zeros.find_zeros.isolation_errors":
            counts["zeros.find_zeros.raised.ZeroIsolationError"],
        "hardy.boundary_trace.busy_s": busy["hardy.boundary_trace"],
        "hardy.boundary_trace.det_evals": det_by["hardy.boundary_trace"],
        "hardy.boundary_trace.flagged_points": counts["hardy.boundary_trace.flagged_points"],
        "hardy.boundary_trace.dropped_windows": counts["hardy.boundary_trace.dropped_windows"],
        "hardy.jensen_check.busy_s": busy["hardy.jensen_check"],
        "hardy.jensen_check.det_evals": det_by["hardy.jensen_check"],
    }
    for r in JENSEN_RADII:
        m[f"hardy.jensen_check.{r}.busy_s"] = busy[f"hardy.jensen_check.{r}"]
    m.update({
        "hardy.outer_reconstruct.busy_s": busy["hardy.outer_reconstruct"],
        "hardy.trace_residuals.busy_s": busy["hardy.trace_residuals"],
        "determinant.det_eval.calls": calls["determinant.det_eval"],
        "determinant.det_eval.busy_s": busy["determinant.det_eval"],
        "determinant.det_eval.self_s": self_time["determinant.det_eval"],
        "determinant.taylor_coeffs.busy_s": busy["determinant.taylor_coeffs"],
        "bounds.check_bounds.busy_s": busy["bounds.check_bounds"],
        "resolvent.green_auto.calls": calls["resolvent.green_auto"],
        "resolvent.green_auto.busy_s": busy["resolvent.green_auto"],
        "resolvent.green_auto.reuse_frac": reuse("resolvent.green_auto"),
        "resolvent.green_torus.calls": calls["resolvent.green_torus"],
        "resolvent.green_torus.busy_s": busy["resolvent.green_torus"],
        "resolvent.green_boundary.calls": calls["resolvent.green_boundary"],
        "resolvent.green_boundary.busy_s": busy["resolvent.green_boundary"],
        "resolvent.green_boundary.reuse_frac": reuse("resolvent.green_boundary"),
        # green_auto hands far-off-band points to green_torus under the same
        # key, so the union counts each requested kernel value once
        "resolvent.distinct_keys": len(
            keys["resolvent.green_auto"] | keys["resolvent.green_torus"]
            | keys["resolvent.green_boundary"]),
        "quadrature.tail_integral_vec.calls": calls["quadrature.tail_integral_vec"],
        "quadrature.tail_integral_vec.busy_s": busy["quadrature.tail_integral_vec"],
        "bessel.bessel_j_grid.calls": calls["bessel.bessel_j_grid"],
        "bessel.bessel_j_grid.busy_s": busy["bessel.bessel_j_grid"],
    })
    return m
