"""Span recorder for the traced run, and the per-module table built from it.

The recorder wraps the public functions of every ``opcalc`` module from
outside: each wrapped call appends one span (name, layer, start, end,
parent, request id) to an in-memory list, and the list is written out
when the run ends.  A name is patched in every module namespace that
holds it (``from .x import y`` copies the reference), so calls between
modules are seen too.  Counters are read from arguments and return
values at the same boundaries; they do not depend on the clock.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  Spans are timed in the thread's CPU time, like the
end-to-end metrics, so time the host takes the vCPU away is in none of
them.  The serving process also times each request around ``cli.run`` on
its own (``begin_request``/``end_request``); ``accounting_error`` checks,
request by request, that the self times plus the untraced remainder add
up to that time, with the remainder no larger than the request wrapper's
own overhead plus the collector's pauses while no span was open, so a
span that is lost or counted twice shows.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("parser", "classify", "operators", "kernels", "series", "exact",
          "borwein", "transforms", "oracle", "cli")

# Public entry points per module; "Class.method" wraps a method.
TARGETS = {
    "parser": ("parse_expression", "to_source", "as_vector_callable"),
    "classify": ("classify",),
    "operators": ("exp_poly_normal_form", "laurent_defect", "decompose", "apply_word",
                  "eval_limit_at_zero", "RampSum.evaluate_at"),
    "kernels": ("one_over_y_chain", "gaussian_chain", "green_function", "eval_kernel",
                "LogChain.value_at", "LogChain.limit_at_zero_plus",
                "GaussianChain.value_at", "PiecewiseExp.value_at"),
    "series": ("taylor_of", "majorant_abscissa", "laplace_laurent", "termwise_integral",
               "finite_interval_transform"),
    "exact": ("ExactValue.evalf",),
    "borwein": ("borwein_exact", "borwein_exact_half", "borwein_deficit",
                "coefficient_identity_check", "sinc_cos_product_integral",
                "sinc_power_gaussian"),
    "transforms": ("fourier_via_delta", "laplace_formal", "integrate_half_line",
                   "laplace_regularized", "fourier_regularized", "pw_pairing",
                   "integrate_rational_trig", "integrate_real_line",
                   "FourierImage.transform_at"),
    "oracle": ("quad_interval", "quad_real_line"),
    "cli": ("run",),
}

COUNTER_NAMES = ("borwein.sign_tuples", "kernels.chain_order", "series.order",
                 "operators.word_terms", "oracle.subdivisions")

# Span fields, stored as lists while a call is open.
NAME, LAYER, START, END, PARENT, REQUEST = range(6)

# CPU time a request may spend outside every span, collector pauses apart:
# the worker's own code between its clock reads and the root span.
WRAPPER_OVERHEAD_NS = 2_000_000


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _tuples_n(args, kwargs, result, spans, parent) -> Dict[str, int]:
    return {"borwein.sign_tuples": 2 ** _arg(args, kwargs, 0, "n")}


def _tuples_half(args, kwargs, result, spans, parent) -> Dict[str, int]:
    return {"borwein.sign_tuples": 2 ** (_arg(args, kwargs, 0, "n") - 1)}


def _tuples_spec(args, kwargs, result, spans, parent) -> Dict[str, int]:
    spec = _arg(args, kwargs, 0, "spec")
    return {"borwein.sign_tuples": 2 ** (len(spec.sinc_rates) + len(spec.cos_rates))}


def _chain_order(args, kwargs, result, spans, parent) -> Dict[str, int]:
    return {"kernels.chain_order": abs(_arg(args, kwargs, 0, "n"))}


def _series_order(args, kwargs, result, spans, parent) -> Dict[str, int]:
    return {"series.order": result.order}


def _word_terms(args, kwargs, result, spans, parent) -> Dict[str, int]:
    return {"operators.word_terms": len(result.terms)}


def _subdivisions(args, kwargs, result, spans, parent) -> Dict[str, int]:
    # quad_real_line calls quad_interval; count each quadrature once.
    if parent >= 0 and spans[parent][LAYER] == "oracle":
        return {}
    return {"oracle.subdivisions": result.subdivisions}


COUNTERS: Dict[str, Callable] = {
    "borwein_exact": _tuples_n,
    "borwein_exact_half": _tuples_half,
    "borwein_deficit": _tuples_half,
    "coefficient_identity_check": _tuples_half,
    "sinc_cos_product_integral": _tuples_spec,
    "gaussian_chain": _chain_order,
    "one_over_y_chain": _chain_order,
    "taylor_of": _series_order,
    "decompose": _word_terms,
    "quad_interval": _subdivisions,
    "quad_real_line": _subdivisions,
}


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        # One [CPU ns, ns of collector pauses outside every span] per request.
        self.requests: List[List[int]] = []
        self._gc_outside_ns = self._gc_start = 0

    def begin_request(self) -> None:
        self._gc_outside_ns = 0

    def end_request(self, cpu_ns: int) -> None:
        """Close the current request, timed by the caller around cli.run."""
        self.requests.append([cpu_ns, self._gc_outside_ns])

    def _on_gc(self, phase: str, _info) -> None:
        if self.stack:
            return  # inside a span: part of its self time
        if phase == "start":
            self._gc_start = time.thread_time_ns()
        else:
            self._gc_outside_ns += time.thread_time_ns() - self._gc_start

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[Callable] = None) -> Callable:
        spans, stack, counters, done = self.spans, self.stack, self.counters, self.requests

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, 0, 0, parent, len(done)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.thread_time_ns()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result, spans, parent).items():
                    counters[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the already imported opcalc modules."""
        gc.callbacks.append(self._on_gc)
        modules = [m for key, m in sys.modules.items()
                   if key == "opcalc" or key.startswith("opcalc.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"opcalc.{layer}"]
            for qualified in names:
                owner_name, _, attr = qualified.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = owner.__dict__[attr]
                traced = self.wrap(original, f"{layer}.{qualified}", layer, COUNTERS.get(attr))
                if owner_name:
                    setattr(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": self.counters,
                                 "requests": self.requests}) + "\n")


def load(path: str):
    """Spans, counters and per-request CPU times from one dump."""
    with open(path) as fh:
        items = [json.loads(line) for line in fh]
    if not items or not isinstance(items[-1], dict):
        raise ValueError(f"{path} does not end with the counters line")
    return items[:-1], items[-1]["counters"], items[-1]["requests"]


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def accounting_error(spans: List[list], requests: List[List[int]],
                     overhead_ns: int = WRAPPER_OVERHEAD_NS) -> Optional[str]:
    """None when every child lies inside its parent, no self time is
    negative, and for every request the self times of its spans plus an
    untraced remainder equal the request's time as the serving process
    measured it around cli.run.  The remainder may hold *overhead_ns* and
    the collector's pauses outside every span, no more.  *requests* holds
    one [time, collector pauses outside spans] pair per request."""
    for s in spans:
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] <= s[END] <= spans[p][END]):
            return f"span {s[NAME]} lies outside its parent {spans[p][NAME]}"
    own = self_times(spans)
    if any(t < 0 for t in own):
        return "negative self time"
    traced = [0] * len(requests)
    for s, t in zip(spans, own):
        if not 0 <= s[REQUEST] < len(traced):
            return f"span {s[NAME]} belongs to no timed request"
        traced[s[REQUEST]] += t
    for request, (inside, (total, collector)) in enumerate(zip(traced, requests)):
        if inside > total:
            return (f"request {request}: self times add up to {inside} ns, "
                    f"more than its time {total} ns")
        if total - inside > overhead_ns + collector:
            return (f"request {request}: {total - inside} ns of its {total} ns "
                    "lie outside every span")
    return None


def layer_table(spans: List[list], traced_ns: int) -> Dict[str, float]:
    """<layer>.calls, <layer>.self_s and <layer>.share for every layer;
    a share is self time over *traced_ns*, the traced process's time."""
    calls = {layer: 0 for layer in LAYERS}
    own_ns = {layer: 0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        calls[s[LAYER]] += 1
        own_ns[s[LAYER]] += own
    table: Dict[str, float] = {}
    for layer in LAYERS:
        table[f"{layer}.calls"] = calls[layer]
        table[f"{layer}.self_s"] = own_ns[layer] / 1e9
        table[f"{layer}.share"] = own_ns[layer] / traced_ns if traced_ns else 0.0
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    table["trace.cpu_s"] = traced_ns / 1e9
    table["trace.untraced_share"] = (traced_ns - roots) / traced_ns if traced_ns else 0.0
    return table
