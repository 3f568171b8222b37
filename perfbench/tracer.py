"""Spans around the public functions of every psetdisc layer, from outside src/.

``Tracer.install`` replaces each public function of the layer modules by a
wrapper in every psetdisc namespace that binds it (``psetdisc.cli``,
``psetdisc.qmc``, the package itself, ...), so calls inside a layer and across
layers are all seen; ``uninstall`` puts the originals back.  A span is
[name, CPU start, CPU end, parent index, job, children's seconds, extra]; spans stay
in memory until ``write``.  A tracer made with ``memory=True`` also runs
tracemalloc around each outermost discrepancy/expsum call, where the memory
goes; tracemalloc slows allocation-heavy code severalfold, so the times of
such a pass are not used.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "pointset", "weights", "discrepancy", "expsum", "bounds",
          "numtheory", "qmc")
_HEAVY = ("discrepancy", "expsum")
_MB = 2.0**20

# Process CPU time (user + sys): on a shared VM the hypervisor steals the CPU
# for up to a third of a second at a time, which wall time counts and this
# clock does not.  The child is single-threaded, so it is the job's own time.
CLOCK = time.process_time

# span fields
NAME, START, END, PARENT, JOB, CHILD_S, EXTRA = range(7)


def _positive_subsets(w, s):
    from psetdisc import ProductWeights

    if isinstance(w, ProductWeights):
        out = []
        for mask in range(1, 1 << s):
            u = [j + 1 for j in range(s) if mask >> j & 1]
            if math.prod(w.gamma(j) for j in u) > 0:
                out.append(u)
        return out
    return [u for u, g in w.entries.items() if g > 0]


# work counts, from a call's inputs and result
def _count_exact(args, kwargs, res):
    ps = args[0]
    return {"corners": res.corners_scanned,
            "bigint": ps.n * ps.modulus**ps.dim >= 2**62}


def _count_rhs(args, kwargs, res):
    ps = args[0]
    freq = ps.modulus**ps.dim - 1
    return {"freq": freq, "freq_points": freq * ps.n}


def _count_weighted_rhs(args, kwargs, res):
    ps, w = args[0], args[1]
    freq = sum(ps.modulus**len(u) - 1 for u in _positive_subsets(w, ps.dim))
    return {"freq": freq, "freq_points": freq * ps.n}


_COUNTERS = {
    "discrepancy.star_discrepancy_exact": _count_exact,
    "discrepancy.weighted_star_discrepancy_exact":
        lambda a, k, r: {"subsets": len(r.per_subset)},
    "discrepancy.star_discrepancy_sampled_lb":
        lambda a, k, r: {"trials": a[1] if len(a) > 1 else k["trials"]},
    "expsum.niederreiter_rhs": _count_rhs,
    "expsum.weighted_niederreiter_rhs": _count_weighted_rhs,
    "expsum.weil_bound_check": lambda a, k, r: {"n_checked": r.n_checked},
    "pointset.generate": lambda a, k, r: {"entries": r.n * r.dim},
}


class Tracer:
    def __init__(self, memory: bool = False):
        from psetdisc.config import BudgetError

        self.memory = memory
        self._budget_error = BudgetError
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._heavy_depth = 0
        self._seen_refusal = None
        self._wrappers = {}   # id(original) -> wrapper
        self._patched = []    # (namespace, attribute, original)
        for layer in LAYERS:
            mod = sys.modules[f"psetdisc.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self._wrappers[id(fn)] = self._wrap(layer, f"{layer}.{attr}", fn)

    def _wrap(self, layer, name, fn):
        tracer = self
        count = _COUNTERS.get(name)
        heavy = self.memory and layer in _HEAVY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0.0, {}]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outermost_heavy = heavy and tracer._heavy_depth == 0
            if heavy:
                tracer._heavy_depth += 1
            if outermost_heavy:
                tracemalloc.start()
            span[START] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except tracer._budget_error as exc:
                if exc is not tracer._seen_refusal:  # count where it was raised
                    tracer._seen_refusal = exc
                    span[EXTRA]["refused"] = 1
                raise
            finally:
                span[END] = CLOCK()
                if outermost_heavy:
                    span[EXTRA]["peak_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                if heavy:
                    tracer._heavy_depth -= 1
                stack.pop()
                if span[PARENT] >= 0:
                    tracer.spans[span[PARENT]][CHILD_S] += span[END] - span[START]
            if count is not None:
                span[EXTRA].update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for name, mod in list(sys.modules.items()):
            if name != "psetdisc" and not name.startswith("psetdisc."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp[NAME], "start": sp[START],
                                     "end": sp[END], "parent": sp[PARENT],
                                     "job": sp[JOB], "extra": sp[EXTRA]}) + "\n")


def self_seconds(span) -> float:
    return span[END] - span[START] - span[CHILD_S]


def self_time_by_job(spans) -> dict:
    out = defaultdict(float)
    for sp in spans:
        out[sp[JOB]] += self_seconds(sp)
    return out


def peaks(spans) -> dict[str, float]:
    """Largest tracemalloc peak (MB) per function, from a memory=True pass."""
    out = defaultdict(float)
    for sp in spans:
        if "peak_mb" in sp[EXTRA]:
            out[sp[NAME]] = max(out[sp[NAME]], sp[EXTRA]["peak_mb"])
    return out


def per_layer_metrics(spans, n_passes: int, peak: dict,
                      speed: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-pass layer numbers from the spans of n_passes traced passes and
    the peaks of a memory pass; times are scaled by the calibration speed."""
    calls = defaultdict(int)
    busy = defaultdict(float)       # outermost spans of a layer / function
    self_s = defaultdict(float)
    extra = defaultdict(float)
    for sp in spans:
        name = sp[NAME]
        layer = name.split(".", 1)[0]
        dur = sp[END] - sp[START]
        calls[layer] += 1
        calls[name] += 1
        self_s[layer] += self_seconds(sp)
        self_s[name] += self_seconds(sp)
        # busy time counts a span only when no ancestor is in the same
        # layer (resp. the same function), so nested calls are not doubled
        layer_outer = fn_outer = True
        p = sp[PARENT]
        while p >= 0 and (layer_outer or fn_outer):
            anc = spans[p][NAME]
            layer_outer &= anc.split(".", 1)[0] != layer
            fn_outer &= anc != name
            p = spans[p][PARENT]
        if layer_outer:
            busy[layer] += dur
        if fn_outer:
            busy[name] += dur
        for key, val in sp[EXTRA].items():
            if key == "bigint":
                if val and fn_outer:
                    extra[name + ".bigint_s"] += dur
            elif key == "refused":
                extra[layer + ".refused"] += val
            else:
                extra[f"{name}.{key}"] += val

    n = max(n_passes, 1)
    out: dict[str, tuple[float, str]] = {}

    def put(key, value, unit, per_pass=True):
        if unit in ("s", "ns"):
            value *= speed
        out[key] = (value / n if per_pass else value, unit)

    for layer in LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.s", busy[layer], "s")
        put(f"{layer}.self_s", self_s[layer], "s")
        put(f"{layer}.refused", extra[f"{layer}.refused"], "count")

    sde = "discrepancy.star_discrepancy_exact"
    put(f"{sde}.calls", calls[sde], "count")
    put(f"{sde}.s", busy[sde], "s")
    put(f"{sde}.corners", extra[f"{sde}.corners"], "count")
    put(f"{sde}.ns_per_corner",
        1e9 * busy[sde] / extra[f"{sde}.corners"] if extra[f"{sde}.corners"] else 0.0,
        "ns", per_pass=False)
    put(f"{sde}.bigint_s", extra[f"{sde}.bigint_s"], "s")
    wsde = "discrepancy.weighted_star_discrepancy_exact"
    put(f"{wsde}.s", busy[wsde], "s")
    put(f"{wsde}.subsets", extra[f"{wsde}.subsets"], "count")
    lb = "discrepancy.star_discrepancy_sampled_lb"
    put(f"{lb}.s", busy[lb], "s")
    put(f"{lb}.trials", extra[f"{lb}.trials"], "count")
    for name in (sde, wsde):
        put(f"{name}.peak_mb", peak.get(name, 0.0), "MB", per_pass=False)

    rhs, wrhs = "expsum.niederreiter_rhs", "expsum.weighted_niederreiter_rhs"
    for name in (rhs, wrhs):
        put(f"{name}.s", busy[name], "s")
        put(f"{name}.freq", extra[f"{name}.freq"], "count")
        put(f"{name}.peak_mb", peak.get(name, 0.0), "MB", per_pass=False)
    points = extra[f"{rhs}.freq_points"] + extra[f"{wrhs}.freq_points"]
    put("expsum.ns_per_freq_point",
        1e9 * (busy[rhs] + busy[wrhs]) / points if points else 0.0, "ns", per_pass=False)
    weil = "expsum.weil_bound_check"
    put(f"{weil}.s", busy[weil], "s")
    put(f"{weil}.n_checked", extra[f"{weil}.n_checked"], "count")
    put(f"{weil}.peak_mb", peak.get(weil, 0.0), "MB", per_pass=False)
    put("expsum.korobov_sum.s", busy["expsum.korobov_sum"], "s")
    put("expsum.hua_wang_double_sum.s", busy["expsum.hua_wang_double_sum"], "s")

    put("cli.main.calls", calls["cli.main"], "count")
    put("cli.main.self_s", self_s["cli.main"], "s")
    put("pointset.generate.s", busy["pointset.generate"], "s")
    put("pointset.generate.entries", extra["pointset.generate.entries"], "count")
    put("pointset.project.calls", calls["pointset.project"], "count")
    put("pointset.project.s", busy["pointset.project"], "s")
    put("weights.parse_weights.s", busy["weights.parse_weights"], "s")
    for fn in ("thm1_bound", "thm2_params", "thm2_bound", "n_min_from_bound"):
        put(f"bounds.{fn}.s", busy[f"bounds.{fn}"], "s")
    put("numtheory.next_prime.calls", calls["numtheory.next_prime"], "count")
    put("numtheory.next_prime.s", busy["numtheory.next_prime"], "s")
    put("qmc.convergence_table.s", busy["qmc.convergence_table"], "s")
    return out
