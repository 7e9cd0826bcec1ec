"""Per-layer spans recorded from outside the lqmc package.

``Tracer.install`` wraps every public function of each lqmc module at
every module that bound it by name, the ``BaselinePrng`` methods on the
class, and the gradient callables of the potential that
``bench.build_model`` returns.  Spans (name, start, end, parent) stay in
memory until ``write``; ``restore`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cud_core", "drive", "prng", "samplers", "models", "bench",
          "experiment", "cli")
PRNG_METHODS = ("uint64", "uniform", "index_subset")
POTENTIAL_FIELDS = ("grad", "sgrad", "grad_batch")


def _config_steps(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[1]
    return config.n_steps


# Work counts taken at span boundaries: span name -> (counter, count function).
COUNTERS = {
    "cud_core.generate_cud": ("cud_core.values", lambda a, k, r: len(r.values)),
    "drive.gaussian_rows": ("drive.normals", lambda a, k, r: r.xi.size),
    "drive.clamped_normal": ("drive.normals", lambda a, k, r: r.size),
    "samplers.run_chain": ("samplers.steps", _config_steps),
}

# Per-layer metrics reported from a traced run; see aggregate().
SPAN_METRICS = (
    "cud_core.generate_cud.s", "cud_core.lfsr_bitstream.s",
    "cud_core.lfsr_period.s",
    "drive.gaussian_rows.s", "drive.build_drive_matrix.s",
    "drive.clamped_normal.s",
    "prng.uniform.s", "prng.uniform.calls",
    "prng.index_subset.s", "prng.index_subset.calls",
    "models.grad.s", "models.grad.calls", "models.sgrad.s",
    "models.sgrad.calls", "models.grad_batch.s", "models.grad_batch.calls",
    "models.reference_ground_truth.self_s",
    "samplers.run_chain.s", "samplers.run_chain.self_s",
    "bench.run_comparison.self_s", "bench.build_model.s",
    "experiment.load_spec.s", "cli.main.self_s",
)
COUNT_METRICS = ("cud_core.values", "drive.normals", "samplers.steps")
ROOT = "run.call"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list = []  # (owner, attribute, original)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the timed call)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        layers = {layer: importlib.import_module(f"lqmc.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lqmc" or n.startswith("lqmc."))]
        wrappers = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)

        build_model = layers["bench"].build_model

        def build_model_traced(spec):
            potential, data = build_model(spec)
            fields = {f: self.wrap(f"models.{f}", getattr(potential, f))
                      for f in POTENTIAL_FIELDS if getattr(potential, f) is not None}
            return dataclasses.replace(potential, **fields), data

        wrappers[build_model] = self.wrap(
            "bench.build_model", functools.wraps(build_model)(build_model_traced))

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        prng = layers["prng"].BaselinePrng
        for meth in PRNG_METHODS:
            self._patch(prng, meth, self.wrap(f"prng.{meth}", prng.__dict__[meth]))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "counts": dict(self.counts),
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]},
                      fh, separators=(",", ":"))


def span_totals(spans):
    """Busy time, self time and call count per span name, in nanoseconds.

    Busy time counts only spans with no ancestor of the same name, so
    recursion is not counted twice; self time is span time minus the time
    of its child spans.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, own, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += end - start - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start
    return busy, own, calls


def aggregate(spans, counts) -> dict[str, float]:
    """The per-layer metrics: ``<name>.s``, ``<name>.self_s``, ``<name>.calls``."""
    busy, own, calls = span_totals(spans)
    out = {}
    for metric in SPAN_METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = calls[name]
        else:
            out[metric] = (busy if kind == "s" else own)[name] * 1e-9
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    steps = out["samplers.steps"]
    out["samplers.self_us_per_step"] = (
        out["samplers.run_chain.self_s"] / steps * 1e6 if steps else 0.0)
    root = busy[ROOT]
    out["trace.unattributed_frac"] = own[ROOT] / root if root else 0.0
    return out
