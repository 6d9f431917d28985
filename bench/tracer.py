"""Spans around calls into permprod's public functions.

The library carries no instrumentation.  `install` replaces each function in
`TARGETS` by a wrapper, under every name a permprod module holds it by (so
`verify.growth_exponent` is patched as well as `traffic.growth_exponent`),
and the returned callable puts the originals back.  A wrapper returns exactly
what the wrapped function returns; for a generator function it yields
exactly the same items, and each resumption of the generator is one span.

Spans are not stored one by one: the tracer keeps, per function, the number
of calls and the self time, which is a span's duration minus the part of it
that nested spans cover.  Time no span covers is the caller's own.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# module -> public functions whose calls are timed; grouped as the layers the
# benchmark reports (see bench/README.md for the layer -> metric map)
LAYERS = {
    "partitions": ("enumerate_partitions", "meet", "join", "Partition.from_labels"),
    "digraphs": ("two_edge_decompose", "weak_components"),
    "traffic": (
        # kernel analysis
        "all_rho",
        "enumerate_admissible",
        "growth_exponent",
        "color_quotient",
        "gcc",
        "all_gcc_trees",
        "enumerate_tree_partitions",
        # labeling enumeration
        "gamma_empirical",
        "lambda_value",
        # graph sums
        "trace_test_graph",
        "raw_graph_sum",
        "underline_labels",
    ),
    "tensor": (
        "lift",
        "conjugate_by_color",
        "chain_product",
        "centered_chain_norm_sq",
        "sample_uniform_permutation",
        "perm_word_trace",
    ),
    "chains": (
        "build_squared_chain",
        "chain_factors",
        "signed_expansion_check",
        "convergence_run",
        "inconsistency_search",
    ),
    "sofic": ("certify", "word_triviality", "graph_product_rep", "pad_rep"),
    "verify": ("exponent_suite", "kernel_suite", "check_claims"),
    "serialize": ("load_test_graph", "dump_json"),
    "cli": ("main",),
}

TARGETS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# counts computed from a call's arguments and result, outside its span
EXTRA_COUNTS = {
    "tensor.lift": lambda a, k, r: {"bytes": r.nbytes},
    "tensor.chain_product": lambda a, k, r: {
        "ops": sum(x.shape[0] ** 3 for x in _arg(a, k, 1, "xs"))
    },
    "tensor.perm_word_trace": lambda a, k, r: {
        "points": _arg(a, k, 1, "space").total_dim * len(_arg(a, k, 0, "factors"))
    },
    "serialize.dump_json": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "traffic.gamma_empirical": lambda a, k, r: {"nonzero": int(r != 0)},
    "traffic.all_gcc_trees": lambda a, k, r: {"true": int(bool(r))},
}

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "traffic.gamma_empirical.nonzero_ratio": ("traffic.gamma_empirical.nonzero", "traffic.gamma_empirical.calls"),
    "traffic.all_gcc_trees.true_ratio": ("traffic.all_gcc_trees.true", "traffic.all_gcc_trees.calls"),
}

COUNT_METRICS = (
    "tensor.lift.bytes",
    "tensor.chain_product.ops",
    "tensor.perm_word_trace.points",
    "serialize.dump_json.bytes",
)


class Tracer:
    """Per-function call counts, self seconds and extra counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []  # one entry per open span

    def enter(self) -> float:
        self._child_time.append(0.0)
        return self.clock()

    def exit(self, name: str, start: float) -> None:
        dur = self.clock() - start
        self.self_s[name] += dur - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += dur

    def snapshot(self) -> dict:
        """Plain copy of the counters, keyed by metric name."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.self_s.items():
            out[f"{name}.self_s"] = s
        out.update(self.counts)
        return out

    def wrap(self, name: str, fn):
        extra = EXTRA_COUNTS.get(name)

        def record_extra(args, kwargs, result):
            for key, value in extra(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._iterate(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name, start)
            if extra is not None:
                record_extra(args, kwargs, result)
            return result

        return wrapper

    def _iterate(self, name, it):
        try:
            while True:
                start = self.enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(name, start)
                yield item
        finally:
            it.close()


def _permprod_modules():
    return [m for key, m in list(sys.modules.items()) if key == "permprod" or key.startswith("permprod.")]


def install(tracer: Tracer):
    """Patch every target under every name permprod modules hold it by;
    returns a function that restores the originals."""
    import permprod  # noqa: F401  (loads every submodule)

    modules = _permprod_modules()
    undo = []
    for target in TARGETS:
        mod_name, _, attr = target.partition(".")
        module = sys.modules[f"permprod.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if not isinstance(raw, staticmethod):
                raise TypeError(f"{target} is not a static method")
            setattr(cls, meth, staticmethod(tracer.wrap(target, raw.__func__)))
            undo.append((cls, meth, raw))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(target, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


def layer_metrics(per_pass: dict, traced_wall: float) -> dict:
    """Every per-layer metric of one traced pass, from its counters; zero
    where a function was never called.  `trace_overhead_s` needs an untraced
    pass and is added by the runner."""
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = per_pass.get(f"{target}.calls", 0)
        out[f"{target}.self_s"] = per_pass.get(f"{target}.self_s", 0.0)
    for key in COUNT_METRICS:
        out[key] = per_pass.get(key, 0)
    for key, (num, den) in RATIOS.items():
        d = per_pass.get(den, 0)
        out[key] = per_pass.get(num, 0) / d if d else 0.0
    covered = sum(per_pass.get(f"{t}.self_s", 0.0) for t in TARGETS)
    out["other.self_s"] = traced_wall - covered
    return out
