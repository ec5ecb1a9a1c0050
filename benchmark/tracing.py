"""Layer tracing from outside the program.

`Tracer.install()` replaces every public function of the five layer modules,
at every module attribute of the package that refers to it, by a wrapper that
records a span (name, start, end, parent) and counts work at the call
boundary. `uninstall()` puts the originals back. Calls made through module
attributes (`experiments.run_epsilon_sweep(...)`, and every call between the
program's own modules) are traced; a reference taken before `install()` is
not, so the workloads call the program only through module attributes.

Spans are kept in memory and written out by `dump()`. A span's self time is
its duration minus the durations of its direct children; a layer's self time
is the sum over its functions' spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

PACKAGE = "punctured_tensor"
LAYERS = ("tensor_core", "rank_one", "phi_spectrum", "rmt_theory", "experiments")

# Functions reported one by one; every other public function of a layer still
# gets a span, so its time counts in the layer's self time.
REPORTED = {
    "tensor_core": ("generate_spiked", "hadamard", "sample_mask"),
    "rank_one": ("scan_restarts", "solve_critical_point"),
    "phi_spectrum": (
        "build_phi0_streamed", "build_phi", "eigen_spectrum",
        "check_structural_eigenpairs", "predict_factor_derivative",
        "resolvent_solve",
    ),
    "rmt_theory": (
        "solve_spike", "beta_threshold", "epsilon_threshold",
        "real_branch_stieltjes", "support_edge", "solve_stieltjes",
        "limiting_density",
    ),
}
CALL_COUNTS = (
    "rank_one.scan_restarts", "rank_one.solve_critical_point",
    "rmt_theory.real_branch_stieltjes", "rmt_theory.support_edge",
    "rmt_theory.solve_stieltjes",
)
# Calls that run one dense symmetric eigensolve each.
EIGENSOLVERS = (
    "phi_spectrum.eigen_spectrum", "phi_spectrum.check_structural_eigenpairs",
    "phi_spectrum.resolvent_solve",
)


def _volume(shape) -> int:
    n1, n2, n3 = shape.dims
    return n1 * n2 * n3


# Work counted at a call boundary, computed from argument shapes and the
# result: (args, kwargs, result) -> {counter: amount}. Byte counts are the
# float64 tensor bytes each call streams or produces, not measured traffic.
def _count_solve(args, kwargs, cp):
    sweeps = cp.iterations
    # Each power sweep streams the tensor twice (A @ w, then u @ A2).
    return {"rank_one.sweeps": sweeps,
            "rank_one.bytes_computed": 16 * _volume(args[0].shape) * sweeps}


def _count_scan(args, kwargs, result):
    sweeps = args[2] if len(args) > 2 else kwargs["sweeps"]
    return {"rank_one.bytes_computed": 16 * _volume(args[0].shape) * sweeps}


def _count_produced(itemsize):
    def count(args, kwargs, result):
        return {"tensor_core.bytes_computed": itemsize * _volume(result.shape)}
    return count


def _count_phi0(args, kwargs, result):
    shape = args[0] if args else kwargs["shape"]
    return {"phi_spectrum.normals_computed": _volume(shape)}


COUNTERS = {
    "rank_one.solve_critical_point": _count_solve,
    "rank_one.scan_restarts": _count_scan,
    "tensor_core.generate_spiked": _count_produced(8),
    "tensor_core.hadamard": _count_produced(8),
    "tensor_core.sample_mask": _count_produced(1),
    "phi_spectrum.build_phi0_streamed": _count_phi0,
}


def per_layer_metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.self_s")
        for fn in REPORTED.get(layer, ()):
            names.append(f"{layer}.{fn}.self_s")
    names += [f"{q}.calls" for q in CALL_COUNTS]
    names += [
        "tensor_core.bytes_computed", "rank_one.sweeps", "rank_one.bytes_computed",
        "rank_one.convergence_errors", "rank_one.degenerate_errors",
        "phi_spectrum.normals_computed", "phi_spectrum.eigensolves",
        "bench.self_s", "trace.wall_s", "trace.overhead_s",
    ]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent index)
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (qualname, exception type) -> n
        self._stack: list[list] = []  # [span index, child seconds]
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {
            fn: self._wrap(f"{layer}.{name}", fn)
            for layer, mod in zip(LAYERS, modules)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__
        }
        self._targets = [  # (module, attribute, original, wrapper)
            (mod, attr, value, wrappers[value])
            for mod in [importlib.import_module(PACKAGE)] + modules
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def install(self):
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._targets:
            setattr(mod, attr, original)

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(qualname, type(exc).__name__)] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[frame[0]] = (index, start, end, parent)
                duration = end - start
                tracer.self_time[qualname] += duration - frame[1]
                tracer.calls[qualname] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, overhead_s: float):
    """Per-pass per-layer metrics from everything `tracer` recorded.

    `wall_s` is the mean traced pass time, so that the layers' self times and
    `bench.self_s`, the time outside every traced call, add up to it.
    """
    calls, errors = tracer.calls, tracer.errors
    per = 1.0 / passes
    m = defaultdict(float)
    for qualname, seconds in tracer.self_time.items():
        layer, fn = qualname.split(".", 1)
        m[f"{layer}.self_s"] += seconds * per
        m[f"{qualname}.self_s"] += seconds * per
    for q in CALL_COUNTS:
        m[f"{q}.calls"] = calls[q] * per
    for key, n in tracer.counts.items():
        m[key] = n * per
    m["rank_one.convergence_errors"] = errors[
        ("rank_one.solve_critical_point", "ConvergenceError")] * per
    m["rank_one.degenerate_errors"] = errors[
        ("rank_one.solve_critical_point", "DegeneratePointError")] * per
    m["phi_spectrum.eigensolves"] = sum(calls[q] for q in EIGENSOLVERS) * per
    layers_s = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["bench.self_s"] = wall_s - layers_s
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in per_layer_metric_names()}
