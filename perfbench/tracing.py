"""Spans around qpwalk's public functions, installed from outside the package.

A traced pass replaces each hooked function, at every name the package's
modules bind it to, by a wrapper that records one span per call: name, start,
end, the index of the enclosing span (the parent) and an optional work count
taken from the call's arguments or result. Spans stay in memory; the per-layer
metrics are computed from them after the pass, so a layer's self time is its
span durations minus the durations of its direct child spans.

A hook whose target no longer exists (a renamed kernel, a deleted function) is
reported as absent, and every metric built from it is reported as absent too;
the run itself never fails on a missing hook.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


def _arg_reader(fn, name):
    """Return read(args, kwargs) -> value of parameter ``name``, or None if fn has none."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    index = params.index(name)

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else None
    return read


def _count_arg(name):
    def make(fn):
        read = _arg_reader(fn, name)
        if read is None:
            return None
        return lambda args, kwargs, result: int(read(args, kwargs))
    return make


def _count_result_len(fn):
    return lambda args, kwargs, result: len(result)


def _count_kernel(fn):
    """Kernel work as (steps, site_steps).

    Steps come from the ``steps`` argument or the length of ``mats``. Site
    steps are *computed*, not counted: steps times the mean of the live
    window width going in (``lo``/``hi`` arguments) and coming out (the
    returned bounds), which is exact for a window that grows or shrinks
    linearly over the call.
    """
    read_lo, read_hi = _arg_reader(fn, "lo"), _arg_reader(fn, "hi")
    read_steps, read_mats = _arg_reader(fn, "steps"), _arg_reader(fn, "mats")
    if read_lo is None or read_hi is None or (read_steps is None and read_mats is None):
        return None

    def count(args, kwargs, result):
        steps = (int(read_steps(args, kwargs)) if read_steps is not None
                 else len(read_mats(args, kwargs)))
        width_in = read_hi(args, kwargs) - read_lo(args, kwargs) + 1
        width_out = result[1] - result[0] + 1
        return steps, steps * (width_in + width_out) / 2.0
    return count


# (span name, "module:attribute" target with optional glob, counter factory).
# Targets are the public names callers look up; a class attribute target
# ("module:Class.method") is patched on the class.
HOOKS = [
    ("kernels", "qpwalk._kernels:steps_*", _count_kernel),
    ("walk.evolve", "qpwalk.walk:evolve", None),
    ("walk.evolve_tracking_origin", "qpwalk.walk:evolve_tracking_origin", _count_arg("t_max")),
    ("walk.step_matrices", "qpwalk.walk:WalkParams.step_matrices", _count_result_len),
    ("walk.position_distribution", "qpwalk.walk:position_distribution", None),
    ("walk.bloch_vector", "qpwalk.walk:bloch_vector", None),
    ("cli.write_record", "qpwalk.cli:write_record", None),
    ("momentum.regrouped_block", "qpwalk.momentum:regrouped_block", _count_arg("m")),
    ("spinops.operator_norm_2x2", "qpwalk.spinops:operator_norm_2x2", None),
    ("revivals.revival_deviation", "qpwalk.revivals:revival_deviation", None),
    ("revivals.detect_sign", "qpwalk.revivals:detect_sign", None),
    ("noise.return_series", "qpwalk.noise:return_series", None),
    ("noise.draw_fields", "qpwalk.noise:NoiseConfig.draw_fields", None),
    ("gauge.electric_evolve", "qpwalk.gauge:electric_evolve", _count_arg("steps")),
    ("gauge.apply_gauge", "qpwalk.gauge:apply_gauge", None),
    ("cfrac.cf_expand", "qpwalk.cfrac:cf_expand", None),
]


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: int = 0
    end: int = 0
    count: object = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


@dataclass
class Tracer:
    """Installs the hooks for the duration of a ``with`` block and keeps the spans."""

    spans: list = field(default_factory=list)
    # span names whose target was found, and whether their counter is usable
    present: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.count = counter(args, kwargs, result)
                except (TypeError, ValueError, IndexError):
                    pass  # arguments no longer mean what the counter expects
            return result
        wrapper.span_name = name
        return wrapper

    def _rebind(self, old, new):
        """Point every qpwalk module global that is ``old`` at ``new``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qpwalk" or mod_name.startswith("qpwalk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, old))

    def _targets(self, target):
        mod_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            return []
        if "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(module, cls_name, None)
            if inspect.isclass(owner) and inspect.isfunction(owner.__dict__.get(attr)):
                return [(owner, attr)]
            return []
        return [(module, attr) for attr, value in sorted(vars(module).items())
                if fnmatch.fnmatchcase(attr, path)
                and callable(value) and not inspect.isclass(value)]

    def __enter__(self):
        self.present, self.absent = {}, []
        # Resolve every target before wrapping any: a module imported after a
        # rebind would bind the wrapper at import time and keep it on exit.
        resolved = [(name, self._targets(target), make_counter)
                    for name, target, make_counter in HOOKS]
        for name, found, make_counter in resolved:
            if not found:
                self.absent.append(name)
                continue
            usable = True
            for owner, attr in found:
                fn = getattr(owner, attr)
                if hasattr(fn, "span_name"):
                    continue  # an alias of a function wrapped just before
                counter = make_counter(fn) if make_counter else None
                usable = usable and (make_counter is None or counter is not None)
                wrapper = self._wrap(name, fn, counter)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, fn))
                else:
                    self._rebind(fn, wrapper)
            self.present[name] = usable
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, span names it needs, whether it needs their counters)
LAYER_METRICS = {
    "kernels.calls": ("count", ["kernels"], False),
    "kernels.steps": ("count", ["kernels"], True),
    "kernels.busy_s": ("s", ["kernels"], False),
    "kernels.site_steps": ("count.computed", ["kernels"], True),
    "kernels.ns_per_site_step": ("ns", ["kernels"], True),
    "walk.evolve_calls": ("count", ["walk.evolve", "walk.evolve_tracking_origin"], False),
    "walk.evolve_self_s": ("s", ["walk.evolve", "walk.evolve_tracking_origin"], False),
    "walk.step_matrices_steps": ("count", ["walk.step_matrices"], True),
    "walk.step_matrix_ns": ("ns", ["walk.step_matrices"], True),
    "walk.observables_s": ("s", ["walk.position_distribution", "walk.bloch_vector"], False),
    "cli.write_record_s": ("s", ["cli.write_record"], False),
    "cli.bytes_out": ("B", [], False),
    "momentum.block_calls": ("count", ["momentum.regrouped_block"], False),
    "momentum.k_steps": ("count", ["momentum.regrouped_block"], True),
    "momentum.busy_s": ("s", ["momentum.regrouped_block"], False),
    "momentum.ns_per_k_step": ("ns", ["momentum.regrouped_block"], True),
    "spinops.opnorm_calls": ("count", ["spinops.operator_norm_2x2"], False),
    "spinops.opnorm_s": ("s", ["spinops.operator_norm_2x2"], False),
    "revivals.deviation_calls": ("count", ["revivals.revival_deviation"], False),
    "revivals.self_s": ("s", ["revivals.revival_deviation"], False),
    "revivals.useful_k_evals_ratio": (
        "ratio", ["revivals.revival_deviation", "revivals.detect_sign",
                  "momentum.regrouped_block"], False),
    "noise.trajectories": ("count", ["noise.return_series", "walk.evolve_tracking_origin"], False),
    "noise.draw_fields_s": ("s", ["noise.draw_fields"], False),
    "noise.ns_per_trajectory_step": (
        "ns", ["noise.return_series", "walk.evolve_tracking_origin"], True),
    "gauge.electric_steps": ("count", ["gauge.electric_evolve"], True),
    "gauge.electric_s": ("s", ["gauge.electric_evolve"], False),
    "gauge.apply_gauge_s": ("s", ["gauge.apply_gauge"], False),
    "cfrac.cf_expand_s": ("s", ["cfrac.cf_expand"], False),
}


def absent_metrics(present: dict) -> list:
    """Layer metrics that cannot be computed because a hook or its counter is missing."""
    out = []
    for metric, (_, needs, needs_count) in LAYER_METRICS.items():
        if any(n not in present or (needs_count and not present[n]) for n in needs):
            out.append(metric)
    return out


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans: list, bytes_out: int) -> dict:
    """Per-layer values for one traced pass (absent metrics read as 0)."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.seconds

    def ancestor(index, names):
        parent = spans[index].parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        return parent

    calls, busy, self_s, counts = {}, {}, {}, {}
    for i, span in enumerate(spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.seconds
        self_s[span.name] = self_s.get(span.name, 0.0) + span.seconds - child_s[i]
        if span.count is not None:
            counts.setdefault(span.name, []).append(span.count)

    kernel_steps = sum(c[0] for c in counts.get("kernels", []))
    site_steps = sum(c[1] for c in counts.get("kernels", []))
    matrices = sum(counts.get("walk.step_matrices", []))
    k_steps = sum(counts.get("momentum.regrouped_block", []))

    useful = total = 0
    for i, span in enumerate(spans):
        if span.name != "momentum.regrouped_block":
            continue
        dev = ancestor(i, {"revivals.revival_deviation"})
        if dev < 0:
            continue
        total += 1
        useful += ancestor(dev, {"revivals.detect_sign"}) < 0

    trajectories = trajectory_steps = 0
    for i, span in enumerate(spans):
        if (span.name == "walk.evolve_tracking_origin"
                and ancestor(i, {"noise.return_series"}) >= 0):
            trajectories += 1
            trajectory_steps += span.count or 0

    def get(table, *names):
        return sum(table.get(n, 0) for n in names)

    evolve_names = ("walk.evolve", "walk.evolve_tracking_origin")
    return {
        "kernels.calls": get(calls, "kernels"),
        "kernels.steps": kernel_steps,
        "kernels.busy_s": get(busy, "kernels"),
        "kernels.site_steps": site_steps,
        "kernels.ns_per_site_step": _ratio(get(busy, "kernels"), site_steps, 1e9),
        "walk.evolve_calls": get(calls, *evolve_names),
        "walk.evolve_self_s": get(self_s, *evolve_names),
        "walk.step_matrices_steps": matrices,
        "walk.step_matrix_ns": _ratio(get(busy, "walk.step_matrices"), matrices, 1e9),
        "walk.observables_s": get(busy, "walk.position_distribution", "walk.bloch_vector"),
        "cli.write_record_s": get(busy, "cli.write_record"),
        "cli.bytes_out": bytes_out,
        "momentum.block_calls": get(calls, "momentum.regrouped_block"),
        "momentum.k_steps": k_steps,
        "momentum.busy_s": get(busy, "momentum.regrouped_block"),
        "momentum.ns_per_k_step": _ratio(get(busy, "momentum.regrouped_block"), k_steps, 1e9),
        "spinops.opnorm_calls": get(calls, "spinops.operator_norm_2x2"),
        "spinops.opnorm_s": get(busy, "spinops.operator_norm_2x2"),
        "revivals.deviation_calls": get(calls, "revivals.revival_deviation"),
        "revivals.self_s": get(self_s, "revivals.revival_deviation"),
        "revivals.useful_k_evals_ratio": _ratio(useful, total),
        "noise.trajectories": trajectories,
        "noise.draw_fields_s": get(busy, "noise.draw_fields"),
        "noise.ns_per_trajectory_step": _ratio(
            get(busy, "noise.return_series"), trajectory_steps, 1e9),
        "gauge.electric_steps": sum(counts.get("gauge.electric_evolve", [])),
        "gauge.electric_s": get(busy, "gauge.electric_evolve"),
        "gauge.apply_gauge_s": get(busy, "gauge.apply_gauge"),
        "cfrac.cf_expand_s": get(busy, "cfrac.cf_expand"),
    }
