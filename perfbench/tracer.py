"""In-process span tracer for the epbench benchmark.

The tracer wraps the public functions of every ``epbench`` module from the
outside: the package itself is never edited. A wrapper opens a span when its
function is entered and closes it when the function returns or raises. Spans
nest on one stack, so a span's *self time* is its duration minus the
durations of the spans opened directly under it (single-threaded calls never
overlap, so that sum is exactly the covered part of the interval).

Spans are aggregated as they close instead of being kept: the Square attack
alone opens hundreds of thousands of them per run. Counters that a layer's
ratio needs (computed conv GFLOP, examples per call, free-phase steps, query
counts, tape bytes) are read from each call's arguments and result by an
*observer* registered per function name.

The tracer assumes every wrapped call happens on one thread, which holds when
``EPBENCH_THREADS`` is unset (the package then maps work on the calling
thread).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class LayerStat:
    """Aggregates for one wrapped function."""

    calls: int = 0
    total_s: float = 0.0     # inclusive span time
    self_s: float = 0.0      # span time minus child spans
    gflop: float = 0.0       # computed from operand shapes, not counted by hardware
    examples: int = 0        # batch rows seen (dynamics_step, logits_at, square_attack)
    steps: int = 0           # free-phase steps run
    capped: int = 0          # free phases that ran their full step budget
    queries: int = 0         # model queries spent by the Square attack
    bytes_peak: int = 0      # largest UnrolledTape.nbytes() returned

    def merge(self, other: "LayerStat") -> None:
        for f in fields(self):
            if f.name == "bytes_peak":
                self.bytes_peak = max(self.bytes_peak, other.bytes_peak)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def scaled(self, factor: float) -> "LayerStat":
        """Per-execution view of a sum over several identical executions."""
        out = LayerStat()
        for f in fields(self):
            v = getattr(self, f.name)
            setattr(out, f.name, v if f.name == "bytes_peak" else v * factor)
        return out


class Tracer:
    """Span stack plus per-name aggregates. ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list] = []  # [name, start, child seconds]

    def take(self) -> dict[str, LayerStat]:
        """Return the aggregates so far and start new ones."""
        if self._stack:
            raise RuntimeError("cannot take aggregates while spans are open")
        out, self.stats = self.stats, {}
        return out

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> LayerStat:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return st

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                st = self.exit()
            if observe is not None:
                observe(st, args, kwargs, out)
            return out

        wrapper.__traced_original__ = fn
        return wrapper


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def conv_gflop(batch: int, spec, out_h: int, out_w: int) -> float:
    """Computed work of one stride-1 convolution: 2*B*Cout*Cin*k^2*Ho*Wo / 1e9.

    One multiply-add counts as two floating-point operations; padded zeros
    count, because the implementation multiplies them.
    """
    return (2.0 * batch * spec.out_channels * spec.in_channels * spec.kernel ** 2
            * out_h * out_w / 1e9)


def _batch_of(a) -> int:
    a = np.asarray(a)
    return a.shape[0] if a.ndim == 4 else 1


def _observe_conv_out(st, args, kwargs, out):
    # conv2d and conv2d_transpose: work follows the output extent
    spec = _arg(args, kwargs, 2, "spec")
    st.gflop += conv_gflop(_batch_of(out), spec, out.shape[-2], out.shape[-1])


def _observe_weight_grad(st, args, kwargs, out):
    u = np.asarray(_arg(args, kwargs, 1, "u"))
    spec = _arg(args, kwargs, 2, "spec")
    st.gflop += conv_gflop(_batch_of(u), spec, u.shape[-2], u.shape[-1])


def _observe_dynamics_step(st, args, kwargs, out):
    st.examples += _batch_of(_arg(args, kwargs, 0, "x"))


def _observe_logits_at(st, args, kwargs, out):
    st.examples += _batch_of(_arg(args, kwargs, 0, "x"))


def _observe_free_phase(st, args, kwargs, out):
    state = out[0] if isinstance(out, tuple) else out
    spec = _arg(args, kwargs, 2, "spec")
    t = _arg(args, kwargs, 3, "t")
    budget = spec.t_free if t is None else t
    st.steps += state.steps
    st.capped += int(state.steps >= budget)


def _observe_tape(st, args, kwargs, out):
    st.bytes_peak = max(st.bytes_peak, out.nbytes())


def _observe_square(st, args, kwargs, out):
    st.examples += len(out.queries)
    st.queries += int(np.sum(out.queries))


OBSERVERS = {
    "ops.conv2d": _observe_conv_out,
    "ops.conv2d_transpose": _observe_conv_out,
    "ops.conv2d_weight_grad": _observe_weight_grad,
    "energy.dynamics_step": _observe_dynamics_step,
    "energy.logits_at": _observe_logits_at,
    "energy.free_phase": _observe_free_phase,
    "unrolled.record_free_phase": _observe_tape,
    "attacks.square_attack": _observe_square,
}


def package_modules(package) -> list:
    """The package and every submodule of it, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _short(module) -> str:
    return module.__name__.split(".", 1)[1] if "." in module.__name__ else module.__name__


def public_functions(modules) -> dict:
    """{original function: 'module.function'} for functions each module defines."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__ and obj.__name__ == attr):
                found[obj] = f"{_short(mod)}.{attr}"
    return found


class Installation:
    """Wrappers bound into a package; ``remove()`` restores the originals."""

    def __init__(self, tracer: Tracer, package):
        self.modules = package_modules(package)
        self.wrappers = {fn: tracer.wrap(name, fn, OBSERVERS.get(name))
                         for fn, name in public_functions(self.modules).items()}
        self._bound: list[tuple] = []
        # rebind every module attribute that refers to a wrapped function,
        # not only the defining module's: `from .energy import free_phase`
        # leaves a second reference in the importing module
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    setattr(mod, attr, self.wrappers[obj])
                    self._bound.append((mod, attr, obj))

    def remove(self) -> None:
        for mod, attr, obj in self._bound:
            setattr(mod, attr, obj)
        self._bound = []

    def unwrapped_references(self) -> list[str]:
        """Attributes (or their dict/list/tuple members) still holding an original."""
        missed = []
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                members = (obj.values() if isinstance(obj, dict)
                           else obj if isinstance(obj, (list, tuple)) else (obj,))
                for m in members:
                    if inspect.isfunction(m) and m in self.wrappers:
                        missed.append(f"{mod.__name__}.{attr}")
        return missed


# stat name -> (numerator field, denominator field) for the per-layer ratios;
# GFLOP/s divides by inclusive time, since conv2d_transpose does its work in a
# nested conv2d call (whose GFLOP are counted under ops.conv2d as well)
RATIOS = {
    "gflop_per_s": ("gflop", "total_s"),
    "examples_per_call": ("examples", "calls"),
    "steps_per_call": ("steps", "calls"),
    "capped_frac": ("capped", "calls"),
    "queries_per_example": ("queries", "examples"),
}


def stat_value(st: LayerStat, stat: str) -> float:
    """A LayerStat field, or one of the RATIOS (0 when the layer never ran)."""
    if stat in RATIOS:
        num, den = RATIOS[stat]
        d = getattr(st, den)
        return getattr(st, num) / d if d else 0.0
    return getattr(st, stat)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a call of a no-op function (median).

    Observers are not included, so this is a lower bound for the eight
    functions that have one.
    """
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(((time.perf_counter() - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]
