"""In-memory span tracing for the benchmark's traced runs.

A span records one call into a layer: its name, start, end, the span that
was open when it began (its parent), and the operation it belongs to.  An
operation is one benchmark item (a run, a program, a batch of pairs); its
spans are kept in memory until it ends and are then folded into per-name
totals of self time and calls.

Spans are recorded by wrapping public functions and methods of the `tss`
modules for the duration of a traced round (`instrumented`); nothing in
`src/` is changed, and untraced rounds run the original functions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from importlib import import_module

_now = time.perf_counter


def self_times(spans) -> dict[str, list]:
    """Fold spans into {name: [self seconds, calls]}.

    `spans` is a sequence of (name, start, end, parent, ...) with parent the
    index of the enclosing span or -1.  A span's self time is its duration minus
    the durations of its direct children; children of one span never overlap
    (one thread), so the self times of all spans sum to the total duration of
    the root spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        agg = out.setdefault(name, [0.0, 0])
        agg[0] += (end - start) - child[i]
        agg[1] += 1
    return out


class Tracer:
    """Records spans and counters; `op` brackets one operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op id]
        self.stack: list[int] = []
        self.op_id = 0
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.span_count = 0

    def begin(self, name: str) -> None:
        self.spans.append([name, _now(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = _now()

    @contextmanager
    def op(self, root: str = "bench"):
        """One operation; its root span holds the benchmark's own time,
        including the folding of the operation's spans."""
        self.op_id += 1
        self.begin(root)
        try:
            yield
        finally:
            self.end()
            self.stack.clear()
            t0 = _now()
            for name, (s, n) in self_times(self.spans).items():
                agg = self.totals.setdefault(name, [0.0, 0])
                agg[0] += s
                agg[1] += n
            self.span_count += len(self.spans)
            self.spans.clear()
            self.totals[root][0] += _now() - t0

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        if n > self.peaks.get(name, 0):
            self.peaks[name] = n


class _NoOp:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    _op = _NoOp()

    def op(self, root: str = "bench"):
        return self._op

    def count(self, name: str, n: float = 1) -> None:
        pass


def _wrap(fn, name: str, tracer: Tracer, hook=None):
    begin, end = tracer.begin, tracer.end
    if hook is None:
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
    else:
        def traced(*args, **kwargs):
            begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end()
            hook(tracer, out)
            return out
    return traced


def _count_candidates(tr: Tracer, out) -> None:
    tr.count("runtime.enabled_candidates", len(out))


def _count_step(tr: Tracer, out) -> None:
    if out is not None:
        tr.count("runtime.steps")
        tr.peak("runtime.peak_objs", len(out.objs))


def instrument_points():
    """(owner, attribute, span name, hook) for every layer boundary traced.
    Module-level functions are patched in every module that imported them by
    name, so calls from inside `tss` are seen too."""
    (checker, cost, instantiate, parser, printer, reconstruct, runtime,
     subtyping, typeops) = (import_module(f"tss.{m}") for m in (
        "checker", "cost", "instantiate", "parser", "printer", "reconstruct",
        "runtime", "subtyping", "typeops"))
    points = [
        (parser, "parse_program", "parser", None),
        (instantiate, "instantiate_many", "instantiate", None),
        (typeops, "check_contractive", "typeops.check_contractive", None),
        (cost, "instrument", "cost", None),
        (reconstruct, "elaborate_signature", "reconstruct", None),
        (checker, "check_signature", "checker", None),
        (printer, "pretty_print", "printer", None),
        (typeops.TypeOps, "type_equal", "typeops.type_equal", None),
        (typeops.TypeOps, "shift_left_n", "typeops.shift_n", None),
        (typeops.TypeOps, "shift_right_n", "typeops.shift_n", None),
        (subtyping, "is_subtype", "subtyping.is_subtype", None),
        (reconstruct, "is_subtype", "subtyping.is_subtype", None),
        (subtyping, "subtype_oracle", "subtyping.oracle", None),
        (subtyping, "is_weak_subtype", "subtyping.weak", None),
        (runtime, "is_weak_subtype", "subtyping.weak", None),
        (reconstruct.FwdElaborator, "check", "reconstruct.fwd_check", None),
        (checker, "check_process", "checker.check_process", None),
        (runtime, "check_process", "checker.check_process", None),
        (runtime, "check_configuration", "runtime.check_configuration", None),
        (runtime.Engine, "run", "runtime.run", None),
        (runtime.Engine, "step", "runtime.step", _count_step),
        (runtime.Engine, "enabled", "runtime.enabled", _count_candidates),
        (runtime.Configuration, "copy", "runtime.copy", None),
    ]
    for sched in ("RoundRobin", "SeededRandom", "TimeSynchronous"):
        cls = getattr(runtime, sched, None)
        if cls is not None:
            points.append((cls, "pick", "runtime.pick", None))
    # A point a later version of tss no longer has is skipped; its metrics
    # then read 0 rather than breaking the benchmark.
    return [p for p in points if callable(getattr(p[0], p[1], None))]


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every instrument point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in instrument_points():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, name, tracer, hook))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
