"""Benchmark for tss: runs one workload in this process and prints its
metrics, the last line being one JSON object.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics,
the tracing overhead and how much of the traced wall time the spans
account for.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before tss loads

import argparse
import array
import collections
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from spans import NullTracer, Tracer, instrumented

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("run-scaled", "preserve", "compile", "universe")
SETUP_CHILDREN = 2  # set-up is sampled here and in this many fresh processes
TAIL_PCT = 90  # every run records hundreds of samples or more
RESERVOIR = 20_000  # latency samples kept, drawn uniformly from all seen
# Machine-speed normalization: a fixed pure-Python kernel is timed after
# every CALIBRATE_EVERY seconds of items, and each item's times are scaled
# by KERNEL_REF_S over the median of the last CALIBRATIONS kernel times.
CALIBRATE_EVERY = 0.1
CALIBRATIONS = 5
KERNEL_REF_S = 1e-3


def kernel_seconds() -> float:
    """Time one run of the calibration kernel (dict and list work, like
    the interpreter's), with the collector off as for items."""
    gc.disable()
    t0 = time.perf_counter()
    d: dict = {}
    acc = []
    for i in range(8000):
        k = i % 97
        d[k] = d.get(k, 0) + i
        acc.append((k, i))
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


class Recorder:
    """Collects work and time, unit latencies, growth groups, exact-repeat
    counts and failures across the rounds of one process.  Its memory does
    not grow with the number of rounds, so that a faster program, which
    runs more rounds, does not read as using more memory: latencies are
    kept in a fixed-size uniform sample (reservoir sampling)."""

    def __init__(self, known_defects: dict, kernel=kernel_seconds):
        self.known_defects = known_defects
        self.kernel = kernel
        self.work = 0.0
        self.seconds = 0.0
        self.growth = {"small": [0.0, 0], "large": [0.0, 0]}  # [s, units]
        self.exact: dict[str, tuple] = {}
        self.samples = array.array("d")
        self.seen = 0
        self._rng = random.Random(0)
        self.raw_seconds = 0.0
        self._kernel = collections.deque(
            (kernel() for _ in range(CALIBRATIONS)), maxlen=CALIBRATIONS)
        self._since_calibration = 0.0
        self.failures: dict[str, int] = {}  # message -> occurrences
        self.unexpected = 0  # failures that are not a known defect
        self.known = 0
        self.attempted = 0
        self.failed = 0

    def item(self, key: str, seconds: float, work: float, growth=None,
             exact=None, error=None, stage=None, latencies=None) -> None:
        """One timed item.  `growth` maps "small"/"large" to the seconds
        and units of work the item spent on small or large inputs;
        `latencies` are the times of its units of work when those are
        finer than the item (the steps of a run)."""
        self.attempted += 1
        self.raw_seconds += seconds
        self._since_calibration += seconds
        if self._since_calibration >= CALIBRATE_EVERY:
            self._kernel.append(self.kernel())
            self._since_calibration = 0.0
        scale = KERNEL_REF_S / statistics.median(self._kernel)
        seconds *= scale
        for x in ([seconds] if latencies is None else
                  (scale * t for t in latencies)):
            self.seen += 1
            if len(self.samples) < RESERVOIR:
                self.samples.append(x)
            else:
                j = self._rng.randrange(self.seen)
                if j < RESERVOIR:
                    self.samples[j] = x
        self.work += work
        self.seconds += seconds
        for group, (s, units) in (growth or {}).items():
            self.growth[group][0] += scale * s
            self.growth[group][1] += units
        problems = []
        if exact is not None:
            first = self.exact.setdefault(key, exact)
            if first != exact:
                problems.append((f"nondeterminism: {exact!r} after {first!r}",
                                 None))
        if isinstance(error, BaseException):
            name = type(error).__name__
            where = f" in {stage}" if stage else ""
            problems.append((f"{name}{where}: {str(error)[:160]}",
                             self.known_defects.get((name, stage))))
        elif error is not None:
            problems.append((error, None))
        if problems:
            self.failed += 1
        for msg, known in problems:
            text = f"{key}: {msg}" + (" [known defect]" if known else "")
            self.failures[text] = self.failures.get(text, 0) + 1
            self.unexpected += known is None
            self.known += known is not None

    def summary(self, fields: tuple[str, ...]) -> str:
        """Totals of the first round's exact-repeat counts: sums of numbers
        and booleans, tallies of verdicts, distinct values of the rest."""
        out = []
        for i, name in enumerate(fields):
            values = [e[i] for e in self.exact.values()]
            if all(isinstance(v, int) for v in values):
                out.append(f"{name}={sum(values)}")
            elif all(isinstance(v, str) for v in values):
                tally = {v: values.count(v) for v in sorted(set(values))}
                out.append(f"{name}={tally}")
            else:
                out.append(f"{name}={len(set(values))} distinct")
        return " ".join(out)

    def digest(self) -> str:
        """Fingerprint of every exact-repeat count; equal for two processes
        with the same workload and seed."""
        text = repr(sorted(self.exact.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def end_to_end(rec: Recorder, setup: list[float],
               peak_rss_mb: float) -> dict[str, tuple]:
    (t_small, n_small), (t_large, n_large) = (rec.growth["small"],
                                              rec.growth["large"])
    # 0 when a group saw no successful item; the failures are reported.
    growth = (t_large / n_large) / (t_small / n_small) \
        if n_large and n_small and t_small else 0.0

    n = len(rec.samples)
    beyond = n - math.ceil(TAIL_PCT / 100 * n)
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups"),
        "work_per_s": (rec.work / rec.seconds, "1/s",
                       f"{rec.work:.0f} units in {rec.seconds:.1f} s of "
                       f"items at reference speed ({rec.raw_seconds:.1f} s "
                       f"as measured)"),
        "item_p50_ms": (1e3 * statistics.median(rec.samples), "ms",
                        f"{n} of {rec.seen} samples"),
        f"item_p{TAIL_PCT}_ms": (1e3 * percentile(rec.samples, TAIL_PCT),
                                 "ms", f"{n} of {rec.seen} samples, "
                                       f"{beyond} beyond"),
        "cost_growth": (growth, "ratio",
                        f"unit cost over {n_large} large and {n_small} "
                        f"small units"),
        "ok_share": (1 - rec.failed / rec.attempted, "share",
                     f"{rec.attempted - rec.failed} of {rec.attempted}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "this process, at the end of "
                        "the measured rounds"),
    }


# name, unit, better; values computed in per_layer()
PER_LAYER = [
    ("runtime.run_s", "s", "lower"),
    ("runtime.enabled_s", "s", "lower"),
    ("runtime.steps", "count", "lower"),
    ("runtime.enabled_candidates_per_step", "count", "lower"),
    ("runtime.pick_s", "s", "lower"),
    ("runtime.copy_calls", "count", "lower"),
    ("runtime.copy_s", "s", "lower"),
    ("runtime.peak_objs", "count", "lower"),
    ("runtime.final_clock", "count", "lower"),
    ("typeops.shift_n_calls", "count", "lower"),
    ("typeops.shift_n_s", "s", "lower"),
    ("runtime.check_configuration_s", "s", "lower"),
    ("runtime.cfg_objs_examined", "count", "lower"),
    ("runtime.cfg_cache_hit_ratio", "ratio", "higher"),
    ("checker.check_process_s", "s", "lower"),
    ("subtyping.weak_calls", "count", "lower"),
    ("subtyping.weak_s", "s", "lower"),
    ("typeops.type_equal_calls", "count", "lower"),
    ("typeops.type_equal_s", "s", "lower"),
    ("subtyping.is_subtype_s", "s", "lower"),
    ("subtyping.memo_entries", "count", "lower"),
    ("subtyping.oracle_s", "s", "lower"),
    ("reconstruct.fwd_check_s", "s", "lower"),
    ("parser.s", "s", "lower"),
    ("parser.bytes_per_s", "B/s", "higher"),
    ("instantiate.s", "s", "lower"),
    ("instantiate.defs_out", "count", "lower"),
    ("cost.s", "s", "lower"),
    ("cost.ticks_inserted", "count", "lower"),
    ("reconstruct.s", "s", "lower"),
    ("reconstruct.printed_bytes", "B", "lower"),
    ("reconstruct.rejections", "count", "higher"),
    ("checker.s", "s", "lower"),
    ("printer.s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.accounted_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer(tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-round values from the traced rounds (times are self times)."""
    rounds = len(traced)
    tot, cnt = tracer.totals, tracer.counters

    def s(*names):
        return sum(tot.get(n, (0.0, 0))[0] for n in names) / rounds

    def calls(name):
        return tot.get(name, (0.0, 0))[1] / rounds

    def c(name):
        return cnt.get(name, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    examined = cnt.get("runtime.cfg_objs_examined", 0)
    wall = sum(traced)
    # Traced over untraced time of each pair of rounds; the first pair, a
    # cold start, is left out when there are others.
    pairs = [t / u for t, u in zip(traced, untraced)]
    v = {
        "runtime.run_s": s("runtime.run", "runtime.step"),
        "runtime.enabled_s": s("runtime.enabled"),
        "runtime.steps": c("runtime.steps"),
        "runtime.enabled_candidates_per_step": ratio(
            cnt.get("runtime.enabled_candidates", 0),
            cnt.get("runtime.steps", 0)),
        "runtime.pick_s": s("runtime.pick"),
        "runtime.copy_calls": calls("runtime.copy"),
        "runtime.copy_s": s("runtime.copy"),
        "runtime.peak_objs": tracer.peaks.get("runtime.peak_objs", 0),
        "runtime.final_clock": c("runtime.final_clock"),
        "typeops.shift_n_calls": calls("typeops.shift_n"),
        "typeops.shift_n_s": s("typeops.shift_n"),
        "runtime.check_configuration_s": s("runtime.check_configuration"),
        "runtime.cfg_objs_examined": c("runtime.cfg_objs_examined"),
        "runtime.cfg_cache_hit_ratio": ratio(
            examined - cnt.get("runtime.cfg_cache_misses", 0), examined),
        "checker.check_process_s": s("checker.check_process"),
        "subtyping.weak_calls": calls("subtyping.weak"),
        "subtyping.weak_s": s("subtyping.weak"),
        "typeops.type_equal_calls": calls("typeops.type_equal"),
        "typeops.type_equal_s": s("typeops.type_equal"),
        "subtyping.is_subtype_s": s("subtyping.is_subtype"),
        "subtyping.memo_entries": c("subtyping.memo_entries"),
        "subtyping.oracle_s": s("subtyping.oracle"),
        "reconstruct.fwd_check_s": s("reconstruct.fwd_check"),
        "parser.s": s("parser"),
        "parser.bytes_per_s": ratio(c("parser.bytes"), s("parser")),
        "instantiate.s": s("instantiate"),
        "instantiate.defs_out": c("instantiate.defs_out"),
        "cost.s": s("cost"),
        "cost.ticks_inserted": c("cost.ticks_inserted"),
        "reconstruct.s": s("reconstruct"),
        "reconstruct.printed_bytes": c("reconstruct.printed_bytes"),
        "reconstruct.rejections": c("reconstruct.rejections"),
        "checker.s": s("checker"),
        "printer.s": s("printer"),
        "bench.self_s": s("bench"),
        "trace.wall_s": wall / rounds,
        "trace.accounted_share": sum(t for t, _ in tot.values()) / wall,
        "trace.overhead_share": statistics.median(pairs[1:] or pairs) - 1,
        "trace.spans": tracer.span_count / rounds,
    }
    return {name: (v[name], unit, f"per round over {rounds} traced rounds")
            for name, unit, _ in PER_LAYER}


def setup_in_child(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, rec, seconds: float, trace: bool):
    """Complete rounds until `seconds` have passed.  Traced runs alternate
    an untraced and a traced round and return both lists of round times."""
    null, tracer = NullTracer(), Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        wl.round(rec, null)
        untraced.append(time.perf_counter() - t0)
        if trace:
            gc.collect()
            t0 = time.perf_counter()
            with instrumented(tracer):
                wl.round(rec, tracer)
            traced.append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            return tracer, untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "tss" / "__init__.py").is_file():
        print(f"perfbench: no tss sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tss
    if Path(tss.__file__).resolve().parent != (SRC / "tss").resolve():
        print(f"perfbench: imported tss from {tss.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    gc.freeze()  # set-up's objects stay out of the measured collections
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = Recorder(workloads.KNOWN_DEFECTS)
    tracer, untraced, traced = measure(wl, rec, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        setup = [setup_s] + [setup_in_child(args)
                             for _ in range(SETUP_CHILDREN)]
        metrics = end_to_end(rec, setup, peak_rss_mb)

    rounds = len(untraced) + len(traced)
    print(f"tss benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {rounds} rounds, {rec.attempted} items "
          f"attempted, {rec.failed} failed ({rec.known} known defects, "
          f"{rec.unexpected} unexpected failures)")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:6s} {base}")
    for text, n in sorted(rec.failures.items()):
        print(f"  failed {n}x {text}")
    if rec.known:
        for defect in workloads.KNOWN_DEFECTS.values():
            print(f"  known defect: {defect}")
    print(f"exact-repeat counts: {rec.summary(wl.exact_fields)}")
    print(f"exact-repeat digest {rec.digest()} over {len(rec.exact)} items")
    print(json.dumps({
        "correct": rec.unexpected == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
