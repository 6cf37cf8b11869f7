"""Quick self-test of the benchmark's own reference checks, span arithmetic
and metric plumbing; runs no workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def reference_kernel():
    """A calibration kernel that always reads the reference time, so that
    item times are not rescaled."""
    return run.KERNEL_REF_S


def test_self_time_is_duration_minus_children():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0),
             ("a", 5.0, 6.0, 2)]
    got = self_times(spans)
    assert got == {"root": [4.0, 1], "a": [3.0, 2], "b": [3.0, 1]}
    assert sum(s for s, _ in got.values()) == 10.0


def test_tracer_keeps_parents_and_op_ids():
    tr = Tracer()
    with tr.op():
        tr.begin("x")
        tr.begin("y")
        assert [s[3] for s in tr.spans] == [-1, 0, 1]
        assert {s[4] for s in tr.spans} == {1}
        tr.end()
        tr.end()
    assert set(tr.totals) == {"bench", "x", "y"}
    assert tr.span_count == 3 and not tr.spans


def test_closed_forms():
    assert workloads.expected_chain("queue_rs.tss", {"n": 3}) == \
        [("chan", 12), ("close", 13)]
    assert workloads.expected_chain("tree_rs.tss", {"h": 0}) == \
        [("label:b1", 3), ("close", 4)]
    assert workloads.expected_chain("tree_rs.tss", {"h": 2}) == \
        [("label:b0", 13), ("close", 14)]
    assert workloads.expected_chain("fold_rs.tss", {"n": 2, "k": 1}) == \
        [("label:b0", 19), ("close", 20)]


def test_run_reference_check():
    good = [("chan", "c9", 8), ("close", "", 9)]
    bind = {"n": 2}
    assert workloads.run_error("queue_rs.tss", bind, "quiescent", True,
                               good) is None
    late = [("chan", "c9", 8), ("close", "", 10)]
    assert "closed form" in workloads.run_error("queue_rs.tss", bind,
                                                "quiescent", True, late)
    assert "budget" in workloads.run_error("queue_rs.tss", bind, "budget",
                                           True, good)
    assert "poised" in workloads.run_error("queue_rs.tss", bind,
                                           "quiescent", False, good)
    wrong_label = [("label", "b1", 13), ("close", "", 14)]
    assert workloads.run_error("tree_rs.tss", {"h": 2}, "quiescent", True,
                               wrong_label)


def test_verdict_and_pair_checks():
    assert workloads.verdict_error("ok", "ok") is None
    assert workloads.verdict_error("recon_error", "ok")
    assert workloads.pair_error(True, True, True, True) is None
    assert workloads.pair_error(False, False, False, False) is None
    assert workloads.pair_error(True, True, False, True)
    assert workloads.pair_error(False, True, True, True)


def test_recorder_counts_failures_and_nondeterminism():
    rec = run.Recorder(workloads.KNOWN_DEFECTS, kernel=reference_kernel)
    rec.item("a", 0.1, 1, exact=(1, 2))
    rec.item("a", 0.1, 1, exact=(1, 2))
    assert rec.failed == 0
    rec.item("a", 0.1, 1, exact=(1, 3))
    assert rec.failed == 1 and rec.unexpected == 1
    rec.item("b", 0.1, 1, error=RecursionError("deep"), stage="reconstruct")
    assert rec.failed == 2 and rec.unexpected == 1
    rec.item("c", 0.1, 1, error=RecursionError("deep"), stage="parse")
    assert rec.failed == 3 and rec.unexpected == 2
    rec.item("d", 0.1, 1, error="verdict ok, expected recon_error")
    assert rec.failed == 4 and rec.unexpected == 3 and rec.attempted == 6


def test_digest_depends_only_on_exact_counts():
    one, two = (run.Recorder({}, kernel=reference_kernel) for _ in range(2))
    for rec, t in ((one, 0.1), (two, 0.7)):
        rec.item("x", t, 5, exact=(5, 9))
        rec.item("y", t, 5, exact=("ok",))
    assert one.digest() == two.digest()
    two.item("z", 0.1, 1, exact=(1,))
    assert one.digest() != two.digest()


def test_latency_reservoir_is_bounded_and_uniform():
    rec = run.Recorder({}, kernel=reference_kernel)
    rec.item("x", 0.0, 1, latencies=[float(i) for i in range(3 * run.RESERVOIR)])
    assert rec.seen == 3 * run.RESERVOIR
    assert len(rec.samples) == run.RESERVOIR
    mean = sum(rec.samples) / len(rec.samples)
    assert abs(mean / (1.5 * run.RESERVOIR) - 1) < 0.05


def test_times_are_scaled_to_reference_speed():
    slow = run.Recorder({}, kernel=lambda: 2 * run.KERNEL_REF_S)
    slow.item("x", 4.0, 8, growth={"large": (4.0, 1)}, latencies=[1.0, 3.0])
    assert slow.seconds == 2.0 and slow.raw_seconds == 4.0
    assert list(slow.samples) == [0.5, 1.5]
    assert slow.growth["large"] == [2.0, 1]


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0


def test_end_to_end_growth_and_shares():
    rec = run.Recorder({}, kernel=reference_kernel)
    for large in (8.0, 12.0, 4.0):
        rec.item("small", 1.0, 10, growth={"small": (1.0, 10)})
        rec.item("small", 1.0, 10, growth={"small": (1.0, 10)})
        rec.item("large", large, 40, growth={"large": (large, 40)})
    m = run.end_to_end(rec, [0.3, 0.1, 0.2], 1.0)
    assert m["work_per_s"][0] == 180 / 30
    assert m["cost_growth"][0] == (24.0 / 120) / (6.0 / 60)
    assert m["item_p50_ms"][0] == 1e3 * 1.0
    assert m["setup_s"][0] == 0.2
    assert m["ok_share"][0] == 1.0
    rec.item("other", 1.0, 0, error="wrong")
    assert run.end_to_end(rec, [0.1], 1.0)["ok_share"][0] == 1 - 1 / 10


def test_universe_reference():
    keys, rows = workloads.load_universe_ref()
    assert len(keys) == workloads.UNIVERSE_TYPES == len(set(keys))
    assert sum(bin(r).count("1") for r in rows) == \
        workloads.UNIVERSE_TRUE_PAIRS
    assert all(r >> i & 1 for i, r in enumerate(rows))  # reflexivity
    assert all(r < 1 << len(keys) for r in rows)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    rec = run.Recorder({}, kernel=reference_kernel)
    rec.item("s", 1.0, 1, growth={"small": (1.0, 1)})
    rec.item("l", 1.0, 1, growth={"large": (1.0, 1)})
    reported = run.end_to_end(rec, [1.0], 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit, _) in reported.items()]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == \
        set(workloads.WORKLOADS)
