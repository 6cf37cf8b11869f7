import ast as pyast
import dataclasses
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from fuzzgen import gen_program
import tss.ast
import tss.checker
from tss import corpus, runtime
from tss.ast import (ONE, Close, Delay, Fwd, IVar, Now, Origin, Plus,
                     SendChan, SendLabel, TailCall, Wait, When, free_chans,
                     next_type)
from tss.errors import ConfigTypeError, RunError, StuckError
from tss.parser import parse_program, parse_type
from tss.pipeline import load
from tss.runtime import (Configuration, Engine, Obj, Trace,
                         check_configuration, init_config, is_poised,
                         is_poised_obj, make_scheduler)
from tss.typeops import TypeOps

SIX = """
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl six : . |- (x : bits)
proc x <- six = x.b0 ; x.b1 ; x.b1 ; x.$ ; close x
"""


def prepare(src, main):
    prog = load(src, [main], {}, "r")
    assert prog.verdict == "ok", [str(e) for e in prog.errors]
    return prog


@pytest.fixture(scope="module")
def six():
    return prepare(SIX, "six")


def test_init_config_single_root_proc(six):
    cfg = init_config(six.elab, "six")
    root = cfg.order[0]
    assert cfg.objs[root].kind == "proc"
    assert cfg.objs[root].time == 0
    assert isinstance(cfg.objs[root].body, TailCall)


def test_init_rejects_unknown_and_contextful():
    elab = prepare(SIX, "six").elab
    with pytest.raises(RunError, match="unknown"):
        init_config(elab, "nonesuch")
    elab2 = prepare(SIX + """
decl copy : (y : bits) |- (x : ()bits)
proc x <- copy <- y =
  case y ( b0 => x.b0 ; x <- copy <- y
         | b1 => x.b1 ; x <- copy <- y
         | $  => x.$ ; wait y ; close x )
""", "copy").elab
    with pytest.raises(RunError, match="context"):
        init_config(elab2, "copy")


ILL_TYPED_RUNS = [
    ("decl f : . |- (x : 1)\nproc x <- f = x.a ; close x\n", "f",
     RunError, "2:15: c1 is not an internal choice"),
    ("decl g : . |- (y : 1)\ndecl f : . |- (x : 1)\n"
     "proc x <- f = y <- g ; wait y ; close x\n", "f",
     RunError, "3:15: process 'g' has no definition"),
    ("type t = &{ a : 1 }\ndecl g : . |- (y : t)\n"
     "proc y <- g = case y ( a => close y )\ndecl f : . |- (x : 1)\n"
     "proc x <- f = y <- g ; wait y ; close x\n", "f",
     StuckError, "5:24: configuration is stuck and not poised: "
     "proc(c1, 0, wait c2 ; close c1)"),
    ("decl p : . |- (y : <>1)\nproc y <- p = delay ; now! y ; close y\n"
     "decl q : . |- (z : 1)\nproc z <- q = close z\ndecl main : . |- (x : 1)\n"
     "proc x <- main = z <- q ; delay ; y <- p ; when? y ; wait y ; wait z ; "
     "close x\n", "main", RunError, "6:44: cannot re-anchor c2")]


@pytest.mark.parametrize("src, main, error, msg", ILL_TYPED_RUNS)
def test_run_errors_name_the_source_position(src, main, error, msg):
    # An explicit program that fails its check still runs; the rule that
    # cannot fire, or the stuck object, names the code's line:col.  The
    # trace is written as the run goes, so it holds the steps before the
    # fault.
    prog = load(src, [main], {}, "free", explicit=True)
    text = io.StringIO()
    trace = Trace(text)
    with pytest.raises(error) as e:
        prog.run(trace=trace)
    assert str(e.value) == msg
    assert text.getvalue().count("\n") == trace.count > 0


def test_a_delay_error_names_the_source_position():
    sig = parse_program("decl f : . |- (x : 1)\nproc x <- f = close x\n")
    o = Obj("proc", "x", 0, Delay(IVar("n"), Origin.SOURCE, Close("x"),
                                  pos=(4, 7)))
    cfg = Configuration({"x": o}, 1, {"x": ONE}, {"x": ONE})
    with pytest.raises(RunError, match=r"^4:7: delay with a non-ground "
                       r"count$"):
        Engine(sig, TypeOps(sig))._delay(cfg, o)


def test_fresh_counter_starts_above_source_names():
    elab = prepare("""
type one = 1
decl f : . |- (c7 : one)
proc c7 <- f = close c7
""", "f").elab
    cfg = init_config(elab, "f")
    assert cfg.order[0] == "c8"


def test_six_trace_and_chain(six):
    text, jsonl = io.StringIO(), io.StringIO()
    trace = Trace(text, jsonl)
    final, status, chain = six.run(steps=100, trace=trace)
    assert status == "quiescent"
    assert is_poised(final)
    rules = [json.loads(line)["rule"]
             for line in jsonl.getvalue().splitlines()]
    assert rules[0] == "defC"
    assert "id⁺C" in rules and "○C" in rules and "1S" in rules
    assert chain == [
        ("label", "b0", 0), ("label", "b1", 1), ("label", "b1", 2),
        ("label", "$", 3), ("close", "", 4)]
    # Each sink carries one line per step, and the trace counts them.
    assert len(rules) == text.getvalue().count("\n") == trace.count
    assert [line.split(":", 1)[0] for line in text.getvalue().splitlines()] \
        == rules


class _LastLine:
    """A trace sink that keeps only the line last written to it."""
    line = ""

    def write(self, line: str) -> None:
        self.line = line


def _peak(n, trace):
    """The tracemalloc peak, in bytes, of an rr run of `queue_rs` at `n`,
    loaded afresh so that no run finds the caches of another filled."""
    prog = corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs")
    gc.collect()
    tracemalloc.start()
    try:
        assert prog.run(trace=trace)[1] == "quiescent"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_traced_run_keeps_nothing_per_step():
    # The trace's own share of the peak is the traced peak less the
    # untraced one.  From n=8 to n=32 the steps grow thirteenfold, and the
    # share grows by less than 64 bytes a step, less than any object a step
    # could keep: a step is written to its sinks and nothing of it is kept.
    # (The share still grows with the configuration, whose live objects
    # keep their text, and the allocator state earlier tests leave moves it
    # by up to about 100 KB.)  A first traced run at each size takes the
    # printer's one-time costs and interns the types the run builds.
    steps, extra = [], []
    for n in (8, 32):
        corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs").run(
            trace=Trace(_LastLine(), _LastLine()))
        trace = Trace(_LastLine(), _LastLine())
        extra.append(_peak(n, trace) - _peak(n, None))
        steps.append(trace.count)
    assert steps == [497, 6569]
    assert extra[1] - extra[0] < 64 * (steps[1] - steps[0]), extra


def test_empty_configuration_is_quiescent(six):
    eng = Engine(six.elab, six.ops)
    cfg = Configuration({}, 0, {}, {})
    assert eng.step(cfg, make_scheduler("rr")) is None


def test_poisedness_definitions():
    assert is_poised_obj(Obj("msg", "c", 0, Close("c")))
    assert is_poised_obj(Obj("proc", "c", 0, SendLabel("c", "a", Close("c"))))
    assert not is_poised_obj(Obj("proc", "c", 0, SendLabel("d", "a", Close("c"))))
    assert is_poised_obj(Obj("proc", "c", 0, Fwd("c", "d")))


def test_forward_takes_late_messages(six):
    # The forwarder can sit at an earlier time than the message it relays.
    # defC leaves proc(c_root, 0, fwd); drive everything with a scheduler
    # that starves the forwarder, so messages pile up at later times.
    _, status, chain = six.run("rand", 5, 200)
    assert status == "quiescent"
    times = [m[2] for m in chain]
    assert times == [0, 1, 2, 3, 4]


def test_preservation_harness_on_six(six):
    elab, ops = six.elab, six.ops
    eng = Engine(elab, ops)
    cfg = init_config(elab, "six")
    declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
    check_configuration(ops, {}, cfg, declared)
    while True:
        nxt = eng.step(cfg, make_scheduler("rr"))
        if nxt is None:
            break
        cfg = nxt
        check_configuration(ops, {}, cfg, declared)


def test_timestamp_mutation_is_rejected(six):
    ops = six.ops
    cfg = init_config(six.elab, "six")
    declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
    final, _, _ = six.run(steps=100)
    check_configuration(ops, {}, final, declared)
    victim = next(c for c, o in final.objs.items() if o.kind == "msg")
    broken = final.copy()
    broken.objs[victim] = dataclasses.replace(broken.objs[victim],
                                              time=broken.objs[victim].time + 1)
    with pytest.raises(ConfigTypeError):
        check_configuration(ops, {}, broken, declared)


def test_schedulers_agree_on_observables(six):
    results = []
    for sched, seed in (("rr", 0), ("rand", 1), ("rand", 42), ("sync", 0)):
        _, status, chain = six.run(sched, seed, 100)
        assert status == "quiescent"
        results.append(chain)
    assert all(r == results[0] for r in results)


def test_counter_run_exercises_box_machinery():
    prog = prepare("""
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
type ctr = [] &{ inc : ()ctr, val : ()bits }
decl bit0 : (d : ()ctr) |- (c : ctr)
decl bit1 : (d : ctr) |- (c : ctr)
decl empty : . |- (c : ctr)
proc c <- bit0 <- d =
  case c ( inc => c <- bit1 <- d
         | val => c.b0 ; d.val ; c <- d )
proc c <- bit1 <- d =
  case c ( inc => d.inc ; c <- bit0 <- d
         | val => c.b1 ; d.val ; c <- d )
proc c <- empty =
  case c ( inc => e <- empty ; c <- bit1 <- e
         | val => c.$ ; close c )
decl main : . |- (x : ()^4 bits)
proc x <- main = c <- empty ; c.inc ; c.inc ; c.inc ; c.val ; x <- c
""", "main")
    jsonl = io.StringIO()
    final, status, chain = prog.run(steps=500, trace=Trace(jsonl=jsonl),
                                    check=True)
    assert status == "quiescent" and is_poised(final)
    # Value three, read off after the third increment: b1 b1 $.
    assert chain == [
        ("label", "b1", 4), ("label", "b1", 5), ("label", "$", 6),
        ("close", "", 7)]
    rules = {json.loads(line)["rule"]
             for line in jsonl.getvalue().splitlines()}
    assert {"□S", "□C", "&S", "&C"} <= rules


def test_empty_configuration_types_as_pass_through(six):
    ops = six.ops
    from tss.ast import TypeName
    bits = TypeName("bits")
    empty = Configuration({}, 0, {}, {})
    check_configuration(ops, {"c0": bits}, empty, {"c0": bits})
    with pytest.raises(ConfigTypeError):
        check_configuration(ops, {}, empty, {"c0": bits})


def test_config_with_two_clients_rejected(six):
    ops = six.ops
    from tss.ast import TypeName, Wait, Close as Cl
    bits = TypeName("bits")
    one = parse_program("type t = 1").type_body("t")
    cfg = Configuration(
        {"c1": Obj("proc", "c1", 0, Cl("c1")),
         "c2": Obj("proc", "c2", 0, Wait("c1", Cl("c2"))),
         "c3": Obj("proc", "c3", 0, Wait("c1", Cl("c3")))},
        4,
        {"c1": one, "c2": one, "c3": one},
        {"c1": one, "c2": one, "c3": one})
    with pytest.raises(ConfigTypeError, match="two clients"):
        check_configuration(ops, {}, cfg, {"c2": one, "c3": one})


def test_a_channel_with_two_clients_maps_to_the_first(six):
    # A hand-built configuration is mapped in configuration order, and a
    # write never overwrites the client a channel has.
    objs = {"c1": Obj("proc", "c1", 0, Close("c1")),
            "c3": Obj("proc", "c3", 0, Wait("c1", Close("c3"))),
            "c2": Obj("proc", "c2", 0, Wait("c1", Close("c2")))}
    types = dict.fromkeys(objs, ONE)
    cfg = Configuration(objs, 4, types, dict(types))
    assert cfg.client == {"c1": "c3"}
    assert _outcome(six.ops, cfg, {"c2": ONE, "c3": ONE}) == \
        "channel c1 has two clients (c3 and c2)"
    cfg.put(Obj("proc", "c4", 0, Wait("c1", Close("c4"))), ONE)
    cfg.drop("c2")
    assert cfg.client == {"c1": "c3"}


def test_a_cold_check_leaves_the_client_map_as_it_is():
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    ops = prog.ops
    cfg = init_config(prog.elab, prog.main)
    declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
    live, _ = Engine(prog.elab, ops).run(cfg, make_scheduler("rr"), 40)
    client = live.client
    before = dict(client)
    assert _outcome(ops, live, declared) is None
    assert _outcome(ops, live, declared, {}) is None
    # A second client of a channel, found from empty state.
    y = min(client)
    live.put(Obj("proc", "z3", 0, Wait(y, Close("z3"))), ONE)
    assert "two clients" in _outcome(ops, live, declared)
    assert live.client is client and client == before


def test_a_client_map_left_short_is_not_read_from_accepted_state(six):
    # Writes through two clients of c1 drop the one the map names; the
    # check that accepts the result cannot trust the map, so a later
    # second client of c1 is found as a check from empty state finds it.
    objs = {"c1": Obj("proc", "c1", 0, Close("c1")),
            "c4": Obj("proc", "c4", 0, Close("c4")),
            "c2": Obj("proc", "c2", 0, Wait("c1", Close("c2"))),
            "c3": Obj("proc", "c3", 0, Wait("c4", Close("c3")))}
    types = dict.fromkeys(objs, ONE)
    cfg = Configuration(objs, 5, types, dict(types))
    declared = {"c2": ONE, "c3": ONE}
    cache: dict = {}
    assert _outcome(six.ops, cfg, declared, cache) is None
    cfg.put(Obj("proc", "c3", 0, Wait("c1", Wait("c4", Close("c3")))))
    cfg.put(Obj("proc", "c2", 0, Close("c2")))
    assert cfg.client == {"c4": "c3"}
    assert _outcome(six.ops, cfg, declared, cache) is None
    cfg.put(Obj("proc", "c2", 0, Wait("c1", Close("c2"))))
    cold = _outcome(six.ops, cfg, declared)
    assert cold == "channel c1 has two clients (c2 and c3)"
    assert _outcome(six.ops, cfg, declared, cache) == cold


def test_cyclic_wiring_rejected(six):
    ops = six.ops
    one = parse_program("type t = 1").type_body("t")
    from tss.ast import Wait, Close as Cl
    cfg = Configuration(
        {"c1": Obj("proc", "c1", 0, Wait("c2", Cl("c1"))),
         "c2": Obj("proc", "c2", 0, Wait("c1", Cl("c2")))},
        3,
        {"c1": one, "c2": one}, {"c1": one, "c2": one})
    with pytest.raises(ConfigTypeError, match="cyclic"):
        check_configuration(ops, {}, cfg, {})


# ---------------------------------------------------------------------------
# The rule table: names, polarity and how often each rule fires

# What each rule consumes, in trace order: a positive receive takes its
# provider's message before the client, a negative one takes the provider
# before its client's message, and every other rule one proc.
CONSUMED = {
    **dict.fromkeys(("⊕C", "⊗C", "◇C", "1C", "id⁺C"), ["msg", "proc"]),
    **dict.fromkeys(("&C", "⊸C", "□C", "id⁻C"), ["proc", "msg"]),
    **dict.fromkeys(("⊕S", "&S", "⊗S", "⊸S", "◇S", "□S", "1S", "cutC",
                     "defC", "○C"), ["proc"])}

# The rules fired by all corpus runs under round robin, by name.
RR_RULE_COUNTS = {
    "⊕S": 160, "&S": 91, "⊗S": 142, "⊸S": 28, "◇S": 5, "□S": 36, "1S": 110,
    "⊕C": 107, "&C": 91, "⊗C": 67, "⊸C": 28, "◇C": 1, "□C": 36, "1C": 78,
    "id⁺C": 252, "id⁻C": 99, "cutC": 1, "defC": 538, "○C": 1342}


def test_rules_consume_by_polarity_and_fire_as_pinned():
    counts = Counter()
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        for sched, seed in (("rr", 0), ("rand", 1), ("sync", 0)):
            jsonl = io.StringIO()
            prog.run(sched, seed, spec.steps, Trace(jsonl=jsonl))
            for line in jsonl.getvalue().splitlines():
                step = json.loads(line)
                kinds = [o.split("(", 1)[0] for o in step["consumed"]]
                assert kinds == CONSUMED[step["rule"]], (spec, step)
                if sched == "rr":
                    counts[step["rule"]] += 1
    assert counts == RR_RULE_COUNTS


# ---------------------------------------------------------------------------
# The incremental index against a rebuild, and `run` against a `step` loop

def _rule_view(rules):
    return {c: (r.name, r.consumed) for c, r in rules.items()}


def _check_index_and_trace(sig, ops, main, steps):
    for sched, seed in (("rr", 0), ("rand", 3), ("sync", 0)):
        eng = Engine(sig, ops)
        start = init_config(sig, main)

        def on_step(c):
            # On the live copy `enabled` reads the run's index (the same
            # dict each time); on a copy it matches from scratch.
            index = eng.enabled(c)
            assert index is eng.enabled(c)
            assert _rule_view(index) == _rule_view(eng.enabled(c.copy()))

        ran = io.StringIO()
        final, _ = eng.run(start, make_scheduler(sched, seed), steps,
                           trace=Trace(ran), on_step=on_step)
        assert start == init_config(sig, main)  # the input is not rewritten

        stepped = io.StringIO()
        manual = Trace(stepped)
        cfg, scheduler = start, make_scheduler(sched, seed)
        for _ in range(steps):
            nxt = eng.step(cfg, scheduler, manual)
            if nxt is None:
                break
            cfg = nxt
        assert ran.getvalue() == stepped.getvalue()
        assert final == cfg


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_index_and_trace_on_corpus_runs(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    _check_index_and_trace(prog.elab, prog.ops, prog.main, spec.steps)


@pytest.mark.parametrize("seed", range(60))
def test_index_and_trace_on_generated_programs(seed):
    sig = gen_program(seed)
    _check_index_and_trace(sig, TypeOps(sig), "main", 3000)


def test_rematches_per_step_do_not_grow_with_the_configuration(monkeypatch):
    # A deterministic stand-in for per-step cost: how many procs a step
    # matches again.  A full re-match per step grows with n.
    calls = [0]
    rule_for = Engine._rule_for

    def counting(self, *args):
        calls[0] += 1
        return rule_for(self, *args)

    monkeypatch.setattr(Engine, "_rule_for", counting)
    per_step = {}
    for n in (8, 32):
        prog = corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs")
        steps = [0]
        calls[0] = 0

        def on_step(_):
            steps[0] += 1

        _, status = Engine(prog.elab, prog.ops).run(
            init_config(prog.elab, prog.main), make_scheduler("rr"), 100_000,
            on_step=on_step)
        assert status == "quiescent"
        per_step[n] = calls[0] / steps[0]
    assert per_step[32] <= 2 * per_step[8], per_step


def _counting_rematches(monkeypatch):
    """Count `Engine._rule_for` calls; returns the running count."""
    calls = [0]
    rule_for = Engine._rule_for

    def counting(self, *args):
        calls[0] += 1
        return rule_for(self, *args)

    monkeypatch.setattr(Engine, "_rule_for", counting)
    return calls


def test_a_step_that_writes_no_message_matches_only_what_it_produced(
        monkeypatch):
    # Only a message links one object's rule to another's, so a step that
    # consumes and produces procs only matches each produced proc once.
    calls = _counting_rematches(monkeypatch)
    fire = runtime._Index.fire
    seen = Counter()

    def counting_fire(self, rule):
        calls[0] = 0
        produced = fire(self, rule)
        if rule.name in ("○C", "cutC", "defC"):
            assert calls[0] == len(produced), (rule.name, produced)
            seen[rule.name] += 1
        return produced

    monkeypatch.setattr(runtime._Index, "fire", counting_fire)
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        for sched, seed in (("rr", 0), ("rand", 1), ("sync", 0)):
            prog.run(sched, seed, spec.steps)
    assert seen.keys() == {"○C", "cutC", "defC"}, seen


def test_rematches_per_step_on_a_queue_stay_near_one(monkeypatch):
    # Each step matches its own produced procs and the readers of the
    # messages it wrote; re-matching every neighbour made 3.5 per step.
    calls = _counting_rematches(monkeypatch)
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 32}, "rs")
    steps = [0]

    def on_step(_):
        steps[0] += 1

    _, status = Engine(prog.elab, prog.ops).run(
        init_config(prog.elab, prog.main), make_scheduler("rr"), 100_000,
        on_step=on_step)
    assert status == "quiescent"
    assert calls[0] <= 1.6 * steps[0], calls[0] / steps[0]


# ---------------------------------------------------------------------------
# The schedulers against scans of the configuration

class _ScanRoundRobin:
    """Round robin as a scan of `objs`, which is in creation order."""

    def __init__(self):
        self.last = None

    def pick(self, config, candidates):
        objs = config.objs
        order = list(objs)
        enabled = candidates.__contains__
        start = order.index(self.last) + 1 if self.last in objs else 0
        choice = next(filter(enabled, order[start:]), None) \
            or next(filter(enabled, order), None)
        if choice is None:
            return None
        self.last = choice
        return candidates[choice]


class _ScanRandom:
    def __init__(self, seed):
        self._rng = random.Random(seed)

    def pick(self, config, candidates):
        if not candidates:
            return None
        order = list(filter(candidates.__contains__, config.objs))
        return candidates[self._rng.choice(order)]


class _ScanSync:
    def pick(self, config, candidates):
        if not candidates:
            return None
        order = list(filter(candidates.__contains__, config.objs))
        for c in order:
            if candidates[c].name != "○C":
                return candidates[c]
        return candidates[min(order, key=lambda c: config.objs[c].time)]


_SCANS = {"rr": lambda seed: _ScanRoundRobin(), "rand": _ScanRandom,
          "sync": lambda seed: _ScanSync()}


class _Lockstep:
    """A scheduler and its scan, asked for each step of one run on the same
    configuration and candidates: they must pick the same rule, so the run
    fires, and its trace shows, what the scan alone would.  The index's
    rank views must list the enabled channels in the scan's order.  `gone`
    counts the picks after round robin's last channel was dropped."""

    def __init__(self, sched, seed):
        self.fast, self.scan = make_scheduler(sched, seed), _SCANS[sched](seed)
        self.steps = self.gone = 0

    def pick(self, config, candidates):
        objs, at = config.objs, candidates.at
        order = [c for c in objs if c in candidates]
        delayers = [c for c in order if candidates[c].name == "○C"]
        now, later = candidates.sync_views()
        assert [at[r] for r in candidates.ranks] == order
        assert [at[r] for r in now] == [c for c in order if c not in delayers]
        assert [(t, at[r]) for t, r in later] == \
            sorted(((objs[c].time, c) for c in delayers),
                   key=lambda tc: tc[0])
        if isinstance(self.scan, _ScanRoundRobin):
            self.gone += self.scan.last is not None \
                and self.scan.last not in objs
        rule = self.fast.pick(config, candidates)
        assert rule is self.scan.pick(config, candidates), self.steps
        self.steps += 1
        return rule


def _lockstep(prog, sched, seed, steps):
    lock = _Lockstep(sched, seed)
    _, status = Engine(prog.elab, prog.ops).run(
        init_config(prog.elab, prog.main), lock, steps)
    return lock, status


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_schedulers_pick_as_scans_on_corpus_runs(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    for sched, seed in (("rr", 0), ("rand", 0), ("rand", 1), ("rand", 7),
                        ("sync", 0)):
        lock, _ = _lockstep(prog, sched, seed, spec.steps)
        assert lock.steps > 0


def test_schedulers_pick_as_scans_on_a_growing_configuration():
    # alternate_rs never quiesces: it ends 5,000 steps with about 600
    # objects.
    prog = corpus.load("alternate_rs.tss", "altmain", {"k": 1}, "rs")
    for sched in ("rr", "rand", "sync"):
        lock, status = _lockstep(prog, sched, 1, 5_000)
        assert status == "budget" and lock.steps == 5_000


def test_round_robin_starts_over_when_its_last_channel_is_gone():
    # A provider that takes its client's message goes on at the message's
    # channel and drops its own, as does a forward passing a message down.
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    lock, status = _lockstep(prog, "rr", 0, 10_000)
    assert status == "quiescent"
    assert lock.gone >= 10, lock.gone  # 11


def test_a_step_costs_the_same_on_a_growing_configuration():
    # µs per step over a 20,000-step alternate_rs run (about 2,500 objects
    # at the end) against the best of three 2,500-step runs (about 300).
    # Schedulers that scanned the configuration on every pick read 2.3-3.5x.
    prog = corpus.load("alternate_rs.tss", "altmain", {"k": 1}, "rs")

    def per_step(sched, steps):
        cfg = init_config(prog.elab, prog.main)
        eng, scheduler = Engine(prog.elab, prog.ops), make_scheduler(sched, 1)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _, status = eng.run(cfg, scheduler, steps)
            seconds = time.perf_counter() - t0
        finally:
            gc.enable()
        assert status == "budget"
        return seconds / steps

    for sched in ("rr", "rand", "sync"):
        short = min(per_step(sched, 2_500) for _ in range(3))
        long = per_step(sched, 20_000)
        assert long <= 2 * short, (sched, short * 1e6, long * 1e6)


# ---------------------------------------------------------------------------
# The incremental configuration check against a cold one

ODD = Plus((("zz", ONE),))  # no tracked type is weakly above or below it


def _outcome(ops, cfg, declared, cache=None, given=None):
    try:
        check_configuration(ops, given or {}, cfg, declared, cache)
    except ConfigTypeError as e:
        return str(e)
    return None


def _faulty_copies(ops, cfg, declared):
    """Copies of a well-typed configuration, each with one fault, and each
    with the cache that accepted it before the fault.  A fault is written
    through the configuration's write methods, so a check with that cache
    reads it from the log; only an object filed under another channel,
    which no write method makes, is written to a copy that no check
    accepted."""
    faults = []

    def copy(*objs):
        out, cache = cfg.copy(), {}
        assert _outcome(ops, out, declared, cache) is None
        for o in objs:
            out.put(o, None if o.chan in out.objs else ONE)
        faults.append((out, cache))
        return out

    victim = cfg.order[len(cfg.order) // 2]
    o = cfg.objs[victim]
    # An incompatible interface entry on either side.
    copy().set_ptype(victim, ODD)
    copy().set_ctype(victim, ODD)
    # Two faults of one kind, at the first and the last channel: a check of
    # what changed meets the provider side's first, a check in the
    # configuration's order the first channel's.
    chans = list(cfg.objs)
    both = copy()
    both.set_ptype(chans[-1], ODD)
    both.set_ctype(chans[0], ODD)
    # The victim's channel reused by a different object, which cannot
    # typecheck.
    copy(Obj(o.kind, victim, o.time, SendLabel(victim, "zz", o.body)))
    # The victim's object filed under its channel but providing another.
    filed = cfg.copy()
    filed.objs[victim] = Obj(o.kind, "z4", o.time, o.body)
    faults.append((filed, {}))
    # A cycle.
    copy(Obj("proc", "z1", 0, Wait("z2", Close("z1"))),
         Obj("proc", "z2", 0, Wait("z1", Close("z2"))))
    client = {y: c for c, p in cfg.objs.items()
              for y in free_chans(p.body) - {c}}
    if client:
        y = min(client)
        # Only the consumer side of y, which an unchanged object uses.
        copy().set_ctype(y, ODD)
        # A second client of y.
        copy(Obj("proc", "z3", 0, Wait(y, Close("z3"))))
        # The channel of y's client reused by an object that also uses a
        # channel with a client already.
        c = client[y]
        other = min((z for z, d in client.items() if d != c),
                    default=None)
        if other is not None:
            p = cfg.objs[c]
            copy(Obj(p.kind, c, p.time, Wait(other, p.body)))
        # A missing provider of y.
        copy().drop(y)
    # A cycle through three existing channels: the object at y takes the
    # channel two above it on its client chain from that channel's client,
    # which keeps the rest of what it uses.
    up = next(([y, client[y], client[client[y]]] for y in sorted(client)
                  if client.get(client[y]) in client), None)
    if up is not None:
        y, top = up[0], up[2]
        p, q = cfg.objs[y], cfg.objs[client[top]]
        rest = Close(q.chan)
        for u in sorted(q.used - {top}):
            rest = Wait(u, rest)
        copy(Obj(p.kind, y, p.time, Wait(top, p.body)),
             Obj(q.kind, q.chan, q.time, rest))
    # A new provider that nothing uses.
    copy(Obj("proc", "z5", 0, Close("z5")))
    # An offered channel given an internal client.
    root = next(iter(declared))
    if victim != root:
        copy(Obj(o.kind, victim, o.time, Wait(root, o.body)))
    return faults


# Runs whose faults, at some step 2^k, have a typing context of two or more
# channels: (file, main, bind, scheduler, seed, last step).  Built by
# iterating a set of channel names, such a context read in a different
# order in processes with different string hashes.
_CONTEXT_ORDER_RUNS = [
    ("append_rs.tss", "amain", {"n": 3, "k": 3, "r": 2}, "rand", 3, 64),
    ("append_rs.tss", "amain", {"n": 2, "k": 1, "r": 1}, "sync", 0, 64),
    ("append_rs.tss", "amain", {"n": 3, "k": 3, "r": 2}, "sync", 0, 128),
    ("alternate_rs.tss", "altmain", {"k": 0}, "rr", 0, 256),
    ("alternate_rs.tss", "altmain", {"k": 0}, "sync", 0, 32),
    ("alternate_rs.tss", "altmain", {"k": 1}, "rr", 0, 32),
    ("alternate_rs.tss", "altmain", {"k": 1}, "sync", 0, 32),
    ("tree_free.tss", "tmain", {"h": 2}, "rr", 0, 64),
    ("tree_free.tss", "tmain", {"h": 3}, "rr", 0, 128),
]


def _fault_texts():
    """The cold messages of `_faulty_copies` at steps 4, 8, 16, ... of the
    runs in `_CONTEXT_ORDER_RUNS`."""
    costs = {s.file: s.cost for s in corpus.run_specs()}
    texts = []
    for file, main, bind, sched, seed, last in _CONTEXT_ORDER_RUNS:
        prog = corpus.load(file, main, bind, costs[file])
        cfg = init_config(prog.elab, prog.main)
        declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
        count = [0]

        def on_step(c):
            count[0] += 1
            if count[0] >= 4 and count[0] & (count[0] - 1) == 0:
                for broken, _ in _faulty_copies(prog.ops, c, declared):
                    texts.append(_outcome(prog.ops, broken, declared))

        Engine(prog.elab, prog.ops).run(cfg, make_scheduler(sched, seed),
                                        last, on_step=on_step)
    return texts


def test_fault_texts_do_not_depend_on_string_hashing():
    tests = Path(__file__).parent
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_runtime; print(json.dumps(test_runtime._fault_texts()))")
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(runtime.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, str(tests)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    contexts = [t.rsplit(" in context ", 1)[1] for t in runs[0]
                if t is not None and " in context " in t]
    assert sum(", " in c for c in contexts) >= 10, contexts


def _check_client_map(config):
    """The client map the writes kept is the one a rebuild from the objects
    gives: every rule unlinks a channel's old client before it links a new
    one."""
    assert config.client == config.copy().client


def _check_warm_against_cold(sig, ops, main, steps):
    for sched, seed in (("rr", 0), ("rand", 3), ("sync", 0)):
        cfg = init_config(sig, main)
        declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
        cache: dict = {}
        count = [0]

        def on_step(c):
            assert _outcome(ops, c, declared, cache) is None
            assert _outcome(ops, c.copy(), declared, {}) is None
            _check_client_map(c)
            count[0] += 1
            if count[0] >= 4 and count[0] & (count[0] - 1) == 0:
                # At steps 4, 8, 16, ...: faults in copies of this
                # configuration, each checked with the cache that accepted
                # the copy before the fault was written.
                for broken, accepted in _faulty_copies(ops, c, declared):
                    cold = _outcome(ops, broken, declared)
                    assert cold is not None
                    assert _outcome(ops, broken, declared, accepted) == cold
                    assert _outcome(ops, c, declared, accepted) is None

        on_step(cfg)
        Engine(sig, ops).run(cfg, make_scheduler(sched, seed), steps,
                             on_step=on_step)


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_warm_configuration_check_agrees_with_cold_on_corpus_runs(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    _check_warm_against_cold(prog.elab, prog.ops, prog.main, spec.steps)


@pytest.mark.parametrize("seed", range(60))
def test_warm_configuration_check_agrees_with_cold_on_generated_programs(seed):
    sig = gen_program(seed)
    _check_warm_against_cold(sig, TypeOps(sig), "main", 3000)


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_order_labels_decide_every_edge_of_a_checked_run(spec, monkeypatch):
    # Each new channel goes just before its client, and every rule keeps
    # that order.  A run's initial configuration is checked, and so
    # labelled, from empty state once, and the copy the run rewrites takes
    # over what that check accepted; after that no step labels the copy
    # afresh, and none goes to the check from empty state, which would.
    labelled = []
    real = runtime._Checker._label_all

    def once(checker, config):
        assert all(c is not config for c in labelled), "labelled afresh"
        labelled.append(config)
        return real(checker, config)

    monkeypatch.setattr(runtime._Checker, "_label_all", once)
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    for sched, seed in (("rr", 0), ("rand", 1), ("rand", 7), ("sync", 0)):
        cfg = init_config(prog.elab, prog.main)
        Engine(prog.elab, prog.ops).run(
            cfg, make_scheduler(sched, seed), spec.steps,
            on_step=runtime.check_each_step(prog.ops, cfg))
        assert len(labelled) == 1
        del labelled[:]


def test_edges_against_the_labels_get_the_cold_verdict(six, monkeypatch):
    # Two client chains, c1 -> c2 and c3 -> c4, labelled one after the
    # other.  Moving the bottom of either chain to the top of the other
    # makes an edge against the labels in one of the two cases, which
    # labels the configuration afresh; with a fault written too, the
    # message is the cold one.
    relabelled = []
    real = runtime._Checker._label_all

    def spying(checker, config):
        relabelled.append(config)
        return real(checker, config)

    monkeypatch.setattr(runtime._Checker, "_label_all", spying)
    againsts = 0
    for lower, upper, other in (("c1", "c4", "c2"), ("c3", "c2", "c4")):
        for fault in (False, True):
            objs = {"c1": Obj("proc", "c1", 0, Close("c1")),
                    "c2": Obj("proc", "c2", 0, Wait("c1", Close("c2"))),
                    "c3": Obj("proc", "c3", 0, Close("c3")),
                    "c4": Obj("proc", "c4", 0, Wait("c3", Close("c4")))}
            types = dict.fromkeys(objs, ONE)
            cfg = Configuration(objs, 5, types, dict(types))
            declared = {"c2": ONE, "c4": ONE}
            cache: dict = {}
            assert _outcome(six.ops, cfg, declared, cache) is None
            checker = cache[runtime._Checker]
            assert checker.label["c1"] < checker.label["c2"]
            assert checker.label["c3"] < checker.label["c4"]
            del relabelled[:]
            cfg.put(Obj("proc", other, 0, Close(other)))
            cfg.put(Obj("proc", upper, 0, Wait(lower, objs[upper].code)))
            if fault:
                cfg.set_ptype(upper, ODD)
            cold = _outcome(six.ops, cfg.copy(), declared)
            assert (cold is not None) == fault
            against = checker.label[lower] > checker.label[upper]
            againsts += against
            assert _outcome(six.ops, cfg, declared, cache) == cold
            if against and not fault:
                assert relabelled == [cfg]
                assert cache[runtime._Checker] is checker
                assert checker.label[lower] < checker.label[upper]
    assert againsts == 2


@pytest.mark.parametrize("pattern", ["same", "chain", "random"])
def test_order_labels_keep_list_order_as_channels_come_and_go(pattern):
    # Channels put just before one client again and again, before the one
    # put last, or anywhere, with random ones taken out: the labels along
    # the list always rise, so ranges are spread where they run out.
    objs = {"c1": Obj("proc", "c1", 0, Close("c1")),
            "c2": Obj("proc", "c2", 0, Wait("c1", Close("c2")))}
    checker = runtime._Checker()
    assert checker._label_all(Configuration(objs, 3, {}, {}))
    order, rng, last = ["c1", "c2"], random.Random(5), "c2"
    for i in range(2000):
        c = {"same": "c2", "chain": last, "random": rng.choice(order)}[pattern]
        last = f"z{i}"
        checker._insert(last, c)
        order.insert(order.index(c), last)
        if pattern == "random" and rng.random() < 0.3:
            gone = rng.choice(order)
            checker._unlink(gone)
            order.remove(gone)
    walk, x = [], order[0]
    assert checker.prev[x] is None
    while x is not None:
        walk.append(x)
        x = checker.next[x]
    assert walk == order and checker.label.keys() == set(order)
    labels = [checker.label[x] for x in walk]
    assert labels == sorted(set(labels)) and labels[0] > 0


def test_check_rejects_an_object_filed_under_another_channel(six):
    # The check types an object at the channel it provides; one filed
    # under another channel is no configuration the engine builds.
    cfg = Configuration({"c0": Obj("proc", "c1", 0, Close("c1"))}, 2,
                        {"c0": ONE, "c1": ONE}, {"c0": ONE, "c1": ONE})
    expected = "channel c0 holds an object providing c1"
    assert _outcome(six.ops, cfg, {"c0": ONE}) == expected
    assert _outcome(six.ops, cfg, {"c0": ONE}, {}) == expected
    del cfg.ptypes["c1"]
    assert _outcome(six.ops, cfg, {"c0": ONE}) == expected


def test_warm_check_rechecks_an_object_whose_interface_changed(six):
    # The object is the very one checked before, but both sides of its
    # interface (and the offer) changed: its verdict must be re-derived.
    ops = six.ops
    obj = Obj("msg", "c0", 0, Close("c0"))
    cfg = Configuration({"c0": obj}, 1, {"c0": ONE}, {"c0": ONE})
    cache: dict = {}
    assert _outcome(ops, cfg, {"c0": ONE}, cache) is None
    odd = Configuration({"c0": obj}, 1, {"c0": ODD}, {"c0": ODD})
    cold = _outcome(ops, odd, {"c0": ODD})
    assert cold is not None
    assert _outcome(ops, odd, {"c0": ODD}, cache) == cold


def test_warm_check_rechecks_the_client_of_a_consumer_side_that_moved(six):
    # The objects are the very ones checked before, and only the consumer
    # side of c1 moves, one unit later and within weak subtyping of its
    # provider side: the client of c1 must be checked again, and now it
    # sends now! one unit too early.
    ops = six.ops
    box, later = parse_type("[]1"), parse_type("()[]1")
    objs = {"c1": Obj("proc", "c1", 0, When("c1", Close("c1"))),
            "c0": Obj("proc", "c0", 0, Now("c1", Wait("c1", Close("c0"))))}
    ok = Configuration(objs, 2, {"c0": ONE, "c1": box},
                       {"c0": ONE, "c1": box})
    cache: dict = {}
    assert _outcome(ops, ok, {"c0": ONE}, cache) is None
    moved = ok.copy()
    moved.set_ctype("c1", later)
    cold = _outcome(ops, moved, {"c0": ONE})
    assert cold is not None and cold.startswith("proc(c0, 0,")
    # The same write to the accepted configuration is read from its log.
    ok.set_ctype("c1", later)
    assert _outcome(ops, ok, {"c0": ONE}, cache) == cold


def test_warm_check_starts_over_when_the_interface_changes(six):
    from tss.ast import TypeName
    ops = six.ops
    bits = TypeName("bits")
    empty = Configuration({}, 0, {}, {})
    obj = Obj("msg", "c0", 0, Close("c0"))
    one = Configuration({"c0": obj}, 1, {"c0": ONE}, {"c0": ONE})
    cache: dict = {}
    # provides_in: the pass-through channel is no longer given.
    assert _outcome(ops, empty, {"c0": bits}, cache, {"c0": bits}) is None
    cold = _outcome(ops, empty, {"c0": bits})
    assert cold is not None
    assert _outcome(ops, empty, {"c0": bits}, cache) == cold
    # provides_out: the same objects and types, offered at another type.
    assert _outcome(ops, one, {"c0": ONE}, cache) is None
    cold = _outcome(ops, one, {"c0": ODD})
    assert cold is not None
    assert _outcome(ops, one, {"c0": ODD}, cache) == cold
    assert _outcome(ops, one, {"c0": ONE}, cache) is None


@pytest.mark.parametrize("write", ["put", "put typed", "drop", "set_ptype",
                                   "set_ctype"])
def test_a_fault_written_to_the_accepted_configuration_is_found(write):
    # The configuration a checked run rewrites, as the check accepted it
    # after its last step: one fault written to it through one write
    # method is read from its log, and reported as a check from empty
    # state reports it.
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    ops = prog.ops
    cfg = init_config(prog.elab, prog.main)
    declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
    cache: dict = {}
    live, status = Engine(prog.elab, ops).run(
        cfg, make_scheduler("rr"), 40,
        on_step=lambda c: check_configuration(ops, {}, c, declared, cache))
    assert status == "budget"
    assert live.log is not None and live.log is cache[runtime._Checker].log
    c, y = next((c, min(o.used)) for c, o in live.objs.items()
                if o.kind == "proc" and o.used)
    o = live.objs[c]
    if write == "put":
        live.put(Obj(o.kind, c, o.time, SendLabel(c, "zz", o.body)))
    elif write == "put typed":  # the same object, at another interface
        live.put(o, ODD)
    elif write == "drop":
        live.drop(y)
    else:
        getattr(live, write)(c if write == "set_ptype" else y, ODD)
    cold = _outcome(ops, live, declared)
    assert cold is not None
    assert _outcome(ops, live, declared, cache) == cold


def test_only_the_configuration_writes_its_maps():
    # The check reads a configuration's writes from its log, so a write
    # that bypasses `Configuration`'s methods would go unchecked.
    maps = {"objs", "ptypes", "ctypes", "client", "rank"}
    writes = {"pop", "popitem", "setdefault", "update", "clear"}

    def is_map(node):
        return isinstance(node, pyast.Attribute) and node.attr in maps

    found = []
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        tree = pyast.parse(path.read_text())
        inside = {id(n) for c in pyast.walk(tree)
                  if isinstance(c, pyast.ClassDef) and c.name == "Configuration"
                  for n in pyast.walk(c)}
        for node in pyast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, (pyast.Assign, pyast.Delete)):
                targets = node.targets
            elif isinstance(node, (pyast.AugAssign, pyast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for t in targets:
                for sub in pyast.walk(t):
                    if isinstance(sub, pyast.Subscript) and is_map(sub.value) \
                            or is_map(sub):
                        found.append(f"{path.name}:{sub.lineno}")
            if isinstance(node, pyast.Call) \
                    and isinstance(node.func, pyast.Attribute) \
                    and node.func.attr in writes and is_map(node.func.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_configuration_check_work_per_step_does_not_grow(monkeypatch):
    # A deterministic stand-in for the cost of a checked step: the nodes
    # the free-channel walk visits (`free_chans` keeps each node's set, so
    # only `_free_chans` walks), the weak-subtyping calls
    # `check_configuration` makes and the process nodes the explicit
    # checker types.  Re-deriving them for every object grows with n.
    calls = {"_free_chans": 0, "is_weak_subtype": 0, "check": 0}
    checking = [False]
    for module, name in ((tss.ast, "_free_chans"),
                         (runtime, "is_weak_subtype"),
                         (tss.checker.Checker, "check")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls[_name] += checking[0]
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    per_step, steps_of, sequents = {}, {}, {}
    for n in (8, 32):
        prog = corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs")
        elab, ops = prog.elab, prog.ops
        cfg = init_config(elab, prog.main)
        declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
        cache: dict = {}
        steps = [0]
        calls.update(dict.fromkeys(calls, 0))

        def on_step(c):
            steps[0] += 1
            checking[0] = True
            check_configuration(ops, {}, c, declared, cache)
            checking[0] = False

        _, status = Engine(elab, ops).run(cfg, make_scheduler("rr"), 100_000,
                                          on_step=on_step)
        assert status == "quiescent"
        per_step[n] = {k: v / steps[0] for k, v in calls.items()}
        steps_of[n] = steps[0]
        sequents[n] = len(cache[runtime._Checker].sequents.accepted)
    for name in calls:
        assert per_step[32][name] <= 2 * per_step[8][name], per_step
    # A step's code is typed under its own names, and a sequent met before
    # is not typed again: typing every verdict took about 7 nodes a step.
    assert per_step[32]["check"] <= 1.0, per_step
    # The sequents kept grow with the program's definitions, not the run.
    assert steps_of[32] >= 13 * steps_of[8], steps_of
    assert sequents[32] <= 4 * sequents[8], sequents


def test_configuration_check_runs_code_set_by_the_step_not_by_the_run():
    # A deterministic stand-in for the cost of a checked step: the lines of
    # `tss.runtime` the check runs, counted by a trace function.  A walk
    # over every live channel grows with n, as the configuration does
    # (about 21 objects per step at n=8, 86 at n=32).  The state the cache
    # holds is the last configuration's, so it has no channel that is gone.
    here = runtime.__file__
    lines = [0]

    def tracer(frame, event, _):
        if frame.f_code.co_filename != here:
            return None
        lines[0] += event == "line"
        return tracer

    per_step = {}
    for n in (8, 32):
        prog = corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs")
        elab, ops = prog.elab, prog.ops
        cfg = init_config(elab, prog.main)
        declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
        cache: dict = {}
        steps = [0]
        lines[0] = 0

        def on_step(c):
            steps[0] += 1
            outer = sys.gettrace()
            sys.settrace(tracer)
            try:
                check_configuration(ops, {}, c, declared, cache)
            finally:
                sys.settrace(outer)
            assert len(cache) == 1
            (checker,) = cache.values()
            for name, held in vars(checker).items():
                if isinstance(held, dict):
                    assert held.keys() <= c.objs.keys(), name

        _, status = Engine(elab, ops).run(cfg, make_scheduler("rr"), 100_000,
                                          on_step=on_step)
        assert status == "quiescent"
        per_step[n] = lines[0] / steps[0]
    assert per_step[32] <= 2.5 * per_step[8], per_step


# ---------------------------------------------------------------------------
# Objects as closures: code under an environment against concrete terms

def _is_message(p):
    """A term of the shape the rules build for a message: a close, or a
    send continued by a forward."""
    return isinstance(p, Close) or \
        isinstance(p, (SendLabel, SendChan, Now)) and isinstance(p.cont, Fwd)


def _counting_renames(monkeypatch):
    """A counter of the `runtime.rename_chans` calls on anything but a
    message: moving a two-node message through a forward renames it."""
    calls = [0]
    real = runtime.rename_chans

    def counting(p, sub):
        calls[0] += not _is_message(p)
        return real(p, sub)

    monkeypatch.setattr(runtime, "rename_chans", counting)
    return calls


def test_unchecked_run_substitutes_nothing(monkeypatch):
    # A step extends an environment: without a trace or a check, nothing
    # reads an object's substituted body.  Renaming the continuation at
    # every send, cut, call and receive made about 0.5 calls per step.
    calls = _counting_renames(monkeypatch)
    for n in (8, 32):
        prog = corpus.load("queue_rs.tss", "qmain", {"n": n}, "rs")
        calls[0] = 0
        _, status = Engine(prog.elab, prog.ops).run(
            init_config(prog.elab, prog.main), make_scheduler("rr"), 100_000)
        assert status == "quiescent"
        assert calls[0] == 0, (n, calls[0])


def test_checked_run_substitutes_nothing(monkeypatch):
    # The check types each object's code under the code's own channel
    # names, so a well-typed run reads no substituted body.  Typing the
    # body instead substitutes about one object per step.
    calls = _counting_renames(monkeypatch)
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 8}, "rs")
    cfg = init_config(prog.elab, prog.main)
    _, status = Engine(prog.elab, prog.ops).run(
        cfg, make_scheduler("rr"), 100_000,
        on_step=runtime.check_each_step(prog.ops, cfg))
    assert status == "quiescent"
    assert calls[0] == 0, calls[0]


def _concrete(config):
    """`config` with every object substituted into a concrete term under
    the identity environment."""
    return Configuration(
        {c: Obj(o.kind, o.chan, o.time, o.body) for c, o in config.objs.items()},
        config.counter, dict(config.ptypes), dict(config.ctypes))


def _check_closures_against_terms(sig, ops, main, steps):
    for sched, seed in (("rr", 0), ("rand", 3), ("sync", 0)):
        eng = Engine(sig, ops)
        cfg = init_config(sig, main)
        declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
        last = _LastLine()
        flat = _concrete(cfg)
        before = [flat, runtime._Index(eng, flat)]

        def on_step(c):
            live, flat = eng._live, _concrete(c)
            index = runtime._Index(eng, flat)
            assert _rule_view(index) == _rule_view(live)
            assert {x: o.used for x, o in flat.objs.items()} == \
                {x: o.used for x, o in c.objs.items()}
            _check_client_map(c)
            assert _outcome(ops, flat, declared) == _outcome(ops, c, declared)
            # The step just taken, fired on the concrete configuration before
            # it, renders the same trace line and gives the same result.
            (proc,) = [o for o in json.loads(last.line)["consumed"]
                       if o.startswith("proc(")]
            rule = before[1][proc[len("proc("):proc.index(",")]]
            after = before[0].copy()
            produced = rule.apply(after)
            again = _LastLine()
            Trace(jsonl=again).add(rule.name, rule.consumed, produced)
            assert again.line == last.line
            assert after == flat
            before[:] = flat, index

        eng.run(cfg, make_scheduler(sched, seed), steps,
                trace=Trace(jsonl=last), on_step=on_step)


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_closures_agree_with_concrete_terms_on_corpus_runs(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    _check_closures_against_terms(prog.elab, prog.ops, prog.main, spec.steps)


@pytest.mark.parametrize("seed", range(60))
def test_closures_agree_with_concrete_terms_on_generated_programs(seed):
    sig = gen_program(seed)
    _check_closures_against_terms(sig, TypeOps(sig), "main", 3000)


def test_a_repeated_unchecked_run_walks_no_term_for_free_channels(
        monkeypatch):
    # Each rule hands the objects it builds the channels they use, and the
    # sub-terms of a definition keep theirs from its first run: a run of a
    # program that ran before walks no term.  The tests above check every
    # such set against the concrete term.
    walks, counting = [0], [False]

    def free(p, _real=tss.ast._free_chans):
        walks[0] += counting[0]
        return _real(p)

    monkeypatch.setattr(tss.ast, "_free_chans", free)
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        for sched, seed in (("rr", 0), ("rand", 1), ("sync", 0)):
            first = prog.run(sched, seed, spec.steps)
            counting[0] = True
            again = prog.run(sched, seed, spec.steps)
            counting[0] = False
            assert again[1:] == first[1:]
            assert walks[0] == 0, (spec, sched)


def test_a_repeated_checked_run_walks_only_its_countdown_delays(monkeypatch):
    # The configuration check types a term a rule built (a message, a tail
    # call's forward, the root call) from the channels the rule handed it,
    # and a definition's code under its own names, whose channel sets it
    # keeps from the first run.  What is left are the countdown nodes
    # `_delay` builds, as the code of an object with an environment.
    walked, counting = [], [False]

    def free(p, _real=tss.ast._free_chans):
        if counting[0]:
            walked.append(type(p))
        return _real(p)

    monkeypatch.setattr(tss.ast, "_free_chans", free)
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        for sched, seed in (("rr", 0), ("rand", 1), ("sync", 0)):
            first = prog.run(sched, seed, spec.steps, check=True)
            counting[0] = True
            again = prog.run(sched, seed, spec.steps, check=True)
            counting[0] = False
            assert again[1:] == first[1:]
    assert walked and set(walked) == {Delay}


def _with_client(config, c, client, obj):
    """`obj` at `c` and the client of `c` (if any) alone, typed against the
    channels they use from outside: (configuration, provides_in,
    provides_out).  The client comes second, so `obj` is checked first."""
    objs = {c: obj}
    if client is not None:
        objs[client] = config.objs[client]
    top = c if client is None else client
    given = {y: config.ctypes[y] for o in objs.values() for y in o.used
             if y not in objs}
    part = Configuration(objs, config.counter,
                         {x: config.ptypes[x] for x in objs},
                         {**given, **{x: config.ctypes[x] for x in objs}})
    return part, given, {top: config.ptypes[top]}


def test_checker_messages_on_closures_name_run_channels():
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    ops = prog.ops
    eng = Engine(prog.elab, ops)
    seen = []

    def on_step(c):
        for chan, o in c.objs.items():
            if o.kind == "proc" and o.env and o.used:
                seen.append((c.copy(), chan, c.client.get(chan)))

    eng.run(init_config(prog.elab, prog.main), make_scheduler("rr"), 60,
            on_step=on_step)
    assert len(seen) > 20
    named = positioned = 0
    for config, c, client in seen[::7]:
        o = config.objs[c]
        assert any(o.env.get(x, x) != x for x in free_chans(o.code))
        y = min(o.used)
        # A fault in an object's typing names the object, after its
        # position in the source when its code has one.
        head = runtime._at(o.code.pos, o.text + ": ")
        positioned += o.code.pos is not None
        messages = []
        for obj in (o, Obj(o.kind, c, o.time, o.body)):
            part, given, out = _with_client(config, c, client, obj)
            cache: dict = {}
            assert _outcome(ops, part, out, cache, given) is None
            for side, x in (("ptypes", c), ("ctypes", y)):
                broken = part.copy()
                bad = next_type(o.time, ODD)
                broken.ctypes[x] = bad
                if side == "ptypes":
                    broken.ptypes[x] = bad
                cold = _outcome(ops, broken, out, None, given)
                assert cold is not None and cold.startswith(head)
                assert _outcome(ops, broken, out, cache, given) == cold
                assert _outcome(ops, part, out, cache, given) is None
                messages.append(cold)
        # The closure and the object rebuilt from its body give one message.
        assert messages[:2] == messages[2:], messages
        # Where a message names a channel, it names the run's.
        for message in messages[:2]:
            named_chans = re.findall(r"(?:on|channel|argument|source) (\w+)",
                                     message[len(head):])
            assert set(named_chans) <= o.used | {c}, message
            named += bool(named_chans)
    assert named > 4, named
    assert positioned > 4, positioned
