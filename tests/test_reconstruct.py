import gc
import random
import re
from dataclasses import fields, is_dataclass

import pytest

from fuzzgen import gen_program, strip_temporal
from tss import reconstruct
from tss.ast import (Close, DefClause, Delay, Origin, ProcDef, RecvChan,
                     SendChan, SendLabel, Signature, TailCall, TypeName, Wait,
                     subprocs, with_subprocs)
from tss.checker import check_signature
from tss.corpus import check_specs, source
from tss.cost import instrument
from tss.errors import ReconstructionError
from tss.instantiate import instantiate_many
from tss.parser import parse_program, parse_type
from tss.pipeline import load
from tss.printer import fmt_proc, pretty_print
from tss.reconstruct import (FwdElaborator, _Elab, elaborate_signature,
                             erase_reconstructed)
from tss.typeops import TypeOps

COMPRESS = """
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }
decl compress : (y : bits) |- (x : ()sbits)
decl skip1s : (y : bits) |- (x : ()<>sbits)
proc x <- compress <- y =
  case y ( b0 => x.b0 ; x <- compress <- y
         | b1 => x.b1 ; x <- skip1s <- y
         | $  => x.$ ; wait y ; close x )
proc x <- skip1s <- y =
  case y ( b0 => x.b0 ; x <- compress <- y
         | b1 => x <- skip1s <- y
         | $  => x.$ ; wait y ; close x )
"""


def elaborate(src, cost="r"):
    ticked = instrument(parse_program(src), cost)
    elab, errors = elaborate_signature(ticked)
    assert not errors, [str(e) for e in errors]
    assert not check_signature(elab)
    return elab, ticked


def test_skip1s_bridges_the_recursive_call():
    elab, _ = elaborate(COMPRESS)
    body = fmt_proc(elab.procdefs["skip1s"].clauses[0].body)
    b1 = body.split("| b1 =>")[1].split("| $")[0]
    # The tail call is expanded to a spawn and the forward is delayed one
    # step, bridging ()<>sbits to <>sbits.
    assert "x' <- skip1s <- y" in b1
    assert "delay" in b1 and "x <- x'" in b1


def test_skip1s_b0_branch_announces_readiness():
    elab, _ = elaborate(COMPRESS)
    body = fmt_proc(elab.procdefs["skip1s"].clauses[0].body)
    b0 = body.split("| b1 =>")[0]
    assert "now! x" in b0 and b0.index("tick") < b0.index("now! x")


def test_queue_empty_gets_two_delays_before_the_forward():
    elab, _ = elaborate("""
type eltA = +{ v : ()1 }
type queue = &{ enq : ()([]eltA -o ()^3 []queue),
                deq : ()+{ none : ()1, some : ()([]eltA * ()[]queue) } }
decl qelem : (x : []eltA) (t : ()^2 []queue) |- (s : []queue)
decl qempty : . |- (s : []queue)
proc s <- qelem <- x t =
  case s ( enq => y <- recv s ; t.enq ; send t y ; s <- qelem <- x t
         | deq => s.some ; send s x ; s <- t )
proc s <- qempty =
  case s ( enq => y <- recv s ; e <- qempty ; s2 <- qelem <- y e ; s <- s2
         | deq => s.none ; close s )
""", cost="rs")
    body = fmt_proc(elab.procdefs["qempty"].clauses[0].body)
    enq = body.split("| deq")[0]
    assert enq.count("delay{2}") == 1 or enq.count("delay ;") == 2


def test_cost_free_programs_are_left_alone():
    src = """
type bits = +{ b0 : bits, b1 : bits, $ : 1 }
decl six : . |- (x : bits)
proc x <- six = x.b0 ; x.b1 ; x.b1 ; x.$ ; close x
decl copy : (y : bits) |- (x : bits)
proc x <- copy <- y =
  case y ( b0 => x.b0 ; x <- copy <- y
         | b1 => x.b1 ; x <- copy <- y
         | $  => x.$ ; wait y ; close x )
decl plus1 : (y : bits) |- (x : bits)
proc x <- plus1 <- y =
  case y ( b0 => x.b1 ; x <- y
         | b1 => x.b0 ; x <- plus1 <- y
         | $  => x.$ ; wait y ; close x )
"""
    sig = parse_program(src)
    elab, errors = elaborate_signature(sig)
    assert not errors
    for name in sig.procdefs:
        assert elab.procdefs[name].clauses[0].body == \
            sig.procdefs[name].clauses[0].body


def test_raw_forward_increment_has_no_elaboration():
    ticked = instrument(parse_program("""
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl plus1 : (y : bits) |- (x : ()bits)
proc x <- plus1 <- y =
  case y ( b0 => x.b1 ; x <- y
         | b1 => x.b0 ; x <- plus1 <- y
         | $  => x.$ ; wait y ; close x )
"""), "r")
    _, errors = elaborate_signature(ticked)
    assert len(errors) == 1 and isinstance(errors[0], ReconstructionError)
    # The failure names the forward that no temporal step can repair.
    assert str(errors[0]) == (
        "in plus1: no temporal elaboration exists; deepest failing goal: "
        "5:25 [id] forwarded types differ (expected ()bits, found bits)")
    # Nor do actions on a channel whose type has another connective, and
    # the failure names the goal and its position.
    for text, goal in [
            ("decl f : . |- (x : 1)\nproc x <- f = x.b0 ; close x\n",
             "2:15 [+R] wrong protocol state on x (expected Plus, found 1)"),
            ("decl f : . |- (x : +{a : 1})\nproc x <- f = close x\n",
             "2:15 [1R] wrong protocol state on x (expected One, found "
             "+{a : 1})"),
            # A wait on an infinite delay tower, which no delay changes.
            ("type t = ()t\ntype s = ()s\ndecl f : (y : t) |- (x : s)\n"
             "proc x <- f <- y = wait y ; close x\n",
             "4:20 [1L] channel y is not ready for this action (expected "
             "One, found t)")]:
        _, errors = elaborate_signature(parse_program(text))
        assert [str(e) for e in errors] == [
            f"in f: no temporal elaboration exists; deepest failing goal: "
            f"{goal}"]


def test_erasure_recovers_the_ticked_source():
    elab, ticked = elaborate(COMPRESS)
    for name in elab.procdefs:
        erased = erase_reconstructed(elab.procdefs[name].clauses[0].body)
        assert erased == ticked.procdefs[name].clauses[0].body


def test_explicit_input_is_rejected():
    sig = parse_program("""
type t = ()1
decl f : . |- (x : t)
proc x <- f = delay ; close x
""")
    with pytest.raises(ReconstructionError, match="explicit"):
        elaborate_signature_raise(sig)


def elaborate_signature_raise(sig):
    _, errors = elaborate_signature(sig)
    if errors:
        raise errors[0]


def test_forwarding_identity_examples():
    sig = parse_program(
        "type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }")
    ops = TypeOps(sig)
    sb = TypeName("sbits")
    from tss.ast import Box, Diamond, Next, One
    assert FwdElaborator(ops).check(Next(1, Diamond(sb)), Diamond(sb))
    assert not FwdElaborator(ops).check(Diamond(sb), Next(1, Diamond(sb)))
    assert FwdElaborator(ops).check(Box(One()), Next(1, Box(One())))
    assert not FwdElaborator(ops).check(One(), Next(1, One()))


def test_budget_exhaustion_reports_deepest_goal():
    ticked = instrument(parse_program(COMPRESS), "r")
    _, errors = elaborate_signature(ticked, budget=5)
    assert errors and "budget" in str(errors[0])


def test_two_eventualities_cannot_both_be_awaited():
    # Waiting on one eventually-channel demands every other channel be
    # patient as a box; two of them block each other.
    ticked = instrument(parse_program("""
type done = +{ fin : ()1 }
decl f : (y : <>done) (z : <>done) |- (x : <>1)
proc x <- f <- y z =
  case y ( fin => wait y ; case z ( fin => wait z ; close x ) )
"""), "r")
    _, errors = elaborate_signature(ticked)
    assert len(errors) == 1


def test_boxed_sibling_lets_the_wait_happen():
    # Same shape, but the second channel is always available: now the
    # first wait is fine and the second channel is poked afterwards.
    ticked = instrument(parse_program("""
type done = +{ fin : ()1 }
decl f : (y : <>done) (z : []done) |- (x : <>1)
proc x <- f <- y z =
  case y ( fin => wait y ; case z ( fin => wait z ; close x ) )
"""), "r")
    elab, errors = elaborate_signature(ticked)
    assert not errors, [str(e) for e in errors]
    from tss.checker import check_signature
    assert not check_signature(elab)
    body = fmt_proc(elab.procdefs["f"].clauses[0].body)
    assert "when? y" in body and "now! z" in body


def test_reelaboration_of_erased_output_is_idempotent():
    elab, _ = elaborate(COMPRESS)
    stripped = {name: erase_reconstructed(p.clauses[0].body)
                for name, p in elab.procdefs.items()}
    # Rebuild a signature from the erased bodies and elaborate again.
    from tss.ast import DefClause, ProcDef, Signature
    again = Signature(dict(elab.typedefs), dict(elab.procdecls), {})
    for name, pdef in elab.procdefs.items():
        cl = pdef.clauses[0]
        again.procdefs[name] = ProcDef(
            name, [DefClause((), cl.dest, cl.chans, stripped[name])])
    elab2, errors = elaborate_signature(again)
    assert not errors
    for name in elab.procdefs:
        assert elab2.procdefs[name].clauses[0].body == \
            elab.procdefs[name].clauses[0].body


def _nodes(term):
    """Every node reachable from a term, through fields and tuples."""
    todo, out = [term], []
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            todo.extend(node)
        elif is_dataclass(node):
            out.append(node)
            todo.extend(getattr(node, f.name) for f in fields(node))
    return out


def _recon_runs(term):
    """Pairs of directly nested reconstruction delays in a term."""
    return [n for n in _nodes(term) if isinstance(n, Delay)
            and n.origin is Origin.RECON and isinstance(n.cont, Delay)
            and n.cont.origin is Origin.RECON]


def _elaborate_goals(sig):
    """(source body, finished engine, raw result) per definition, straight
    from the search engine."""
    ops = TypeOps(sig)
    for name, pdef in sig.procdefs.items():
        decl = sig.procdecls[name].clauses[0]
        cl = pdef.clauses[0]
        engine = _Elab(ops, 100_000)
        ctx = {c: t for c, (_, t) in zip(cl.chans, decl.ctx)}
        out = engine.elab(ctx, cl.body, cl.dest, decl.offer_type, 0)
        yield cl.body, engine, out


def test_memo_keys_name_live_nodes():
    # A goal is keyed by id(node): every key must name a node that is
    # still alive, a source node or the one cached bridge of a tail call,
    # or a later node could reuse the id.
    bridged = 0
    for body, engine, out in _elaborate_goals(
            instrument(parse_program(COMPRESS), "r")):
        assert out is not None
        gc.collect()
        bridges = getattr(engine, "bridges", {}).values()
        live = {id(n) for n in _nodes(body)} | {id(f) for f in bridges}
        assert {key[0] for key in (*engine.done, *engine.reached)} <= live
        for call in _nodes(body):
            if isinstance(call, TailCall) and id(call) in engine.bridges:
                cached = engine.bridges[id(call)]
                assert engine._bridge(call) is cached
                bridged += 1
    assert bridged


@pytest.mark.parametrize("r", [4, 20])
def test_large_delay_exponents_reconstruct(r):
    # append_rs declares ()^{(r+4)n+2}: 514 units at r=4, 1538 at r=20,
    # well past the default recursion limit.
    ground = instantiate_many(parse_program(source("append_rs.tss")),
                              ["amain"], {"n": 64, "k": 64, "r": r})
    elab, errors = elaborate_signature(instrument(ground, "rs"))
    assert not errors, [str(e) for e in errors]
    assert not check_signature(elab)
    body = fmt_proc(elab.procdefs["dsrc$64$64"].clauses[0].body)
    assert f"delay{{{(r + 4) * 64 + 2}}}" in body


def test_a_huge_offered_delay_is_one_jump():
    elab, _ = elaborate("""
decl f : . |- (x : ()^{1000000000} 1)
proc x <- f = close x
""")
    assert elab.procdefs["f"].clauses[0].body == \
        Delay(10**9, Origin.RECON, Close("x"))


LONG_BRIDGE = """
decl g : . |- (x : 1)
proc x <- g = close x
decl f : . |- (x : ()^{200000} 1)
proc x <- f = x <- g
"""


def test_a_long_bridge_is_one_jump():
    # Until the offer's delays reach the declared offer's, the bridge
    # cannot meet: the tail call's delay run is taken in one jump.
    elab, _ = elaborate(LONG_BRIDGE, "free")
    body = elab.procdefs["f"].clauses[0].body
    assert body == Delay(200000, Origin.RECON, TailCall("x", "g", (), ()))
    assert fmt_proc(body) == "delay{200000} ;  % reconstructed\nx <- g"


# A <> offer the declared <>1 can never be bridged to: a <> head may meet
# at any unit, so the run is taken one unit at a time.
MODAL_BRIDGE = """
decl g : . |- (x : <>1)
proc x <- g = close x
decl f : . |- (x : ()^{N} <>()1)
proc x <- f = x <- g
"""


def test_a_long_search_with_no_elaboration_runs_out_of_budget():
    def errors(n):
        _, errs = elaborate_signature(parse_program(
            MODAL_BRIDGE.replace("N", str(n))))
        assert len(errs) == 1 and isinstance(errs[0], ReconstructionError)
        return str(errs[0])

    assert errors(40).startswith("in f: no temporal elaboration exists; ")
    msg = errors(200000)
    assert msg.startswith("in f: search budget exhausted; deepest goal: "
                          "5:15 [def] offered type of g cannot be bridged "
                          "(expected ()^"), msg
    assert msg.endswith(" <>()1, found <>1)")


def _goals(sig):
    """The goals examined to elaborate every definition of `sig`."""
    return sum(100_000 - engine.budget
               for _, engine, _ in _elaborate_goals(sig))


def test_goals_examined_do_not_grow_with_delay_exponents():
    # append_rs's delays grow with r; its delay runs are jumped, so the
    # goals do not.  At r = 0 the recursive call needs no delay at all.
    goals = {}
    for r in range(5):
        ground = instantiate_many(parse_program(source("append_rs.tss")),
                                  ["amain"], {"n": 64, "k": 64, "r": r})
        goals[r] = _goals(instrument(ground, "rs"))
    assert goals[1] == goals[2] == goals[3] == goals[4], goals
    assert goals[0] <= goals[4] <= 1.1 * goals[0], goals
    assert _goals(parse_program(LONG_BRIDGE)) <= 10
    # An argument's delay tower is never exposed, so it does not end a run.
    assert _goals(parse_program("""
type t = ()t
decl g : (y : t) |- (x : ()^{2} +{a : t})
proc x <- g <- y = x.a ; x <- y
decl f : (y : t) |- (x : ()^{200000} +{a : t})
proc x <- f <- y = x <- g <- y
""")) <= 20


# The cut's body takes five units to bridge, and its continuation then
# fails at a shallower depth: the deepest failure is the call's on the
# last unit before its bridge meets, inside the jump.
BRIDGE_THEN_FAIL = """
decl g : . |- (x : 1)
proc x <- g = close x
decl f : . |- (x : 1)
proc x <- f = y : ()^{5} 1 <- (y <- g) ; wait y ; close x
"""


def test_a_jump_records_the_failure_of_its_last_unit():
    _, errors = elaborate_signature(parse_program(BRIDGE_THEN_FAIL))
    assert [str(e) for e in errors] == [
        "in f: no temporal elaboration exists; deepest failing goal: 5:32 "
        "[def] offered type of g cannot be bridged (expected ()1, found 1)"]


def test_a_goal_an_earlier_jump_passed_is_not_examined_again(monkeypatch):
    # The unit-at-a-time search memoizes every goal of a run, so meeting
    # one again records nothing; a jump must behave the same.
    sig = parse_program("""
decl g : . |- (x : +{a : 1})
proc x <- g = x.a ; close x
""")
    call = TailCall("x", "g", (), ())

    def search():
        engine = _Elab(TypeOps(sig), 100_000)
        assert engine.elab({}, call, "x", parse_type("()^{5} 1"), 0) is None
        first = engine.best_msg
        assert engine.elab({}, call, "x", parse_type("()^{3} 1"), 50) is None
        return first, engine.best_msg, engine

    first, again, engine = search()
    assert first == again == ("[def] offered type of g cannot be bridged "
                              "(expected 1, found +{a : 1})")
    assert 100_000 - engine.budget <= 6
    monkeypatch.setattr(_Elab, "_tail_run", lambda *args: None)
    assert search()[:2] == (first, again)


def test_no_adjacent_reconstruction_delays():
    # The search itself merges a delay run into one node.
    sigs = []
    for spec in check_specs():
        ground = instantiate_many(parse_program(source(spec.file)),
                                  [spec.root], spec.bind)
        sigs.append(instrument(ground, spec.cost))
    for seed in range(60):
        sig = gen_program(seed)
        cl = sig.procdefs["main"].clauses[0]
        skeleton = Signature(dict(sig.typedefs), dict(sig.procdecls), {})
        skeleton.procdefs["main"] = ProcDef(
            "main", [DefClause((), cl.dest, cl.chans,
                               strip_temporal(cl.body))])
        sigs.append(skeleton)
    elaborated = 0
    for sig in sigs:
        for _, _, out in _elaborate_goals(sig):
            if out is not None:
                assert not _recon_runs(out)
                elaborated += 1
    assert elaborated >= 60


# Tail calls whose bridges or arguments meet, or never meet, inside a
# delay run: [] and <> heads on the declared and the wanted offer,
# arguments whose delays run out before the offer's, arguments that expose
# a [] mid-run, and a delay tower.
BRIDGES = ["""
type a = +{ v : 1 }
decl g : . |- (x : []a)
proc x <- g = x.v ; close x
decl d : . |- (x : ()^{2} <>a)
proc x <- d = x.v ; close x
decl f1 : . |- (x : ()^{6} []a)
proc x <- f1 = x <- g
decl f2 : . |- (x : ()^{3} <>a)
proc x <- f2 = x <- g
decl f3 : . |- (x : ()^{5} a)
proc x <- f3 = x <- g
decl f4 : . |- (x : ()^{7} <>a)
proc x <- f4 = x <- d
decl f5 : . |- (x : ()<>a)
proc x <- f5 = x <- d
decl f6 : . |- (x : ()^{4} a)
proc x <- f6 = x <- d
decl g5 : . |- (x : ()^{5} 1)
proc x <- g5 = close x
decl f7 : . |- (x : ()^{3} <>()^{4} 1)
proc x <- f7 = x <- g5
decl f8 : . |- (x : ()^{3} []1)
proc x <- f8 = x <- g5
""", """
decl g : (y : ()^{2} 1) |- (x : ()^{3} 1)
proc x <- g <- y = wait y ; close x
decl g1 : (y : 1) |- (x : ()^{7} 1)
proc x <- g1 <- y = wait y ; close x
decl f1 : (y : ()^{4} 1) |- (x : ()^{9} 1)
proc x <- f1 <- y = x <- g <- y
decl f2 : (y : ()^{5} 1) |- (x : ()^{6} 1)
proc x <- f2 <- y = x <- g <- y
decl f3 : (y : ()^{2} 1) |- (x : ()^{9} 1)
proc x <- f3 <- y = x <- g1 <- y
decl f4 : (y : ()^{2} 1) |- (x : ()^{11} 1)
proc x <- f4 <- y = x <- g1 <- y
decl f5 : (y : ()^{3} 1) (z : ()^{8} 1) |- (x : ()^{12} 1)
proc x <- f5 <- y z = wait y ; x <- g <- z
decl b : (y : ()1) |- (x : []1)
proc x <- b <- y = wait y ; close x
decl f6 : (y : ()^{3} 1) |- (x : ()^{5} 1)
proc x <- f6 <- y = x <- b <- y
""", """
type a = &{ v : 1 }
decl g : (y : []a) |- (x : ()^{5} 1)
proc x <- g <- y = y.v ; wait y ; close x
decl f1 : (y : ()^{3} []a) |- (x : ()^{8} 1)
proc x <- f1 <- y = x <- g <- y
decl f2 : (y : ()^{3} []a) |- (x : ()^{6} 1)
proc x <- f2 <- y = x <- g <- y
decl f3 : (y : ()^{2} []a) (z : ()^{6} 1) |- (x : ()^{9} 1)
proc x <- f3 <- y z = wait z ; x <- g <- y
""", """
type t = ()t
decl g : . |- (x : ()^{3} 1)
proc x <- g = close x
decl h : (y : t) |- (x : ()^{2} t)
proc x <- h <- y = x <- y
decl f1 : . |- (x : ()^{40} 1)
proc x <- f1 = x <- g
decl f2 : . |- (x : ()^{40} +{a : 1})
proc x <- f2 = x <- g
decl f3 : (y : t) |- (x : ()^{9} t)
proc x <- f3 <- y = x <- h <- y
""", BRIDGE_THEN_FAIL, MODAL_BRIDGE.replace("N", "30")]


def test_silent_runs_jump_to_the_same_elaboration(monkeypatch):
    # Taking every delay run one unit at a time, silent runs and tail
    # calls' alike, gives the same terms and the same errors as jumping.
    sigs = [parse_program(src) for src in BRIDGES]
    for spec in check_specs():
        ground = instantiate_many(parse_program(source(spec.file)),
                                  [spec.root], spec.bind)
        sigs += [instrument(ground, cost) for cost in ("free", "r", "rs")]

    def outcomes(budget):
        out = []
        for sig in sigs:
            elab, errors = elaborate_signature(sig, budget=budget)
            out.append((pretty_print(elab), [str(e) for e in errors]))
        return out

    jumped = outcomes(100_000)
    assert sum(bool(errors) for _, errors in jumped) >= 10
    monkeypatch.setattr(reconstruct, "_SILENT_HEADS", ())
    monkeypatch.setattr(_Elab, "_tail_run", lambda *args: None)
    assert outcomes(10_000_000) == jumped


SPAWN_REUSES_A_CONSUMED_NAME = """
decl g : (y : 1) |- (x : 1)
proc x <- g <- y = wait y ; close x
decl f : (y : 1) |- (x : 1)
proc x <- f <- y = y <- g <- y ; wait y ; close x
"""


def test_a_spawn_may_reuse_the_name_of_a_channel_its_call_takes():
    # The spawned channel is fresh once the call has taken its arguments:
    # the explicit checker and reconstruction read the one spawn rule.
    sig = parse_program(SPAWN_REUSES_A_CONSUMED_NAME)
    assert not check_signature(sig)
    prog = load(SPAWN_REUSES_A_CONSUMED_NAME, [], {}, "free")
    assert (prog.verdict, prog.errors) == ("ok", [])
    for name, pdef in sig.procdefs.items():
        assert prog.elab.procdefs[name].clauses[0].body == \
            pdef.clauses[0].body


# Actions with one continuation, which a mutant leaves out.
_DROPPABLE = (SendLabel, Wait, SendChan, RecvChan, Delay)


def _drops(p):
    """Every term that is `p` with one action of one continuation left
    out, in pre-order."""
    if isinstance(p, _DROPPABLE):
        yield p.cont
    subs = subprocs(p)
    for i, q in enumerate(subs):
        for q2 in _drops(q):
            yield with_subprocs(p, subs[:i] + (q2,) + subs[i + 1:])


def test_every_reconstruction_failure_names_its_place():
    # Corpus definitions with one action left out, drawn with a fixed seed:
    # each failure names the deepest goal's line:col and rule.
    rng = random.Random(7)
    failed = 0
    for spec in check_specs():
        ground = instantiate_many(parse_program(source(spec.file)),
                                  [spec.root], spec.bind)
        ticked = instrument(ground, rng.choice(("free", "r", "rs")))
        name = rng.choice(sorted(ticked.procdefs))
        cl = ticked.procdefs[name].clauses[0]
        mutants = list(_drops(cl.body))
        for body in rng.sample(mutants, min(2, len(mutants))):
            sig = Signature(dict(ticked.typedefs), dict(ticked.procdecls),
                            dict(ticked.procdefs))
            sig.procdefs[name] = ProcDef(name, [DefClause(
                (), cl.dest, cl.chans, body, cl.pos)])
            _, errors = elaborate_signature(sig)
            for e in errors:
                assert re.search(r"goal: \d+:\d+ \[", str(e)), str(e)
            failed += len(errors)
    assert failed >= 40
