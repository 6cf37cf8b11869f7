"""Hash-consed index and session-type nodes: every way of building a type
returns the one node with that structure, so type equality is identity."""

import copy
import dataclasses
import gc
import pickle
from typing import get_args

import pytest

from tss import acceptance, corpus
from tss.ast import (CHAN_FIELDS, ONE, SUBPROC_FIELDS, Box, Case, Close, Cut,
                     Delay, Diamond, Fwd, IAdd, IMul, IVar, Lolli, Next, Now,
                     One, Origin, Plus, ProcExpr, RecvChan, SendChan,
                     SendLabel, SessionType, Spawn, TailCall, Tensor,
                     TypeName, Wait, When, With, bound_by, free_chans,
                     map_subprocs, next_type, own_chans, rename_chans,
                     subprocs)
from tss.instantiate import instantiate, instantiate_many
from tss.parser import parse_program, parse_type
from tss.printer import fmt_type
from tss.typeops import TypeOps

LISTS = """
type eltA = +{ v : ()1 }
type list[0] = +{ nil : ()1 }
type list[n+1] = +{ cons : ()([]eltA * ()^{r+3} list[n]) }
"""


def _sig_types(sig):
    """Every type written in a signature: definition bodies, declared
    interfaces and cut annotations."""
    for td in sig.typedefs.values():
        for cl in td.clauses:
            yield cl.body
    for pd in sig.procdecls.values():
        for cl in pd.clauses:
            yield from (t for _, t in cl.ctx)
            yield cl.offer_type
    todo = [cl.body for pd in sig.procdefs.values() for cl in pd.clauses]
    while todo:
        node = todo.pop()
        if isinstance(node, Cut):
            yield node.annot
        if isinstance(node, tuple):
            todo.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(
                node, get_args(SessionType)):
            todo.extend(getattr(node, f.name) for f in dataclasses.fields(node))


def _corpus_signatures():
    """Each corpus file as parsed, and grounded at every root it is run
    or checked at."""
    for file in sorted({s.file for s in corpus.check_specs()}):
        yield file, corpus.parse(file)
    for spec in corpus.check_specs():
        yield (f"{spec.file}:{spec.root}{spec.bind}",
               instantiate_many(corpus.parse(spec.file), [spec.root], spec.bind))


def test_no_type_node_defines_equality_or_hashing():
    for cls in get_args(SessionType) + (IVar, IAdd, IMul):
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__hash__ is object.__hash__, cls


def test_positional_and_keyword_construction_agree():
    assert One() is ONE
    assert TypeName("X") is TypeName("X", ()) is TypeName(name="X") \
        is TypeName(args=(), name="X")
    assert TypeName("X", (1,)) is not TypeName("X")
    assert Next(2, Box(ONE)) is Next(count=2, inner=Box(inner=One()))
    assert Plus((("a", ONE),)) is Plus(branches=(("a", One()),))
    assert Tensor(ONE, ONE) is Tensor(ONE, right=ONE)
    assert IAdd(IVar("n"), 1) is IAdd(left=IVar(name="n"), right=1)
    # One table per class: equal fields under another constructor differ.
    assert Box(ONE) is not Diamond(ONE)
    assert Plus((("a", ONE),)) is not With((("a", ONE),))
    assert Tensor(ONE, ONE) is not Lolli(ONE, ONE)
    assert IAdd(1, 2) is not IMul(1, 2)
    with pytest.raises(TypeError):
        TypeName()
    with pytest.raises(TypeError):
        Next(1, ONE, ONE)
    with pytest.raises(TypeError):
        Box(inner=ONE, outer=ONE)


def test_parser_builds_the_constructed_node():
    assert parse_type("()^2 []1") is Next(2, Box(ONE))
    assert parse_type("()()x") is Next(2, TypeName("x"))
    assert parse_type("list[n+1]") is TypeName("list", (IAdd(IVar("n"), 1),))
    assert parse_type("+{a : 1 * <>1, b : 1 -o 1}") is Plus((
        ("a", Tensor(ONE, Diamond(ONE))), ("b", Lolli(ONE, ONE))))
    sig = parse_program("type bits = +{ b0 : ()bits, $ : ()1 }")
    assert sig.type_body("bits") is Plus((("b0", Next(1, TypeName("bits"))),
                                          ("$", Next(1, ONE))))


def test_instantiate_builds_the_constructed_node():
    a = instantiate(parse_program(LISTS), "list", {"n": 2, "r": 1})
    b = instantiate(parse_program(LISTS), "list", {"n": 2, "r": 1})
    assert a.type_body("list$2") is b.type_body("list$2")
    assert a.type_body("list$1") is Plus((("cons", Next(1, Tensor(
        Box(TypeName("eltA")), Next(4, TypeName("list$0"))))),))
    sig = parse_program("type bits = +{ b0 : ()bits, $ : ()1 }")
    assert instantiate(sig, "bits", {}).type_body("bits") is \
        sig.type_body("bits")


def test_next_type_and_shifts_build_the_constructed_node():
    assert next_type(0, ONE) is ONE
    assert next_type(1, Next(2, ONE)) is Next(3, ONE)
    assert next_type(IVar("n"), Next(IVar("m"), ONE)) is \
        Next(IAdd(IVar("n"), IVar("m")), ONE)
    ops = TypeOps(parse_program("type x = ()[]x"))
    assert ops.shift_left_n(Next(3, Box(ONE)), 1) is Next(2, Box(ONE))
    assert ops.shift_left_n(Next(3, Box(ONE)), 9) is Box(ONE)
    assert ops.shift_right_n(Next(3, Diamond(ONE)), 5) is Diamond(ONE)
    assert ops.shift_left_n(TypeName("x"), 1) is Box(TypeName("x"))
    assert ops.shift_left(Next(2, ONE)) is Next(1, ONE)
    assert ops.shift_right(Next(1, Diamond(ONE))) is Diamond(ONE)


def test_modal_universe_is_interned():
    first, second = acceptance.modal_universe(), acceptance.modal_universe()
    assert len(first) == 247
    assert all(a is b for a, b in zip(first, second))
    assert len({id(t) for t in first}) == 247
    for t in first:
        assert parse_type(fmt_type(t)) is t, fmt_type(t)


def test_modal_universe_leaves_no_reference_cycles():
    # A call leaves nothing for the cycle collector, which a benchmark's
    # frozen set-up would otherwise keep.
    gc.collect()
    gc.disable()
    try:
        types = acceptance.modal_universe()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(types) == 247
    assert types[0] is ONE
    assert types[-1] is Diamond(Diamond(Diamond(Diamond(ONE))))


def test_corpus_types_reparse_to_the_same_node():
    for where, sig in _corpus_signatures():
        types = list(_sig_types(sig))
        assert types, where
        for t in types:
            assert parse_type(fmt_type(t)) is t, (where, fmt_type(t))


def test_copies_and_pickles_return_the_interned_node():
    types = acceptance.modal_universe()[:40] + [
        TypeName("list", (IAdd(IMul(2, IVar("n")), 1),)),
        parse_type("&{a : 1 * <>1, b : []1 -o ()^3 1}")]
    for t in types:
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, proto)) is t
    # Types inside other values come back interned too.
    cut = Cut("x", types[-1], Close("x"), Fwd("y", "x"))
    assert copy.deepcopy(cut).annot is types[-1]
    assert copy.deepcopy({types[0]: [types[1]]}) == {types[0]: [types[1]]}


def test_repeated_strip_unfolds_a_name_chain_once():
    sig = parse_program("type a = ()b\ntype b = ()^2 c\ntype c = []1")
    ops = TypeOps(sig)
    calls = []
    body = sig.type_body
    sig.type_body = lambda name: calls.append(name) or body(name)
    for _ in range(3):
        n, base = ops.strip(TypeName("a"))
        assert n == 3 and base is Box(ONE)
        assert ops.expose(TypeName("a")) is None
        assert ops.patient(TypeName("a"), "box")
        assert calls == ["a", "b", "c"]


def test_process_nodes_hash_structurally_without_positions():
    a = SendLabel("c", "l", Close("c", pos=(1, 9)), pos=(1, 1))
    b = SendLabel("c", "l", Close("c"), pos=(2, 5))
    assert a is not b and a == b
    assert hash(a) == hash(a) == hash(b)
    assert SendLabel("c", "m", Close("c")) != a


# One node of each process form, each sub-process a distinct object.
FORMS = [
    Spawn("y", "p", (), ("z",), Wait("y", Close("x")), via_tailcall=True,
          pos=(1, 2)),
    TailCall("x", "p", (), ("z",), pos=(1, 3)),
    Cut("y", ONE, Close("y"), Wait("y", Close("x")), pos=(1, 4)),
    Fwd("x", "y", pos=(1, 5)),
    SendLabel("x", "a", Close("x"), pos=(1, 6)),
    Case("y", (("a", Close("x")), ("b", Wait("y", Close("x")))), pos=(1, 7)),
    Close("x", pos=(1, 8)),
    Wait("y", Close("x"), pos=(1, 9)),
    SendChan("x", "z", Close("x"), pos=(1, 10)),
    RecvChan("w", "y", Fwd("x", "w"), pos=(1, 11)),
    Delay(2, Origin.SOURCE, Close("x"), pos=(1, 12)),
    When("y", Close("x"), pos=(1, 13)),
    Now("x", Close("x"), pos=(1, 14)),
]


def test_traversal_table_covers_every_process_form():
    assert set(SUBPROC_FIELDS) == set(get_args(ProcExpr))
    assert set(CHAN_FIELDS) == set(get_args(ProcExpr))
    assert {type(p) for p in FORMS} == set(get_args(ProcExpr))


def test_subprocesses_come_in_source_order():
    cut, case = FORMS[2], FORMS[5]
    assert subprocs(cut) == (cut.body, cut.cont)
    assert subprocs(case) == (case.branches[0][1], case.branches[1][1])


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_identity_map_returns_the_node_itself(p):
    assert map_subprocs(p, lambda q: q) is p


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_map_replaces_exactly_the_subprocesses(p):
    seen = []

    def mark(q):
        seen.append(q)
        return Fwd("mark", str(len(seen)))

    out = map_subprocs(p, mark)
    assert seen == list(subprocs(p))
    assert all(a is b for a, b in zip(seen, subprocs(p)))
    assert subprocs(out) == tuple(Fwd("mark", str(i + 1))
                                  for i in range(len(seen)))
    # Every other field is kept, `pos` and `via_tailcall` included.
    for f in dataclasses.fields(p):
        if f.name not in SUBPROC_FIELDS[type(p)]:
            assert getattr(out, f.name) == getattr(p, f.name), f.name
    if isinstance(p, Case):
        assert [lab for lab, _ in out.branches] == ["a", "b"]


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_bound_by_names_the_binder(p):
    expected = {Spawn: ("y",), Cut: ("y",), RecvChan: ("w",)}
    assert bound_by(p) == expected.get(type(p), ())


# Per node of FORMS: its own channels, its free channels, and the node
# renamed under SUB, which renames every name; a binder and what it binds
# keep their name.
SUB = {"w": "w1", "x": "x1", "y": "y1", "z": "z1"}
CHANNELS = [
    (("z",), {"x", "z"},
     Spawn("y", "p", (), ("z1",), Wait("y", Close("x1")))),
    (("x", "z"), {"x", "z"}, TailCall("x1", "p", (), ("z1",))),
    ((), {"x"}, Cut("y", ONE, Close("y"), Wait("y", Close("x1")))),
    (("x", "y"), {"x", "y"}, Fwd("x1", "y1")),
    (("x",), {"x"}, SendLabel("x1", "a", Close("x1"))),
    (("y",), {"x", "y"},
     Case("y1", (("a", Close("x1")), ("b", Wait("y1", Close("x1")))))),
    (("x",), {"x"}, Close("x1")),
    (("y",), {"x", "y"}, Wait("y1", Close("x1"))),
    (("x", "z"), {"x", "z"}, SendChan("x1", "z1", Close("x1"))),
    (("y",), {"x", "y"}, RecvChan("w", "y1", Fwd("x1", "w"))),
    ((), {"x"}, Delay(2, Origin.SOURCE, Close("x1"))),
    (("y",), {"x", "y"}, When("y1", Close("x1"))),
    (("x",), {"x"}, Now("x1", Close("x1"))),
]


@pytest.mark.parametrize("p, own, free, renamed",
                         [(p, *c) for p, c in zip(FORMS, CHANNELS)],
                         ids=[type(p).__name__ for p in FORMS])
def test_channels_of_each_process_form(p, own, free, renamed):
    assert type(renamed) is type(p)
    assert own_chans(p) == own
    assert free_chans(p) == free
    out = rename_chans(p, SUB)
    assert out == renamed
    # Fields outside equality are kept too.
    assert out.pos == p.pos
    if isinstance(p, Spawn):
        assert out.via_tailcall is p.via_tailcall is True
    assert rename_chans(p, {}) is p


# The contract of the process nodes' constructor: each form is still a
# frozen dataclass in everything but how it writes its fields.
REPRS = [
    "Spawn(dest='y', proc='p', args=(), chans=('z',), cont=Wait(chan='y', "
    "cont=Close(chan='x')))",
    "TailCall(dest='x', proc='p', args=(), chans=('z',))",
    "Cut(dest='y', annot=One(), body=Close(chan='y'), cont=Wait(chan='y', "
    "cont=Close(chan='x')))",
    "Fwd(dest='x', src='y')",
    "SendLabel(chan='x', label='a', cont=Close(chan='x'))",
    "Case(chan='y', branches=(('a', Close(chan='x')), ('b', Wait(chan='y', "
    "cont=Close(chan='x')))))",
    "Close(chan='x')",
    "Wait(chan='y', cont=Close(chan='x'))",
    "SendChan(chan='x', payload='z', cont=Close(chan='x'))",
    "RecvChan(bind='w', chan='y', cont=Fwd(dest='x', src='w'))",
    "Delay(count=2, origin=<Origin.SOURCE: 'source'>, cont=Close(chan='x'))",
    "When(chan='y', cont=Close(chan='x'))",
    "Now(chan='x', cont=Close(chan='x'))",
]
OUTSIDE_EQUALITY = {"pos", "via_tailcall"}


def _values(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_assigning_a_field_of_a_process_node_raises(p):
    hash(p), free_chans(p)  # the node keeps both for itself
    for name in [*_values(p), "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, name)


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_position_and_tail_call_mark_stay_out_of_equality(p):
    outside = OUTSIDE_EQUALITY & set(_values(p))
    assert outside == ({"pos", "via_tailcall"} if isinstance(p, Spawn)
                       else {"pos"})
    for name in outside:
        other = dataclasses.replace(p, **{name: not getattr(p, name)})
        assert other == p and hash(other) == hash(p)
        assert getattr(other, name) != getattr(p, name)
    compared = [f.name for f in dataclasses.fields(p) if f.compare]
    assert set(compared) == set(_values(p)) - outside


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_keyword_and_defaulted_construction_equal_positional(p):
    cls, values = type(p), _values(p)
    positional = cls(*values.values())
    assert _values(positional) == values
    assert _values(cls(**values)) == values
    required = [v for f, v in zip(dataclasses.fields(p), values.values())
                if f.default is dataclasses.MISSING]
    bare = cls(*required)
    assert bare == positional and bare.pos is None
    if isinstance(p, Spawn):
        assert bare.via_tailcall is False
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*required, colour=1)
    assert cls.__match_args__ == tuple(values)


@pytest.mark.parametrize("p", FORMS, ids=lambda p: type(p).__name__)
def test_copies_and_pickles_of_a_process_node_are_equal(p):
    h = hash(p)
    free_chans(p)
    for copied in (dataclasses.replace(p), copy.copy(p), copy.deepcopy(p),
                   pickle.loads(pickle.dumps(p))):
        assert copied is not p
        assert copied == p and hash(copied) == h
        assert _values(copied) == _values(p)
        assert free_chans(copied) is free_chans(p)


@pytest.mark.parametrize("p, text", list(zip(FORMS, REPRS)),
                         ids=[type(p).__name__ for p in FORMS])
def test_repr_of_a_process_node_is_unchanged(p, text):
    assert repr(p) == text


def test_equal_free_channel_sets_are_one_object():
    """After elaborating and running a program, the nodes that keep a
    free-channel set keep one object per distinct set."""
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 4}, "rs")
    final, _, _ = prog.run()
    roots = [cl.body for sig in (prog.ticked, prog.elab)
             for pd in sig.procdefs.values() for cl in pd.clauses]
    roots += [o.code for o in final.objs.values()]
    kept, todo, seen = [], list(roots), set()
    while todo:
        q = todo.pop()
        if id(q) in seen:
            continue
        seen.add(id(q))
        if "_free" in q.__dict__:
            kept.append(q.__dict__["_free"])
        todo.extend(subprocs(q))
    assert len(kept) > 50
    assert len({id(s) for s in kept}) == len(set(kept))
