"""Hash-consed index and session-type nodes: every way of building a type
returns the one node with that structure, so type equality is identity."""

import copy
import dataclasses
import pickle
from typing import get_args

import pytest

from tss import acceptance, corpus
from tss.ast import (ONE, Box, Close, Cut, Diamond, Fwd, IAdd, IMul, IVar,
                     Lolli, Next, One, Plus, SendLabel, SessionType, Tensor,
                     TypeName, With, next_type)
from tss.instantiate import instantiate, instantiate_many
from tss.parser import parse_program, parse_type
from tss.printer import fmt_type
from tss.runtime import Obj
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
    assert hash(Obj("proc", "c", 3, a)) == hash(Obj("proc", "c", 3, b))
    assert SendLabel("c", "m", Close("c")) != a
