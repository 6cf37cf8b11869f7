import gc
import itertools

import pytest

from tss.acceptance import modal_universe
from tss.ast import ONE, Box, Diamond, Next, Signature, TypeName, next_type
from tss.parser import parse_program
from tss.subtyping import is_subtype, is_weak_subtype, subtype_oracle
from tss.typeops import TypeOps

S = ONE  # a representative basic session type


@pytest.fixture(scope="module")
def ops():
    return TypeOps(Signature())


def test_reflexivity(ops):
    for t in (S, Box(S), Diamond(Next(2, S)), Next(3, Box(S))):
        assert is_subtype(ops, t, t)


def test_box_slides_right(ops):
    assert is_subtype(ops, Box(S), Next(1, Box(S)))
    assert is_subtype(ops, Box(Next(1, S)), Next(1, S))


def test_box_does_not_slide_left(ops):
    assert not is_subtype(ops, Next(1, Box(S)), Box(S))


def test_diamond_slides_left():
    sig = parse_program(
        "type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }\n"
        "type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }\n")
    ops = TypeOps(sig)
    sb = TypeName("sbits")
    assert is_subtype(ops, Next(1, Diamond(sb)), Diamond(sb))
    assert not is_subtype(ops, Diamond(sb), Next(1, Diamond(sb)))


def test_no_structural_congruence(ops):
    # Subtyping below either branch set or payload is deliberately absent.
    a = next_type(1, Box(S))
    b = next_type(2, Box(S))
    from tss.ast import Plus
    assert not is_subtype(ops, Plus((("l", a),)), Plus((("l", b),)))


def test_derivation_trace(ops):
    trace: list = []
    assert is_subtype(ops, Box(S), Next(1, Box(S)), trace=trace)
    assert trace  # some rule applications recorded


def test_weak_subtyping_examples(ops):
    assert is_weak_subtype(ops, Box(S), Next(2, Box(S)))
    assert is_weak_subtype(ops, Next(3, Diamond(S)), Next(1, Diamond(S)))
    assert not is_weak_subtype(ops, Next(1, Box(S)), Box(S))
    assert not is_weak_subtype(ops, Next(1, Diamond(S)), Next(2, Diamond(S)))
    assert is_weak_subtype(ops, S, S)
    assert not is_weak_subtype(ops, Box(S), Diamond(S))


def _universe(depth):
    out, seen = [], set()

    def gen(t, d):
        if t not in seen:
            seen.add(t)
            out.append(t)
        if d == 0:
            return
        for wrap in (lambda u: next_type(1, u), lambda u: next_type(2, u),
                     Box, Diamond):
            gen(wrap(t), d - 1)

    gen(S, depth)
    return out


def test_procedure_matches_oracle_small(ops):
    universe = _universe(3)
    memo: dict = {}
    omemo: dict = {}
    for a, b in itertools.product(universe, repeat=2):
        assert is_subtype(ops, a, b, memo=memo) == \
            subtype_oracle(ops, a, b, memo=omemo), (a, b)


def test_weak_contained_in_subtyping(ops):
    universe = _universe(3)
    memo: dict = {}
    for a, b in itertools.product(universe, repeat=2):
        if is_weak_subtype(ops, a, b):
            assert is_subtype(ops, a, b, memo=memo)


def test_subtyping_under_recursion():
    sig = parse_program("type q = [] &{ go : ()q }")
    ops = TypeOps(sig)
    q = TypeName("q")
    assert is_subtype(ops, q, Next(2, q))
    assert not is_subtype(ops, Next(2, q), q)


def _recursive_universe():
    sig = parse_program(
        "type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }\n"
        "type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }\n"
        "type ctr = [] &{ inc : ()ctr, val : ()bits }\n"
        "type tower = ()tower\n"
        "type srv = [] +{ ping : ()srv }\n")
    ops = TypeOps(sig)
    uni, seen = [], set()

    def add(t):
        if t not in seen:
            seen.add(t)
            uni.append(t)

    for name in ("bits", "sbits", "ctr", "tower", "srv"):
        base = TypeName(name)
        add(base)
        for w1 in (lambda u: next_type(1, u), lambda u: next_type(2, u),
                   Box, Diamond):
            t1 = w1(base)
            add(t1)
            for w2 in (lambda u: next_type(1, u), Box, Diamond):
                add(w2(t1))
    return ops, uni


def test_infinite_delay_tower_rules():
    ops, _ = _recursive_universe()
    tower = TypeName("tower")
    # A tower absorbs delays and can still be promised eventually, and a
    # boxed process can wait a tower out; nothing can force it to act.
    assert is_subtype(ops, tower, Diamond(tower))
    assert is_subtype(ops, Box(tower), tower)
    assert is_subtype(ops, next_type(2, Box(tower)), tower)
    assert not is_subtype(ops, tower, Box(tower))
    assert not is_subtype(ops, Diamond(tower), tower)
    assert not is_subtype(ops, tower, TypeName("bits"))


def test_procedure_oracle_and_forwarding_agree_on_recursive_types():
    from tss.reconstruct import FwdElaborator
    ops, uni = _recursive_universe()
    fe = FwdElaborator(ops)
    memo: dict = {}
    omemo: dict = {}
    for a in uni:
        for b in uni:
            s = is_subtype(ops, a, b, memo=memo)
            assert subtype_oracle(ops, a, b, memo=omemo) == s, (a, b)
            assert fe.check(a, b) == s, (a, b)


def test_deciding_pairs_leaves_no_reference_cycles(ops):
    # A query's state is an object, not closures that call each other, so
    # deciding pairs leaves nothing for the cycle collector (which a
    # benchmark's frozen set-up would otherwise keep).
    pairs = list(itertools.product(modal_universe(), repeat=2))[::97]
    gc.collect()
    gc.disable()
    try:
        for a, b in pairs:
            is_subtype(ops, a, b)
            subtype_oracle(ops, a, b)
            ops.type_equal(a, b)
        assert gc.collect() == 0
    finally:
        gc.enable()
