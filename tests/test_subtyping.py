import gc
import hashlib
import itertools
import random

import pytest

from tss.acceptance import modal_universe
from tss.ast import ONE, Box, Diamond, Next, Signature, TypeName, next_type
from tss.errors import BudgetExceededError
from tss.parser import parse_program, parse_type
from tss.reconstruct import FwdElaborator
from tss.subtyping import (_Search, is_subtype, is_weak_subtype,
                           subtype_oracle)
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
        "type srv = [] +{ ping : ()srv }\n"
        "type dl = ()^2 <>dl\n"
        "type bl = []()^2 bl\n"
        "type db = <>[]db\n")
    ops = TypeOps(sig)
    uni, seen = [], set()

    def add(t):
        if t not in seen:
            seen.add(t)
            uni.append(t)

    for name in ("bits", "sbits", "ctr", "tower", "srv", "dl", "bl", "db"):
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


LOOPS_SIG = parse_program("type dl = ()^2 <>dl\ntype db = <>[]db\n")


@pytest.mark.parametrize("a, b", [("dl", "<>1"), ("db", "<>1"),
                                  ("dl", "()^{4} <>1")])
def test_forwarding_fails_a_goal_met_again_on_its_path(a, b):
    # `y : <>dl` against `<>1` takes when? and two delays back to itself.
    ops = TypeOps(LOOPS_SIG)
    a, b = parse_type(a), parse_type(b)
    assert not is_subtype(ops, a, b)
    assert not FwdElaborator(ops).check(a, b)


def test_deep_searches_take_no_python_frame_per_goal():
    # Each `<>L` of `dl` against a long delay run opens goals on the
    # search's own stack, so the verdict does not wait on the recursion
    # limit.
    ops = TypeOps(LOOPS_SIG)
    for n in (1000, 100_000):
        assert not is_subtype(ops, parse_type("dl"),
                              parse_type(f"()^{{{n}}} <>1"))


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


# ---------------------------------------------------------------------------
# Delay runs: `[]A <: ()^n B` by `[]()` and `()^n A <: <>B` by `()<>` take
# one unit per goal, so their length is bounded by the budget, not by
# Python's stack.

RUN_SIG = parse_program("type t = +{ a : ()t, b : 1 }")


def delay_runs(n):
    """Goals whose search takes a delay run of length n, with a plain, a
    named and a modal type inside, and one whose run fails at its end."""
    for inner in ("1", "t", "<>1"):
        yield f"[]{inner}", f"()^{{{n}}} []{inner}"
    for inner in ("1", "t", "[]1"):
        yield f"()^{{{n}}} <>{inner}", f"<>{inner}"
    yield "[]<>1", f"()^{{{n}}} 1"


@pytest.fixture(scope="module")
def run_ops():
    return TypeOps(RUN_SIG)


@pytest.mark.parametrize("n", [1, 2, 300, 400, 5000])
def test_delay_runs_agree_with_forwarding(run_ops, n):
    fe = FwdElaborator(run_ops)
    for a, b in delay_runs(n):
        a, b = parse_type(a), parse_type(b)
        assert is_subtype(run_ops, a, b) == fe.check(a, b), (a, b)
        assert is_subtype(run_ops, b, a) == fe.check(b, a), (b, a)


@pytest.mark.parametrize("n", [1, 2, 200])
def test_delay_runs_agree_with_the_oracle(run_ops, n):
    for a, b in delay_runs(n):
        a, b = parse_type(a), parse_type(b)
        assert is_subtype(run_ops, a, b) == subtype_oracle(run_ops, a, b)


@pytest.mark.parametrize("n", [2, 3, 300])
def test_delay_runs_keep_their_rule_lists(ops, n):
    def rules(a, b):
        trace: list = []
        assert is_subtype(ops, parse_type(a), parse_type(b), trace=trace)
        return trace
    assert rules("[]1", f"()^{{{n}}} []1") == ["[]()"] * n + ["refl"]
    assert rules(f"()^{{{n}}} <>1", "<>1") == ["()<>"] * n + ["refl"]
    # The run fails at its end, and the unit two above it closes by `[]L`.
    assert rules("[]()^2 1", f"()^{{{n}}} 1") == ["[]()"] * (n - 2) + \
        ["[]L", "refl"]
    # Every unit fails, and the first closes by `<>R`; with a memo that
    # holds the second goal's failure, the run ends there.
    assert rules(f"()^{{{n}}} 1", f"<>()^{{{n}}} 1") == ["<>R", "refl"]
    memo: dict = {}
    assert not is_subtype(ops, parse_type(f"()^{{{n - 1}}} 1"),
                          parse_type(f"<>()^{{{n}}} 1"), memo=memo)
    trace: list = []
    assert is_subtype(ops, parse_type(f"()^{{{n}}} 1"),
                      parse_type(f"<>()^{{{n}}} 1"), trace=trace, memo=memo)
    assert trace == ["<>R", "refl"]


@pytest.mark.parametrize("a, b, goals", [("bt", "loop", 79), ("bt", "dl", 107),
                                         ("bt", "()^5 <>1", 224),
                                         ("bt", "[]()^4 <>1", 113)])
def test_cyclic_delay_runs_search_the_same_goals(a, b, goals):
    # Goals met again on the search path fail, and a failure below such a
    # cycle is not kept, unit by unit; the goal count is the parent's.
    sig = parse_program("type bt = [](()bt)\ntype loop = ()^3 []loop\n"
                        "type dl = ()^2 <>dl\n")
    ops = TypeOps(sig)
    a, b = parse_type(a), parse_type(b)
    assert not is_subtype(ops, a, b, budget=goals)
    with pytest.raises(BudgetExceededError):
        is_subtype(ops, a, b, budget=goals - 1)


def test_long_delay_runs_end_in_a_verdict_or_the_budget(ops):
    for a, b in (("[]1", "()^{50000} []1"), ("()^{50000} <>1", "<>1")):
        assert is_subtype(ops, parse_type(a), parse_type(b))
    # A run of n units takes n + 1 goals of the budget.
    for a, b in (("[]1", "()^{1000} []1"), ("()^{1000} <>1", "<>1")):
        a, b = parse_type(a), parse_type(b)
        assert is_subtype(ops, a, b, budget=1001)
        with pytest.raises(BudgetExceededError):
            is_subtype(ops, a, b, budget=1000)


# ---------------------------------------------------------------------------
# The goals a search visits, pinned: verdicts, rule lists, goal counts,
# cycles met and what the memo keeps.

NAMED_SIG = parse_program(
    "type t = +{ a : ()t, b : 1 }\ntype bt = [](()bt)\n"
    "type loop = ()^3 []loop\ntype dl = ()^2 <>dl\ntype tower = ()tower\n"
    "type db = <>[]db\ntype bl = []()^2 bl\n")


def _named_pool():
    """Each name of NAMED_SIG under (), ()^3, [] and <>, next to short delay
    runs over plain and modal types."""
    pool = []
    for name in sorted(NAMED_SIG.typedefs):
        base = TypeName(name)
        pool += [base, next_type(1, base), next_type(3, base), Box(base),
                 Diamond(base)]
    for n in (1, 2, 5):
        for a, b in delay_runs(n):
            pool += [parse_type(a), parse_type(b)]
    return list(dict.fromkeys(pool))


def _search_queries():
    """(ops, shared memo or None, budget, pairs) groups: a seeded share of
    the modal universe with one memo, a smaller one with a fresh memo per
    pair, the same at budgets 1, 2, 3, 5 and 8, and the named pool."""
    uni = modal_universe()
    pairs = list(itertools.product(uni, repeat=2))
    rng = random.Random(29)
    ops = TypeOps(Signature())
    yield ops, {}, 100_000, rng.sample(pairs, 6000)
    yield ops, None, 100_000, rng.sample(pairs, 1000)
    for budget in (1, 2, 3, 5, 8):
        yield ops, {}, budget, rng.sample(pairs, 600)
    named = TypeOps(NAMED_SIG)
    pool = list(itertools.product(_named_pool(), repeat=2))
    yield named, {}, 100_000, pool
    yield named, None, 100_000, rng.sample(pool, 800)
    for budget in (1, 2, 3, 5, 8):
        yield named, {}, budget, rng.sample(pool, 300)


def test_search_takes_the_steps_of_the_recursive_search():
    # Digest of each query's verdict or exception, rule list, goal count and
    # cycles met, and of each shared memo, as the recursive search gave them.
    digest = hashlib.sha256()
    count = 0
    for ops, shared, budget, pairs in _search_queries():
        for a, b in pairs:
            memo = {} if shared is None else shared
            trace: list = []
            search = _Search(ops, budget, trace, memo)
            try:
                verdict = search.sub(a, b)
            except BudgetExceededError:
                verdict = "budget"
            digest.update(repr((verdict, trace, search.steps,
                                search.cycles)).encode())
            count += 1
        if shared is not None:
            digest.update(repr(sorted(map(repr, shared.items()))).encode())
    assert count == 15900
    assert digest.hexdigest() == (
        "8613882242eee1a24c4df09cebedcb2e9918a4536aa00f26725408c01783990a")
