import hashlib
import itertools
import random

import pytest

from tss import corpus
from tss.ast import (ONE, Box, Diamond, IVar, Lolli, Next, Plus, Signature,
                     Tensor, TypeClause, TypeDef, TypeName, With, next_type,
                     type_refs)
from tss.errors import BudgetExceededError, ContractivenessError
from tss.instantiate import instantiate
from tss.parser import parse_program
from tss.typeops import TypeOps, check_contractive

BITS = """
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }
type ctr = [] &{ inc : ()ctr, val : ()bits }
"""


@pytest.fixture(scope="module")
def ops():
    return TypeOps(parse_program(BITS))


def test_bare_name_definition_rejected():
    sig = parse_program("type y = 1\ntype x = y")
    with pytest.raises(ContractivenessError, match="x"):
        check_contractive(sig)


def test_delayed_self_reference_is_contractive():
    check_contractive(parse_program("type x = ()x"))


def test_bits_contractive(ops):
    check_contractive(ops.sig)


def test_unfold_bits(ops):
    body = ops.unfold(TypeName("bits"))
    assert isinstance(body, Plus)
    assert body == ops.sig.type_body("bits")


def test_unfold_ctr_is_boxed_choice(ops):
    assert isinstance(ops.unfold(TypeName("ctr")), Box)


def test_unfold_identity_on_structural(ops):
    assert ops.unfold(ONE) == ONE


def test_equal_under_unfolding(ops):
    assert ops.type_equal(TypeName("bits"), ops.unfold(TypeName("bits")))


def test_counter_normalization_equality(ops):
    a = Next(1, Next(1, TypeName("bits")))  # deliberately non-normalized
    assert ops.type_equal(a, Next(2, TypeName("bits")))


def test_bits_not_equal_sbits(ops):
    assert not ops.type_equal(TypeName("bits"), TypeName("sbits"))


def test_infinite_delay_towers_are_bisimilar():
    ops = TypeOps(parse_program("type x = ()x\ntype y = ()()y\ntype z = +{a : 1}"))
    assert ops.type_equal(TypeName("x"), Next(1, TypeName("x")))
    assert ops.type_equal(TypeName("x"), TypeName("y"))
    assert not ops.type_equal(TypeName("x"), TypeName("z"))


def test_shift_left_examples(ops):
    assert ops.shift_left(Next(1, TypeName("bits"))) == TypeName("bits")
    boxed = ops.unfold(TypeName("ctr"))
    assert ops.shift_left(boxed) == boxed
    assert ops.shift_left(TypeName("bits")) is None  # basic head


def test_shift_right_examples(ops):
    d = Diamond(TypeName("sbits"))
    assert ops.shift_right(d) == d
    assert ops.shift_right(Box(ONE)) is None
    assert ops.shift_right_n(Next(3, ONE), 3) == ONE


def test_patience_examples(ops):
    assert ops.patient(Box(ONE), "box")
    assert ops.patient(Next(2, Diamond(TypeName("sbits"))), "diamond")
    assert not ops.patient(TypeName("bits"), "box")
    assert ops.patient(TypeName("ctr"), "box")  # unfolds to a box


def _enumerate(depth):
    """Temporal stacks over 1 up to the given depth."""
    out = [ONE]
    frontier = [ONE]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for wrap in (lambda u: next_type(1, u), lambda u: next_type(2, u),
                         Box, Diamond):
                w = wrap(t)
                if w not in out:
                    out.append(w)
                    nxt.append(w)
        frontier = nxt
    return out


def test_shift_composition_law(ops):
    # Shifting twice equals shifting by the sum, and definedness agrees.
    for t in _enumerate(3):
        for a in range(3):
            for b in range(3):
                lhs = ops.shift_left_n(t, a)
                lhs = ops.shift_left_n(lhs, b) if lhs is not None else None
                rhs = ops.shift_left_n(t, a + b)
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    assert ops.type_equal(lhs, rhs)
                lhs = ops.shift_right_n(t, a)
                lhs = ops.shift_right_n(lhs, b) if lhs is not None else None
                rhs = ops.shift_right_n(t, a + b)
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    assert ops.type_equal(lhs, rhs)


def test_shift_agreement(ops):
    # When both shifts of the same type are defined they coincide, so a
    # common shifted view pins down the original type.
    for t in _enumerate(3):
        for n in range(1, 4):
            l = ops.shift_left_n(t, n)
            r = ops.shift_right_n(t, n)
            if l is not None and r is not None:
                assert ops.type_equal(l, r)


TOWERS = BITS + """
type x = ()x
type y = ()()y
type u = ()v
type v = ()()u
type w = ()()[]1
"""


def _one_step_loop(shift, t, n):
    for _ in range(n):
        t = shift(t)
        if t is None:
            return None
    return t


def _shift_cases():
    names = [TypeName(n) for n in ("bits", "sbits", "ctr", "x", "y", "u", "w")]
    return _enumerate(3) + names + [
        Next(2, TypeName("ctr")), Next(1, TypeName("y")),
        Next(3, Box(TypeName("x"))), Diamond(TypeName("sbits")),
        Next(2, Diamond(TypeName("y"))),
        Next(1, Next(2, TypeName("x"))),  # deliberately non-normalized
        Next(2, Next(1, Box(ONE)))]


def test_n_step_shifts_equal_the_one_step_loop():
    ops = TypeOps(parse_program(TOWERS))
    for t in _shift_cases():
        for n in range(13):
            assert ops.shift_left_n(t, n) == \
                _one_step_loop(ops.shift_left, t, n), (t, n)
            assert ops.shift_right_n(t, n) == \
                _one_step_loop(ops.shift_right, t, n), (t, n)


def test_huge_shifts_return_at_once():
    # Every delay prefix here is shorter than 12 and every tower period
    # divides 12, so 10**9 steps land where 12 + 10**9 % 12 steps do.
    ops = TypeOps(parse_program(TOWERS))
    same = 12 + 10**9 % 12
    for t in _shift_cases():
        assert ops.shift_left_n(t, 10**9) == \
            _one_step_loop(ops.shift_left, t, same), t
        assert ops.shift_right_n(t, 10**9) == \
            _one_step_loop(ops.shift_right, t, same), t
    assert ops.shift_left_n(TypeName("x"), 10**9) == TypeName("x")
    # u = ()v, v = ()()u has period 3, and 10**9 + 1 = 2 (mod 3).
    assert ops.shift_left_n(TypeName("u"), 10**9 + 1) == Next(1, TypeName("u"))


def test_equality_is_an_equivalence(ops):
    universe = _enumerate(2)
    eq = {(a, b): ops.type_equal(a, b)
          for a, b in itertools.product(universe, repeat=2)}
    for a in universe:
        assert eq[(a, a)]
    for a, b in itertools.product(universe, repeat=2):
        assert eq[(a, b)] == eq[(b, a)]
    for a, b, c in itertools.product(universe, repeat=3):
        if eq[(a, b)] and eq[(b, c)]:
            assert eq[(a, c)]


def test_patient_implies_shift_defined(ops):
    for t in _enumerate(3):
        if ops.patient(t, "box"):
            assert ops.shift_left(t) is not None
        if ops.patient(t, "diamond"):
            assert ops.shift_right(t) is not None


def test_equality_budget_guard():
    sig = parse_program(
        "type a = +{ l : ()a }\n"
        "type b = +{ l : ()b }\n")
    tiny = TypeOps(sig, budget=0)
    with pytest.raises(BudgetExceededError):
        tiny.type_equal(TypeName("a"), TypeName("b"))


# ---------------------------------------------------------------------------
# Name-free types by canonical form, the rest by search

def _name_free_cases():
    """`_enumerate(3)`, branches in both orders, pairs, and raw `Next`
    chains that the search strips but the smart constructor never builds."""
    d1, b1 = next_type(1, ONE), Box(next_type(1, ONE))
    branches = [(("a", ONE), ("b", d1)), (("b", d1), ("a", ONE)),
                (("a", ONE), ("b", b1)), (("b", b1), ("a", ONE)),
                (("a", ONE),), (("a", d1), ("c", ONE))]
    choices = [cls(bs) for cls in (Plus, With) for bs in branches]
    choices += [Plus((("x", choices[0]), ("y", ONE))),
                Plus((("y", ONE), ("x", choices[1])))]
    pairs = [cls(a, b) for cls in (Tensor, Lolli)
             for a in (ONE, d1, choices[0]) for b in (Box(ONE), choices[1])]
    raw = [Next(1, Next(2, ONE)), Next(2, Next(1, ONE)), next_type(3, ONE),
           Next(1, Next(1, Box(ONE))), Next(0, ONE),
           Diamond(Next(1, Next(1, ONE)))]
    return _enumerate(3) + choices + pairs + raw


def _searched(ops, a, b):
    """The verdict of the bisimulation search alone."""
    return ops._bisimilar(ops._eq_key(a, b))


def test_canonical_form_agrees_with_the_search():
    sig = parse_program("")
    fast, search, tiny = TypeOps(sig), TypeOps(sig), TypeOps(sig, budget=0)
    cases = _name_free_cases()
    for a, b in itertools.product(cases, repeat=2):
        want = _searched(search, a, b)
        assert fast.type_equal(a, b) == want, (a, b)
        # No goal is searched, so even a budget of 0 decides the pair.
        assert tiny.type_equal(a, b) == want, (a, b)
    assert not fast._eq_true and not fast._eq_false
    assert fast.type_equal(Plus((("a", ONE), ("b", Next(1, ONE)))),
                           Plus((("b", Next(1, ONE)), ("a", ONE))))
    assert fast.canonical(Next(1, Next(2, ONE))) is Next(3, ONE)


def test_named_types_have_no_canonical_form(ops):
    for t in (TypeName("bits"), Next(1, TypeName("bits")),
              Box(Plus((("a", ONE), ("b", TypeName("ctr"))))),
              Next(IVar("n"), ONE)):
        assert ops.canonical(t) is False


def _deep(n, wrap, leaf=ONE):
    t = leaf
    for _ in range(n):
        t = wrap(t)
    return t


def test_equality_takes_no_python_frame_per_level():
    # 5,000 levels exceed Python's default recursion limit several times.
    sig = parse_program("")
    left = _deep(5000, lambda t: Plus((("a", t), ("b", Box(ONE)))))
    right = _deep(5000, lambda t: Plus((("b", Box(ONE)), ("a", t))))
    off = _deep(5000, lambda t: Plus((("b", Box(ONE)), ("a", t))),
                leaf=Box(ONE))
    ops = TypeOps(sig, budget=0)
    assert ops.type_equal(left, right)
    assert not ops.type_equal(left, off)
    assert _searched(TypeOps(sig), left, right)
    assert not _searched(TypeOps(sig), left, off)


DEEP_EQUAL = """
type t[n+1] = +{ a : t[n] }
type t[0] = 1
type u[n+1] = +{ a : u[n] }
type u[0] = 1
decl f[n] : (y : t[n]) |- (x : u[n])
proc x <- f[n] <- y = x <- y
"""


def test_equality_budget_counts_one_goal_per_level():
    g = instantiate(parse_program(DEEP_EQUAL), "f", {"n": 100})
    t, u = TypeName("t$100"), TypeName("u$100")
    with pytest.raises(BudgetExceededError):
        TypeOps(g, budget=100).type_equal(t, u)
    assert TypeOps(g, budget=101).type_equal(t, u)


def _copy_type(t, suffix, one):
    """`t` with each type name X read as X+suffix and each 1 as `one`."""
    match t:
        case Plus(bs) | With(bs):
            return type(t)(tuple((lab, _copy_type(u, suffix, one))
                                 for lab, u in bs))
        case Tensor(a, b) | Lolli(a, b):
            return type(t)(_copy_type(a, suffix, one),
                           _copy_type(b, suffix, one))
        case Next(c, u):
            return Next(c, _copy_type(u, suffix, one))
        case Box(u) | Diamond(u):
            return type(t)(_copy_type(u, suffix, one))
        case TypeName(name):
            return TypeName(name + suffix)
    return one


def _search_queries():
    """Per corpus file, its first instance's signature with two renamed
    copies of every type definition (one with each 1 delayed a unit), and
    100 seeded ordered pairs over those names, their bodies, their one-unit
    delays and the declared types, each pair with a type name on a side."""
    done = set()
    for spec in corpus.check_specs():
        if spec.file in done:
            continue
        done.add(spec.file)
        sig = corpus.load(spec.file, spec.root, spec.bind, spec.cost).elab
        typedefs = dict(sig.typedefs)
        for suffix, one in (("'", ONE), ("''", Next(1, ONE))):
            for n in sig.typedefs:
                body = _copy_type(sig.type_body(n), suffix, one)
                typedefs[n + suffix] = TypeDef(n + suffix,
                                               [TypeClause((), body)])
        sig = Signature(typedefs, sig.procdecls, sig.procdefs)
        pool = []
        for n in sorted(typedefs):
            pool += [TypeName(n), sig.type_body(n), Next(1, TypeName(n))]
        for n in sorted(sig.procdecls):
            decl = sig.decl(n)
            pool += [t for _, t in decl.ctx] + [decl.offer_type]
        pool = list(dict.fromkeys(pool))
        named = [any(isinstance(r, TypeName) for r in type_refs(t))
                 for t in pool]
        pairs = [(a, b) for (a, na), (b, nb)
                 in itertools.product(zip(pool, named), repeat=2) if na or nb]
        yield sig, random.Random(spec.file).sample(pairs, min(100, len(pairs)))


def _verdict(ops, a, b):
    try:
        return ops.type_equal(a, b)
    except BudgetExceededError:
        return "budget"


def test_search_visits_the_goals_of_the_recursive_search():
    # Digest of the verdicts and of both memos after 1,405 queries at each
    # of four budgets, as the recursive search gave them.  The small
    # budgets pin how many goals each query searches.
    digest = hashlib.sha256()
    count = 0
    for sig, queries in _search_queries():
        for budget in (10_000, 2, 3, 5):
            ops = TypeOps(sig, budget=budget)
            verdicts = [_verdict(ops, a, b) for a, b in queries]
            count += len(verdicts)
            for part in (verdicts, sorted(map(repr, ops._eq_true)),
                         sorted(map(repr, ops._eq_false))):
                digest.update(repr(part).encode())
    assert count == 4 * 1405
    assert digest.hexdigest() == (
        "be9a4e6218c99b9c7f1cb3d1445310261058a6d31eb9801b58821841c35fc10c")
