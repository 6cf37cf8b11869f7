import itertools

import pytest

from tss.ast import ONE, Box, Diamond, Next, Plus, TypeName, next_type
from tss.errors import ContractivenessError
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
    from tss.errors import BudgetExceededError
    sig = parse_program(
        "type a = +{ l : ()a }\n"
        "type b = +{ l : ()b }\n")
    tiny = TypeOps(sig, budget=0)
    with pytest.raises(BudgetExceededError):
        tiny.type_equal(TypeName("a"), TypeName("b"))
