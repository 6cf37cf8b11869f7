import pytest

from tss import corpus
from tss.ast import Next, One, Plus, Signature
from tss.errors import ParseError, ScopeError
from tss.parser import parse_program
from tss.printer import fmt_type, pretty_print


def test_bits_parses_to_three_delayed_branches():
    sig = parse_program("type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }")
    body = sig.type_body("bits")
    assert isinstance(body, Plus)
    assert [lab for lab, _ in body.branches] == ["b0", "b1", "$"]
    for _, t in body.branches:
        assert isinstance(t, Next) and t.count == 1


def test_empty_program():
    sig = parse_program("")
    assert sig == Signature()


def test_undefined_type_name_is_reported():
    with pytest.raises(ScopeError, match="x"):
        parse_program("type t = ()()x")


ONE_F = "type one = 1\ndecl f : . |- (x : one)\n"


@pytest.mark.parametrize("src, second, first, what", [
    ("type a = 1\ntype a = ()1", "2:1", "1:1", "type definition of 'a'"),
    (ONE_F + "decl f : . |- (x : ()one)", "3:1", "2:1", "declaration of 'f'"),
    (ONE_F + "proc x <- f = close x\nproc x <- f = delay{1} ; close x",
     "4:1", "3:1", "process definition of 'f'")])
def test_second_clause_of_an_index_free_name_is_rejected(src, second, first,
                                                         what):
    with pytest.raises(ScopeError) as err:
        parse_program(src)
    assert str(err.value) == f"{second}: second {what} (the first is at {first})"


def test_indexed_names_keep_one_clause_per_pattern():
    sig = parse_program("type l[0] = 1\ntype l[n+1] = ()l[n]")
    assert len(sig.typedefs["l"].clauses) == 2


@pytest.mark.parametrize("src, text", [
    ("decl f : . |- (x : Y)", "1:1: reference to undefined type 'Y'"),
    (ONE_F + "proc x <- f = y <- g ; wait y ; close x",
     "3:15: call to undeclared process 'g'"),
    ("type t[n] = 1\ntype u = t", "2:1: type 't' takes 1 index argument(s), got 0"),
    (ONE_F + "proc x <- g = close x",
     "3:1: process 'g' has a definition but no decl")])
def test_scope_errors_carry_their_position(src, text):
    with pytest.raises(ScopeError) as err:
        parse_program(src)
    assert str(err.value) == text


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("type t = +{ a : }")
    assert err.value.line == 1
    assert err.value.col > 10


def test_counter_sugar_and_unrolled_form_agree():
    a = parse_program("type t = ()^3 1")
    b = parse_program("type t = ()()()1")
    assert a.type_body("t") == b.type_body("t") == Next(3, One())


def test_next_normalization_no_nested_next():
    sig = parse_program("type t = ()^2 ()^3 ()1")
    assert sig.type_body("t") == Next(6, One())


def test_ground_name_with_dollar_relexes():
    sig = parse_program("type list$3 = +{ nil : ()1 }")
    assert "list$3" in sig.typedefs


def test_tail_call_vs_forward_resolution():
    sig = parse_program(
        "type one = 1\n"
        "decl f : . |- (x : one)\n"
        "proc x <- f = close x\n"
        "decl g : (y : one) |- (x : one)\n"
        "proc x <- g <- y = wait y ; x <- f\n"
        "decl h : (y : one) |- (x : one)\n"
        "proc x <- h <- y = x <- y\n")
    from tss.ast import Fwd, TailCall, Wait
    body_g = sig.proc_body("g").body
    assert isinstance(body_g, Wait) and isinstance(body_g.cont, TailCall)
    assert isinstance(sig.proc_body("h").body, Fwd)


def test_arity_mismatch_rejected():
    with pytest.raises(ScopeError, match="argument"):
        parse_program("type t[n] = +{ a : ()1 }\ntype u = t")


@pytest.mark.parametrize("filename",
                         [p["file"] for p in corpus.manifest()["programs"]])
def test_round_trip_over_corpus(filename):
    sig = corpus.parse(filename)
    again = parse_program(pretty_print(sig))
    assert again == sig
    # And printing is a fixed point after one round.
    assert pretty_print(again) == pretty_print(sig)


def test_branch_order_preserved_in_print():
    sig = parse_program("type t = +{ b1 : 1, b0 : 1, $ : 1 }")
    assert fmt_type(sig.type_body("t")) == "+{b1 : 1, b0 : 1, $ : 1}"


def test_duplicate_branch_label_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("type t = +{ a : 1, a : 1 }")


def test_random_types_round_trip_through_the_printer():
    import random
    from fuzzgen import gen_type
    from tss.parser import parse_type
    rng = random.Random(7)
    for _ in range(300):
        t = gen_type(rng, rng.randint(1, 4))
        assert parse_type(fmt_type(t)) is t, fmt_type(t)
