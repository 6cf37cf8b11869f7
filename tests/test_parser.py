import hashlib
import random

import pytest

from tss import corpus
from tss.ast import Next, One, Plus, Signature
from tss.errors import ParseError, ScopeError, TssError
from tss.lexer import tokenize
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


# ---------------------------------------------------------------------------
# The parser pinned on broken programs: a fixed sample of the corpus's
# single-token deletions, duplications and insertions, each mapped to its
# printed program or its error text.  The digest was taken before the
# parser's productions were each stated once, so any change in what it
# accepts, builds or reports, or where, shows here.

MUTANT_SEED = 23
MUTANT_SAMPLE = 1500
MUTANT_DIGEST = ("1242d01959b5e10bc755dfc257e1fd4e"
                 "a6aa5148fa372ed8c838e0461299b140")
INSERTABLE = ["type", "decl", "proc", "case", "close", "wait", "send", "recv",
              "delay", "tick", "when?", "now!", "|-", "-o", "<-", "<>", "=>",
              "=", ":", ",", ";", ".", "(", ")", "{", "}", "[", "]", "+", "&",
              "*", "|", "^", "x", "0", "1"]


def corpus_mutants(seed, sample):
    """`sample` of the mutants of the corpus files that delete, duplicate or
    insert one token (each token once each way), drawn with `seed`."""
    rng = random.Random(seed)
    sites = []
    for path in sorted(corpus.CORPUS_DIR.glob("*.tss")):
        text = path.read_text()
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        for tok in tokenize(text)[:-1]:
            a = starts[tok.line - 1] + tok.col - 1
            b = a + len(tok.value)
            sites += [(text, a, b, op) for op in ("del", "dup", "ins")]
    for text, a, b, op in rng.sample(sites, sample):
        if op == "del":
            yield text[:a] + text[b:]
        elif op == "dup":
            yield text[:b] + " " + text[a:b] + text[b:]
        else:
            yield text[:a] + rng.choice(INSERTABLE) + " " + text[a:]


def parse_outcome(text):
    try:
        return pretty_print(parse_program(text))
    except TssError as e:
        return f"{type(e).__name__}: {e}"


def test_corpus_mutants_parse_as_pinned():
    outcomes = "\n\x00".join(parse_outcome(m) for m in
                              corpus_mutants(MUTANT_SEED, MUTANT_SAMPLE))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == MUTANT_DIGEST


# Inputs the corpus mutants rarely reach, pinned the same way: every kind of
# nesting at the bound, repeated labels and clauses, arities that disagree,
# and each form of call, spawn, forward and cut body.
ONE_F_Y = "decl f : (y : 1) |- (x : 1)\ndecl g[n] : . |- (z : 1)\n"
NESTED_TYPES = ["+{ a : %s }", "&{ a : 1, b : %s }", "( %s )", "()%s", "[]%s",
                "<>%s", "1 -o %s", "%s -o 1", "1 * %s", "()^{n+1} %s"]
NESTED_BODIES = ["case y ( a => %s )", "case y ( a => close x | b => %s )",
                 "wait y ; %s", "when? y ; %s", "now! y ; %s", "send x y ; %s",
                 "delay{2} ; %s", "tick ; %s", "( %s )", "x.a ; %s",
                 "z : 1 <- (%s) ; close x", "z : 1 <- z <- g[(1)] ; %s",
                 "z <- g[1] <- ; %s", "z <- recv y ; %s"]
PROBES = [
    ONE_F_Y + "proc x <- f <- y = z : 1 <- z <- g[1] ; wait z ; close x",
    ONE_F_Y + "proc x <- f <- y = z : 1 <- z <- g[1] <- y ; close x",
    ONE_F_Y + "proc x <- f <- y = z : 1 <- w <- y ; wait z ; close x",
    ONE_F_Y + "proc x <- f <- y = z : 1 <- close z ; wait z ; close x",
    ONE_F_Y + "proc x <- f <- y = z : 1 <- recv y ; close x",
    ONE_F_Y + "proc x <- f <- y = z : 1 <- wait y ; close z ; close x",
    ONE_F_Y + "proc x <- f <- y = z <- g[1] <- ; wait z ; x <- y",
    ONE_F_Y + "proc x <- f <- y = x <- g[1]",
    ONE_F_Y + "proc x <- f <- y = x <- g[1] <- y",
    ONE_F_Y + "proc x <- f <- y = x <- g <- y",
    ONE_F_Y + "proc x <- f <- y = x <- f <- y",
    ONE_F_Y + "proc x <- f <- y = x <- f",
    ONE_F_Y + "proc x <- f <- = close x",
    ONE_F_Y + "proc x <- f <- y y = close x",
    ONE_F_Y + "proc x <- f[0] <- y = close x",
    "decl f[n] : . |- (x : 1)\ndecl f : . |- (x : 1)\n",
    "decl f : . |- (x : 1)\ndecl f[0] : . |- (x : 1)\n",
    "decl f : . |- (x : 1)\ndecl f : . |- (x : ()1)\n",
    "decl f[0] : . |- (x : 1)\ndecl f[n+1] : . |- (x : 1)\n"
    "proc x <- f[0] = close x\nproc x <- f[n+1] = close x\n",
    "decl f[0] : . |- (x : 1)\ndecl f[n+1] : (y : 1) |- (x : 1)\n",
    "decl f : (y : 1) (y : 1) |- (x : 1)\n",
    "decl f : (x : 1) |- (x : 1)\n",
    "decl f : . (y : 1) |- (x : 1)\n",
    "decl f[n] : . |- (x : 1)\nproc x <- f = close x\nproc x <- f[0] = close x",
    "decl f[n] : . |- (x : 1)\nproc x <- f[0] = close x\nproc x <- f = close x",
    "type t[n] = 1\ntype t = 1\n", "type t = 1\ntype t[0] = 1\n",
    "type t[0] = 1\ntype t[n, m] = 1\n", "type t[0] = 1\ntype t[0] = 1\n",
    "type t[n+2, 3, m] = t[n+1, 2 * 3 + n, (m)]\n", "type t[] = 1\n",
    "type t[n,] = 1\n", "type t = +{ a : 1, b : 1, a : ()1 }\n",
    "type t = &{ a : 1, a : 1, a : 1 }\n", "type t = +{ }\n",
    "type t = ()^ 1\n", "type t = ()^{} 1\n", "type t = ()^n^2 1\n",
    "type t = [] 1 * <> 1 -o ()() 1\n", "type t = 2\n",
    ONE_F_Y + "proc x <- f <- y = case y ( a => close x | a => close x )",
    ONE_F_Y + "proc x <- f <- y = case y ( a => close x | b => close x | a "
    "=> x <- y )",
    ONE_F_Y + "proc x <- f <- y = case y ( )",
    ONE_F_Y + "proc x <- f <- y = delay{} ; close x",
    ONE_F_Y + "proc x <- f <- y = tick{2} ; close x",
    ONE_F_Y + "proc x <- f <- y = send x ; close x"]


def parser_probes():
    for depth in (99, 100, 101):
        for form in NESTED_TYPES:
            t = "1"
            for _ in range(depth):
                t = form % t
            yield f"type t[n] = {t}\n"
        for form in NESTED_BODIES:
            body = "close x"
            for _ in range(depth):
                body = form % body
            yield ONE_F_Y + f"proc x <- f <- y = {body}\n"
        for op in "+*":
            e = op.join(["n"] * depth)
            yield f"type t[n] = ()^{{({e}) {op} {'(' * depth}n{')' * depth}}} 1\n"
    yield from PROBES


PROBE_DIGEST = ("0009400d8e526c448787750c5e100adf"
                "98a36f3558c64f21dddb386dd12983fa")


def test_parser_probes_parse_as_pinned():
    outcomes = "\n\x00".join(map(parse_outcome, parser_probes()))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == PROBE_DIGEST
