"""The one-pattern tokenizer against the character loop it replaced, kept
here as the reference: equal token streams, and equal errors on every input
either refuses."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tss import corpus
from tss.errors import ParseError
from tss.lexer import (IDENT_CHAR, IDENT_START, KEYWORDS, NAT_CHAR,
                       OTHER_START, Token, tokenize)
from tss.printer import pretty_print

# --------------------------------------------------------------------------
# The reference: one character per loop turn.

_REF_PUNCT = ["|-", "-o", "<-", "<>", "=>", "=", ":", ",", ";", ".", "(",
              ")", "{", "}", "[", "]", "+", "&", "*", "|", "^"]


def _ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_$'"


def reference_tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if _ident_start(c):
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word == "when" and j < n and text[j] == "?":
                toks.append(Token("WHEN", "when?", line, col))
                j += 1
            elif word == "now" and j < n and text[j] == "!":
                toks.append(Token("NOW", "now!", line, col))
                j += 1
            elif word in KEYWORDS:
                toks.append(Token(word, word, line, col))
            else:
                toks.append(Token("IDENT", word, line, col))
            col += j - i
            i = j
            continue
        for p in _REF_PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


def _outcome(tokenizer, text: str):
    """The token stream as plain tuples, or the error's text and place."""
    try:
        return [tuple(t) for t in tokenizer(text)]
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


def assert_same(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


# --------------------------------------------------------------------------

CORPUS_FILES = sorted(p.name for p in corpus.CORPUS_DIR.glob("*.tss"))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_files_tokenize_as_the_reference(name):
    text = corpus.source(name)
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("spec", corpus.check_specs(),
                         ids=lambda s: f"{s.file}:{s.root}{s.bind}")
def test_printed_elaborations_tokenize_as_the_reference(spec):
    prog = corpus.load(spec.file, spec.root, spec.bind, spec.cost)
    text = pretty_print(prog.elab)
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "", "%", "% only a comment", "a % trailing", "a\n% last line", "a\r\n b",
    "\tx\t", "when?", "when ?", "whenx?", "when'?", "now!", "now !",
    "3when?", "$now!", "-o-", "-", "<", "|->", "<->", "<>>", "x²", "²x",
    "½", "Ⅻ", "١٢٣", "é", "λx'", "_", "$", "'", "a'b", "?", "!", "#",
    "\x00", " ", "\ud800", "x\n\n  %c\n  ²", "type decl proc tick",
    "delay{3} ;", "9" * 40])
def test_edge_cases_tokenize_as_the_reference(text):
    assert_same(text)


# The token alphabet, with the characters and fragments that sit on the
# edges between its classes.
_PIECES = ["a", "x1", "Q", "_", "$", "'", "0", "17", "when", "now", "?",
           "!", "when?", "now!", "type", "decl", "proc", "case", "tick",
           "delay", "recv", "|-", "-o", "<-", "<>", "=>", "-", "<", ">",
           "|", "=", ":", ",", ";", ".", "(", ")", "{", "}", "[", "]", "+",
           "&", "*", "^", " ", "  ", "\t", "\r", "\n", "\r\n", "%", "% c",
           "é", "λ", "ß", "Ж", "ǅ", "٣", "²", "½", "Ⅻ", "٣x", "x²", "#",
           " "]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_generated_texts_tokenize_as_the_reference(text):
    assert_same(text)


# --------------------------------------------------------------------------
# The pattern's classes against the predicates of the reference, over every
# code point.

_ALL = "".join(map(chr, range(sys.maxunicode + 1)))


def _matched(cls: str) -> set[str]:
    return set(re.findall(cls, _ALL))


def test_the_natural_class_is_isdecimal():
    assert _matched(NAT_CHAR) == {c for c in _ALL if c.isdecimal()}


def test_the_identifier_class_is_isalnum_or_underscore_dollar_prime():
    assert _matched(IDENT_CHAR) == {c for c in _ALL if _ident_char(c)}


def test_an_identifier_starts_where_the_reference_starts_one():
    # `OTHER_START` is wider than `isalpha` (it holds `²`, say); the
    # tokenizer refuses those starts.
    starts = {c for c in _ALL if _ident_start(c)}
    candidates = _matched(IDENT_START) | _matched(OTHER_START)
    assert starts <= candidates
    assert "²" in candidates - starts
    for c in candidates:
        try:
            kind = tokenize(c)[0].kind
        except ParseError:
            kind = None
        assert (kind == "IDENT") == (c in starts), c
