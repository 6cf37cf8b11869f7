"""Tokenizer for `.tss` sources.  `%` starts a line comment."""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError

KEYWORDS = {"type", "decl", "proc", "case", "close", "wait", "send", "recv",
            "delay", "tick"}

# Longest match first.
_PUNCT = ["|-", "-o", "<-", "<>", "=>", "=", ":", ",", ";", ".", "(", ")",
          "{", "}", "[", "]", "+", "&", "*", "|", "^"]


class Token(NamedTuple):
    kind: str  # IDENT, NAT, keyword, punctuation, WHEN, NOW, EOF
    value: str
    line: int
    col: int


def _ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_$'"


def tokenize(text: str) -> list[Token]:
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
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks
