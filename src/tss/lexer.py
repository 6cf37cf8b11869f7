"""Tokenizer for `.tss` sources.  `%` starts a line comment.

One compiled pattern scans the text.  A match is the blanks and comments
before a token, then the token itself or a newline, so comments and runs of
identifier characters are skipped and read in C.  The token's alternatives,
tried in order:

- a natural: a run of decimal digits (`str.isdecimal`, which is what `\\d`
  matches);
- `when?` and `now!`, which would otherwise read as an identifier;
- an identifier starting with an ASCII letter, `_` or `$` and continuing
  with letters and digits (`str.isalnum`, which `\\w` matches), `_`, `$` and
  `'`; the keywords among them are their own kinds;
- punctuation, the two-character symbols before the one-character ones;
- a newline;
- an identifier starting with any other character that `\\w` matches and
  `\\d` does not.  `re` has no class for `str.isalpha`, and this one also
  holds characters such as `²` that are numeric but not letters, so the
  tokenizer refuses the identifier unless its first character `isalpha()`;
- the end of the text;
- any other character, which is refused.

A column counts characters from 1.  A comment does not move it, so the
end-of-file token after a comment on the last line stands where the comment
starts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

KEYWORDS = {"type", "decl", "proc", "case", "close", "wait", "send", "recv",
            "delay", "tick"}

# Longest match first.
_PUNCT = ["|-", "-o", "<-", "<>", "=>", "=", ":", ",", ";", ".", "(", ")",
          "{", "}", "[", "]", "+", "&", "*", "|", "^"]

# The character classes of the pattern.
NAT_CHAR = r"\d"
IDENT_CHAR = r"[\w$']"
IDENT_START = r"[A-Za-z_$]"  # the ASCII identifier starts
OTHER_START = r"[^\W\d]"  # a start only where `str.isalpha` holds too

_SCAN = re.compile(r"(?:[ \t\r]+|%[^\n]*)*(?:" + "|".join([
    rf"(?P<NAT>{NAT_CHAR}+)",
    r"(?P<WHEN>when\?)",
    r"(?P<NOW>now!)",
    rf"(?P<IDENT>{IDENT_START}{IDENT_CHAR}*)",
    "(?P<PUNCT>" + "|".join(map(re.escape, _PUNCT)) + ")",
    r"(?P<NL>\n)",
    rf"(?P<OTHER>{OTHER_START}{IDENT_CHAR}*)",
    r"(?P<END>\Z)",
    r"(?P<BAD>.)"]) + ")", re.DOTALL).finditer

_KINDS = {word: word for word in KEYWORDS}


class Token(NamedTuple):
    kind: str  # IDENT, NAT, keyword, punctuation, WHEN, NOW, EOF
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    new = tuple.__new__  # a Token without the Python frame of its __new__
    kinds = _KINDS.get
    line, start = 1, 0  # `start`: where the current line starts
    for m in _SCAN(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "IDENT":
            kind = kinds(value, "IDENT")
        elif kind == "PUNCT":
            kind = value
        elif kind == "NL":
            line += 1
            start = m.end()
            continue
        elif kind == "END":
            break
        elif kind == "OTHER" and value[0].isalpha():
            kind = "IDENT"
        elif kind == "OTHER" or kind == "BAD":
            raise ParseError(f"unexpected character {value[0]!r}", line,
                             m.end() - len(value) - start + 1)
        append(new(Token, (kind, value, line,
                           m.end() - len(value) - start + 1)))
    comment = text.find("%", start)
    end = len(text) if comment < 0 else comment
    append(new(Token, ("EOF", "", line, end - start + 1)))
    return toks
