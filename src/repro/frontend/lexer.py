"""Lexer for MiniC: one master regular expression.

Produces a flat list of :class:`Token`.  Keywords include the paper's
annotations (``dynamicRegion``, ``unrolled``, ``dynamic``, ``key``) as
first-class tokens.  docs/LANGUAGE.md ("Lexical structure") gives the
rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = frozenset(
    [
        "int", "uint", "float", "void", "struct",
        "if", "else", "while", "do", "for", "switch", "case", "default",
        "break", "continue", "return", "goto", "sizeof",
        "dynamicRegion", "unrolled", "dynamic", "key", "pure",
    ]
)

#: Blanks before a token, then one alternative per token class, tried
#: in this order.  A token's start is therefore its end minus its
#: length, and line breaks only ever fall in ``space``, ``comment``,
#: ``block`` and ``string`` matches.  An unterminated ``/*`` or string
#: matches only its opener, and ``bad`` takes any other character, so
#: the matches tile the source.  ``\d`` is a Unicode decimal digit,
#: which is what ``int`` and ``float`` accept; ``\w`` is
#: ``str.isalnum()`` or ``_``.  The identifier class also admits numeric
#: characters such as ``²`` and ``½`` as a first character, which
#: :func:`tokenize` then rejects.  Operators are listed longest first,
#: so maximal munch holds.
_TOKEN = re.compile(r"""
    [ \t]*
  (?:
    (?P<space>[ \t\r\n]+)
  | (?P<ident>[^\W\d]\w*)
  | (?P<hex>0[xX][\da-fA-F]*)
  | (?P<float>(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<comment>//[^\n]*)
  | (?P<block>/\*(?:[\s\S]*?\*/)?)
  | (?P<string>"(?:[^"\\]*(?:\\[\s\S][^"\\]*)*")?)
  | (?P<op><<=|>>=|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^]=
         |[-+*/%<>=!&|^~?:;,.(){}\[\]])
  | (?P<bad>[\s\S])
  )""", re.VERBOSE)

_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}

_CONVERT = {"int": int, "float": float, "hex": lambda text: int(text, 16)}


@dataclass
class Token:
    kind: str  # "int", "float", "ident", "kw", "op", "string", "eof"
    text: str
    line: int
    col: int
    value: object = None

    def __repr__(self) -> str:
        return "Token(%s, %r)" % (self.kind, self.text)


def _stray_digit(source: str, end: int, exponent: bool) -> str:
    """The digit that is not a decimal digit (``²``) which a number
    ending at ``end`` runs into, directly or, when it may still take an
    exponent, as that exponent (``1e²``); ``""`` if there is none."""
    tail = source[end:end + 3]
    if tail[:1].isdigit():
        return tail[0]
    if exponent and tail[:1] in ("e", "E"):
        digit = tail[2:3] if tail[1:2] in ("+", "-") else tail[1:2]
        if digit.isdigit():
            return digit
    return ""


def tokenize(source: str) -> List[Token]:
    """Split MiniC source into tokens; raises LexError on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the current line's first character
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m.group(kind)
        end = m.end()
        col = end - len(text) - line_start + 1
        if kind == "op":
            if text == "." and source[end:end + 1].isdigit():
                raise LexError("invalid digit %r in number" % source[end],
                               line, col)
            append(Token("op", text, line, col, text))
            continue
        if kind == "ident":
            first = text[0]
            if first != "_" and not first.isalpha():
                if first.isdigit():
                    raise LexError("invalid digit %r in number" % first,
                                   line, col)
                raise LexError("unexpected character %r" % first, line, col)
            append(Token("kw" if text in KEYWORDS else "ident", text, line,
                         col, text))
            continue
        if kind == "int" or kind == "float" or kind == "hex":
            stray = _stray_digit(source, end,
                                 kind != "hex" and "e" not in text
                                 and "E" not in text)
            if stray:
                raise LexError("invalid digit %r in number" % stray, line, col)
            try:
                value = _CONVERT[kind](text)
            except ValueError:
                raise LexError("malformed number %r" % text, line,
                               col) from None
            append(Token("float" if kind == "float" else "int", text, line,
                         col, value))
            continue
        if kind == "string":
            if len(text) == 1:
                raise LexError("unterminated string", line, col)
            append(Token("string", text, line, col, _ESCAPE.sub(
                lambda esc: _ESCAPES.get(esc.group(1), esc.group(1)),
                text[1:-1])))
        elif kind == "block" and len(text) == 2:
            raise LexError("unterminated comment", line, col)
        elif kind == "bad":
            raise LexError("unexpected character %r" % text, line, col)
        # space, comments and strings: count the line breaks they hold
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = source.rindex("\n", 0, end) + 1
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
