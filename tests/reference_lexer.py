"""The MiniC tokenizer as it was before the master-regex rewrite.

A test-only reference: the differential tests in ``test_lexer.py`` check
that :func:`repro.frontend.lexer.tokenize` returns the same tokens as
this character-at-a-time scanner, or raises ``LexError`` at the same
place.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List

from repro.frontend.errors import LexError
from repro.frontend.lexer import KEYWORDS, Token

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

_SINGLE_OPS = set("+-*/%<>=!&|^~?:;,.(){}[]")


def tokenize(source: str) -> List[Token]:
    """Split MiniC source into tokens; raises LexError on bad input."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated comment", start_line, start_col)
            advance(2)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start_line, start_col = line, col
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
                    j += 1
                text = source[i:j]
                value: object = int(text, 16)
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == "." and not source.startswith("..", j):
                    is_float = True
                    j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                if j < n and source[j] in "eE":
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and source[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and source[j].isdigit():
                            j += 1
                text = source[i:j]
                value = float(text) if is_float else int(text)
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, text, start_line, start_col, value))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col, text))
            advance(j - i)
            continue
        if ch == '"':
            start_line, start_col = line, col
            j = i + 1
            chars: List[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    chars.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(esc, esc))
                    j += 2
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string", start_line, start_col)
            tokens.append(Token("string", source[i:j + 1], start_line, start_col,
                                "".join(chars)))
            advance(j + 1 - i)
            continue
        matched = None
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None and ch in _SINGLE_OPS:
            matched = ch
        if matched is None:
            raise LexError("unexpected character %r" % ch, line, col)
        tokens.append(Token("op", matched, line, col, matched))
        advance(len(matched))

    tokens.append(Token("eof", "", line, col))
    return tokens
