"""Lexer unit tests."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize

from reference_lexer import tokenize as reference_tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop eof


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


def test_empty_source():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == "eof"


def test_identifiers_and_keywords():
    tokens = tokenize("int foo while unrolled dynamicRegion bar_2")
    assert [(t.kind, t.text) for t in tokens[:-1]] == [
        ("kw", "int"), ("ident", "foo"), ("kw", "while"),
        ("kw", "unrolled"), ("kw", "dynamicRegion"), ("ident", "bar_2"),
    ]


def test_dynamic_and_key_are_keywords():
    assert kinds("dynamic key") == ["kw", "kw"]


def test_integer_literals():
    tokens = tokenize("0 42 123456789")
    assert [t.value for t in tokens[:-1]] == [0, 42, 123456789]
    assert all(t.kind == "int" for t in tokens[:-1])


def test_hex_literals():
    tokens = tokenize("0x10 0xff 0XABC")
    assert [t.value for t in tokens[:-1]] == [16, 255, 0xABC]


def test_float_literals():
    tokens = tokenize("1.5 0.25 3.0")
    assert [t.value for t in tokens[:-1]] == [1.5, 0.25, 3.0]
    assert all(t.kind == "float" for t in tokens[:-1])


def test_float_with_exponent():
    tokens = tokenize("1e3 2.5e-2 1E+2")
    assert [t.value for t in tokens[:-1]] == [1000.0, 0.025, 100.0]


def test_leading_dot_float():
    tokens = tokenize(".5")
    assert tokens[0].kind == "float"
    assert tokens[0].value == 0.5


def test_integer_then_member_access_not_float():
    # "a.b" must not lex the dot into a float
    assert texts("a.b") == ["a", ".", "b"]


def test_multi_char_operators():
    ops = "-> ++ -- << >> <= >= == != && || += -= *= /= %="
    assert texts(ops) == ops.split()


def test_maximal_munch():
    assert texts("a+++b") == ["a", "++", "+", "b"]
    assert texts("a<<=b") == ["a", "<<=", "b"]


def test_single_char_operators():
    assert texts("+ - * / % < > = ! & | ^ ~ ; , . ( ) { } [ ] ? :") == \
        "+ - * / % < > = ! & | ^ ~ ; , . ( ) { } [ ] ? :".split()


def test_line_comment():
    assert texts("a // comment here\n b") == ["a", "b"]


def test_block_comment():
    assert texts("a /* multi \n line */ b") == ["a", "b"]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("a /* never ends")


def test_string_literal():
    tokens = tokenize('"hello world"')
    assert tokens[0].kind == "string"
    assert tokens[0].value == "hello world"


def test_string_escapes():
    tokens = tokenize(r'"a\nb\tc\\d"')
    assert tokens[0].value == "a\nb\tc\\d"


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('"never ends')


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a $ b")


def test_line_and_column_tracking():
    tokens = tokenize("a\n  b")
    assert tokens[0].line == 1 and tokens[0].col == 1
    assert tokens[1].line == 2 and tokens[1].col == 3


def test_error_position():
    try:
        tokenize("ok\n   @")
    except LexError as exc:
        assert exc.line == 2
        assert exc.col == 4
    else:
        pytest.fail("expected LexError")


def test_keywords_not_inside_identifiers():
    tokens = tokenize("integer whiles dynamics")
    assert all(t.kind == "ident" for t in tokens[:-1])


def test_underscore_identifier():
    tokens = tokenize("_private __x")
    assert [t.text for t in tokens[:-1]] == ["_private", "__x"]


# -- malformed numbers ------------------------------------------------------


@pytest.mark.parametrize("source, message, col", [
    ("0x", "malformed number '0x'", 1),
    ("a 0X;", "malformed number '0X'", 3),
    ("0xg", "malformed number '0x'", 1),
    ("²", "invalid digit '²' in number", 1),
    ("x = 1²;", "invalid digit '²' in number", 5),
    ("1e²", "invalid digit '²' in number", 1),
    (".²", "invalid digit '²' in number", 1),
])
def test_malformed_number_is_a_lex_error(source, message, col):
    with pytest.raises(LexError) as info:
        tokenize("\n" + source)
    assert (info.value.message, info.value.line, info.value.col) \
        == (message, 2, col)


def test_half_is_an_unexpected_character():
    with pytest.raises(LexError, match="unexpected character '½'"):
        tokenize("x = ½;")


# -- against the reference tokenizer ----------------------------------------


def lex(tokenizer, source):
    """Tokens as (kind, text, value, value type, line, col), or the
    ``LexError`` as (message, line, col), or ``"ValueError"``."""
    try:
        return [(t.kind, t.text, t.value, type(t.value), t.line, t.col)
                for t in tokenizer(source)]
    except LexError as exc:
        return (exc.message, exc.line, exc.col)
    except ValueError:
        return "ValueError"


def assert_matches_reference(source):
    want = lex(reference_tokenize, source)
    got = lex(tokenize, source)
    if want == "ValueError":
        assert isinstance(got, tuple), (source, got)
    else:
        assert got == want, source


@pytest.mark.parametrize("source, expected", [
    ("1..2", [("int", "1"), ("op", "."), ("float", ".2")]),
    ("1.e5", [("float", "1.e5")]),
    ("3.", [("float", "3.")]),
    (".5", [("float", ".5")]),
    ("0x1p", [("int", "0x1"), ("ident", "p")]),
    ("1e", [("int", "1"), ("ident", "e")]),
    ("a.b", [("ident", "a"), ("op", "."), ("ident", "b")]),
    ("a+++b", [("ident", "a"), ("op", "++"), ("op", "+"), ("ident", "b")]),
])
def test_pinned_inputs(source, expected):
    assert [(t.kind, t.text) for t in tokenize(source)][:-1] == expected
    assert_matches_reference(source)


def test_line_comment_at_end_of_file():
    tokens = tokenize("a // no newline")
    assert [(t.kind, t.line, t.col) for t in tokens] == \
        [("ident", 1, 1), ("eof", 1, 16)]
    assert_matches_reference("a // no newline")


def test_unterminated_block_comment_reported_at_its_start():
    with pytest.raises(LexError) as info:
        tokenize("a\n  b /* never\n ends")
    assert (info.value.message, info.value.line, info.value.col) \
        == ("unterminated comment", 2, 5)
    assert_matches_reference("a\n  b /* never\n ends")


def test_position_after_a_string_with_escapes_and_a_newline():
    source = 'x "a\\"b\nc" y'
    tokens = tokenize(source)
    assert tokens[1].value == 'a"b\nc'
    assert (tokens[2].text, tokens[2].line, tokens[2].col) == ("y", 2, 4)
    assert_matches_reference(source)


def test_crlf_line_ends_and_tabs():
    source = "int\r\n\tx;\r\n  \t y"
    tokens = tokenize(source)
    assert [(t.text, t.line, t.col) for t in tokens] == [
        ("int", 1, 1), ("x", 2, 2), (";", 2, 3), ("y", 3, 5), ("", 3, 6)]
    assert_matches_reference(source)


#: every token class, plus the characters and pairs where the scanners
#: could part ways.
ALPHABET = [
    "a", "x", "e", "E", "t", "_", "é", "if", "dynamicRegion",
    "0", "1", "9", "0x", "0xA", "1e", "e+1", "e-", "1.", ".", "..", "+",
    "-", "*", "/", "<", ">", "=", "!", "&", "|", "^", "~", "?", ":", ";",
    ",", "(", ")", "{", "}", "[", "]", "%", " ", "\t", "\r", "\n", '"',
    '"a', "\\", "/*", "*/", "//", "²", "½", "$",
    # whole edge cases, so that short draws still reach them
    "1e+1", "2.e-3", "1..2", ".²", '"\\t"',
]


@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_tokenize_matches_the_reference(source):
    assert_matches_reference(source)
