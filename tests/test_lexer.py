"""Golden token tables for the Java lexer.

Every expected value below was recorded from the character-scanner lexer
that the regex token table replaced, except the one case marked as the
documented difference (non-decimal numeric code points).

``reference_tokenize`` is the lexer that matched one token at a time
before ``tokenize`` became a single ``finditer`` pass; a differential
test holds the two to the same output. ``tokenize`` keeps each token's
start offset, and ``position`` gives the line and column compared here.
"""

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from testability.javasrc.lexer import (
    KEYWORDS,
    CommentSpan,
    ParseError,
    position,
    tokenize,
)


def token_rows(result):
    """(kind, text, line, column) of every token of a LexResult."""
    return [(kind, text, *position(result.newlines, start))
            for kind, text, start in zip(result.kinds, result.texts, result.starts)]


def lex(source):
    return token_rows(tokenize(source))


TOKENS = [
    # numbers
    ("0x1F", [("number", "0x1F", 1, 1), ("eof", "", 1, 5)]),
    ("0b101", [("number", "0b101", 1, 1), ("eof", "", 1, 6)]),
    ("1_000L", [("number", "1_000L", 1, 1), ("eof", "", 1, 7)]),
    ("1.5e-3f", [("number", "1.5e-3f", 1, 1), ("eof", "", 1, 8)]),
    ("1e+5", [("number", "1e+5", 1, 1), ("eof", "", 1, 5)]),
    (".5", [("number", ".5", 1, 1), ("eof", "", 1, 3)]),
    ("1.", [("number", "1", 1, 1), ("op", ".", 1, 2), ("eof", "", 1, 3)]),
    ("1.)", [("number", "1.", 1, 1), ("op", ")", 1, 3), ("eof", "", 1, 4)]),
    ("1..2", [("number", "1", 1, 1), ("op", ".", 1, 2), ("number", ".2", 1, 3),
              ("eof", "", 1, 5)]),
    ("1.foo", [("number", "1", 1, 1), ("op", ".", 1, 2), ("ident", "foo", 1, 3),
               ("eof", "", 1, 6)]),
    # '>' never merges, so generics close one token at a time
    ("a >>= b", [("ident", "a", 1, 1), ("op", ">", 1, 3), ("op", ">=", 1, 4),
                 ("ident", "b", 1, 7), ("eof", "", 1, 8)]),
    (">>>", [("op", ">", 1, 1), ("op", ">", 1, 2), ("op", ">", 1, 3), ("eof", "", 1, 4)]),
    ("f(a...)", [("ident", "f", 1, 1), ("op", "(", 1, 2), ("ident", "a", 1, 3),
                 ("op", "...", 1, 4), ("op", ")", 1, 7), ("eof", "", 1, 8)]),
    ("x -> y", [("ident", "x", 1, 1), ("op", "->", 1, 3), ("ident", "y", 1, 6),
                ("eof", "", 1, 7)]),
    ("A::b", [("ident", "A", 1, 1), ("op", "::", 1, 2), ("ident", "b", 1, 4),
              ("eof", "", 1, 5)]),
    ("a <<= 2", [("ident", "a", 1, 1), ("op", "<<=", 1, 3), ("number", "2", 1, 7),
                 ("eof", "", 1, 8)]),
    # string and char literals
    ('"a\\"b" "c\\\\"', [("string", '"a\\"b"', 1, 1), ("string", '"c\\\\"', 1, 8),
                         ("eof", "", 1, 13)]),
    ('"a\\\nb" x', [("string", '"a\\\nb"', 1, 1), ("ident", "x", 2, 4), ("eof", "", 2, 5)]),
    ("'\\''", [("char", "'\\''", 1, 1), ("eof", "", 1, 5)]),
    # Unicode escapes inside literals stay in the literal
    ('"\\u0061" \'\\u0062\'', [("string", '"\\u0061"', 1, 1), ("char", "'\\u0062'", 1, 10),
                              ("eof", "", 1, 18)]),
    # identifiers and keywords
    ("$x _y é", [("ident", "$x", 1, 1), ("ident", "_y", 1, 4), ("ident", "é", 1, 7),
                 ("eof", "", 1, 8)]),
    ("class Foo", [("keyword", "class", 1, 1), ("ident", "Foo", 1, 7), ("eof", "", 1, 10)]),
    # CRLF, tabs and the eof position
    ("a\r\n\tb c\r\n", [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("ident", "c", 2, 4),
                        ("eof", "", 3, 1)]),
    ("  x\n\n", [("ident", "x", 1, 3), ("eof", "", 3, 1)]),
    ("// c\nx /* a\nb */ y", [("ident", "x", 2, 1), ("ident", "y", 3, 6), ("eof", "", 3, 7)]),
    # the documented difference: a letter number lexes as an identifier, as in
    # javac; the character scanner rejected it as an unexpected character
    ("Ⅻ", [("ident", "Ⅻ", 1, 1), ("eof", "", 1, 2)]),
]


@pytest.mark.parametrize("source, expected", TOKENS, ids=[repr(s) for s, _ in TOKENS])
def test_token_table(source, expected):
    assert lex(source) == expected


ERRORS = [
    ('"abc\n"', "<string>:1:1: unterminated string literal"),
    ('x = "abc', "<string>:1:5: unterminated string literal"),
    ("'a\n'", "<string>:1:1: unterminated char literal"),
    ("c = 'a", "<string>:1:5: unterminated char literal"),
    ("x /* y\n z", "<string>:1:3: unterminated block comment"),
    ("a\n  #", "<string>:2:3: unexpected character '#'"),
    ("a\vb", "<string>:1:2: unexpected character '\\x0b'"),
    ("a\xa0b", "<string>:1:2: unexpected character '\\xa0'"),
    # a text block opener is named, at its first quote
    ('x = """\nabc""";', "<string>:1:5: text blocks are not supported"),
    ('class A {\n  String s =\t""" \t\r\n  a\n  """;\n}',
     "<string>:2:14: text blocks are not supported"),
    # three quotes with more on the line are no opener
    ('x = """ y', "<string>:1:7: unterminated string literal"),
    # a Unicode escape outside a literal is named, at its backslash
    ("class A { int \\u0061 = 1; }",
     "<string>:1:15: unicode escapes outside literals are not supported"),
]


@pytest.mark.parametrize("source, message", ERRORS, ids=[repr(s) for s, _ in ERRORS])
def test_lex_errors(source, message):
    with pytest.raises(ParseError) as info:
        tokenize(source)
    assert str(info.value) == message


def test_comment_spans_and_code_lines():
    result = tokenize("// c\nx /* a\nb */ y")
    assert result.comments == [CommentSpan(1, 1), CommentSpan(2, 3)]
    assert result.code_lines == frozenset({2, 3})


_PIECES = [
    "a", "x1", "$y", "_z", "é", "class", "0x1F", "1.5e-3f", ".5", "1.", "1_0L",
    " ", "\t", "\n", "\r\n", ">", ">=", "<<=", "...", "->", "::", ".", "(", ")",
    '"s"', '"a\\"b"', '"a\\\nb"', "'c'", "'\\''", "// c\n", "/* a\nb */", '"', "'",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_each_token_starts_at_its_line_and_column(source):
    try:
        result = tokenize(source)
    except ParseError:
        return
    line_starts = [0]
    line_starts += [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for _kind, text, line, col in token_rows(result):
        offset = line_starts[line - 1] + col - 1
        assert source[offset:offset + len(text)] == text
    _, _, line, col = token_rows(result)[-1]
    assert line_starts[line - 1] + col - 1 == len(source)


# -- the lexer before the single finditer pass, kept verbatim as the oracle ---

_REFERENCE_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n\f]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*[\s\S]*?\*/)
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<number>0[xXbB]\w*  # decimal: one '.' at most, none before a letter, '_', '$' or '.'
        | (?=\.?\d)(?:[\d_]|[eE][\d+-])*(?:\.(?=\d|[^\w$.]))?(?:[\d_]|[eE][\d+-])*[fFdDlL]?)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<char>'(?:[^'\\\n]|\\[\s\S])*')
    | (?P<unterminated>/\*|"|')
    | (?P<op><<=|\.\.\.|<<|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|::
        | [-+*/%=<>!~&|^?:;,.(){}\[\]@])
    """,
    re.VERBOSE,
)
_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "char literal"}


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # ident | keyword | number | string | char | op | eof
    text: str
    line: int
    col: int


def reference_tokenize(text: str, path: str = "<string>"):
    """(tokens, comment spans, code lines)."""
    tokens: list[ReferenceToken] = []
    comments: list[CommentSpan] = []
    code_lines: set[int] = set()
    pos = line_start = 0
    line = 1
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(path, line, col, f"unexpected character {text[pos]!r}")
        kind, word, start_line = m.lastgroup, m.group(), line
        if "\n" in word:  # whitespace, block comments and escaped newlines in literals
            line += word.count("\n")
            line_start = pos + word.rindex("\n") + 1
        if kind.endswith("comment"):
            comments.append(CommentSpan(start_line, line))
        elif kind == "unterminated":
            raise ParseError(path, line, col, f"unterminated {_UNTERMINATED[word]}")
        elif kind != "space":
            if kind == "word":
                kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(ReferenceToken(kind, word, start_line, col))
            code_lines.add(start_line)
        pos += len(word)
    tokens.append(ReferenceToken("eof", "", line, len(text) - line_start + 1))
    return tokens, comments, frozenset(code_lines)


def lex_outcome(source):
    try:
        result = tokenize(source)
    except ParseError as exc:
        return str(exc)
    return token_rows(result), result.comments, result.code_lines


def reference_outcome(source):
    try:
        tokens, comments, code_lines = reference_tokenize(source)
    except ParseError as exc:
        return str(exc)
    return [(t.kind, t.text, t.line, t.col) for t in tokens], comments, code_lines


_TEXT_BLOCK_OPENER = re.compile(r'"""[ \t\f\r]*\n')  # the ERRORS rows cover these
_DIFFERENTIAL_PIECES = _PIECES + [
    "\v", "\xa0", "#", "²", "Ⅻ", "\r", '"', "'", "/*", '""""', "0b1", "1e", "x.5",
]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(_DIFFERENTIAL_PIECES), max_size=40)
    .map("".join)
    .filter(lambda source: not _TEXT_BLOCK_OPENER.search(source))
)
def test_tokenize_matches_the_one_token_at_a_time_reference(source):
    assert lex_outcome(source) == reference_outcome(source)
