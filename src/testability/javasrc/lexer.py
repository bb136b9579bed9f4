"""Tokenizer for the supported Java subset.

Produces the tokens as three parallel columns (kind, text, start offset),
the file's newline offsets, comment spans and the set of lines holding at
least one token (the substrate for LOC/LOCCOM). '>' is always lexed as a
single token so that nested generics like ``List<List<String>>`` stay
parseable; the expression parser re-merges adjacent '>' tokens into
shift operators, which metrics never look at anyway.

``_TOKEN`` is the whole token table, one regex group per kind tried in
order. A numeric code point that is not a decimal digit (``²``, ``½``,
``Ⅻ``) lexes as a letter, as javac treats ``Ⅻ``.

``tokenize`` is one ``_TOKEN.finditer`` pass over the file. Each match
swallows the whitespace before its token, so whitespace is never a match
of its own. The ``end`` group takes the whitespace at the end of the file
(without it, the last newline would backtrack into ``bad``), and ``bad``
takes any character that no other group starts with. A Java 15 text
block opener (three double quotes, then a line break) and a Unicode
escape outside a literal (javac translates ``\\u0061`` to ``a`` before
lexing) are errors of their own.

A token keeps only its start offset. ``position`` turns an offset into a
line and column on demand, for errors, comment spans and declaration
spans: the line by ``bisect`` in the newline offsets, the column as the
distance from the newline before it. Only ``\\n`` breaks a line, so CRLF
counts once.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class ParseError(Exception):
    def __init__(self, path: str, line: int, col: int, message: str):
        self.path, self.line, self.col = path, line, col
        super().__init__(f"{path}:{line}:{col}: {message}")


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)

MODIFIER_KEYWORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

_TOKEN = re.compile(
    r"""[ \t\r\n\f]*(?:
      (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*[\s\S]*?\*/)
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<number>0[xXbB]\w*  # decimal: one '.' at most, none before a letter, '_', '$' or '.'
        | (?=\.?\d)(?:[\d_]|[eE][\d+-])*(?:\.(?=\d|[^\w$.]))?(?:[\d_]|[eE][\d+-])*[fFdDlL]?)
    | (?P<text_block>"{3}[ \t\f\r]*\n)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<char>'(?:[^'\\\n]|\\[\s\S])*')
    | (?P<unterminated>/\*|"|')
    | (?P<op><<=|\.\.\.|<<|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|::
        | [-+*/%=<>!~&|^?:;,.(){}\[\]@])
    | (?P<unicode_escape>\\u+[0-9a-fA-F]{4})
    | (?P<end>\Z)
    | (?P<bad>[\s\S]))
    """,
    re.VERBOSE,
)
_KEPT = frozenset({"number", "string", "char", "op"})
_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "char literal"}
_UNSUPPORTED = {"text_block": "text blocks",
                "unicode_escape": "unicode escapes outside literals"}


def _error_message(kind: str, word: str) -> str:
    if kind == "bad":
        return f"unexpected character {word!r}"
    if kind in _UNSUPPORTED:
        return f"{_UNSUPPORTED[kind]} are not supported"
    return f"unterminated {_UNTERMINATED[word]}"


@dataclass(frozen=True)
class CommentSpan:
    start_line: int
    end_line: int


@dataclass(frozen=True)
class LexResult:
    """Token k is (kinds[k], texts[k], starts[k]); the last token is eof."""

    kinds: list[str]  # ident | keyword | number | string | char | op | eof
    texts: list[str]
    starts: list[int]  # file offsets
    newlines: list[int]  # -1 for the line break before line 1, then each '\n' offset
    comments: list[CommentSpan]
    code_lines: frozenset[int]


def position(newlines: list[int], offset: int) -> tuple[int, int]:
    """The (line, column) of a file offset, both from 1; ``newlines`` is a
    LexResult's."""
    line = bisect_left(newlines, offset)
    return line, offset - newlines[line - 1]


def _code_lines(starts: list[int], newlines: list[int]) -> frozenset[int]:
    """The lines a token starts on, found one line at a time: the line of
    the next token, then the first token past that line's end."""
    lines = set()  # a frozenset made from a set is sized smaller than from a list
    k = 0
    while k < len(starts):
        line = bisect_left(newlines, starts[k])
        lines.add(line)
        if line == len(newlines):  # the last line has no newline to end it
            break
        k = bisect_right(starts, newlines[line], k)
    return frozenset(lines)


def tokenize(text: str, path: str = "<string>") -> LexResult:
    newlines = [-1]
    newlines += [m.start() for m in re.finditer("\n", text)]
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    comments: list[CommentSpan] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, stop = m.span(kind)
        word = text[start:stop]
        if kind == "word":
            kind = "keyword" if word in KEYWORDS else "ident"
        elif kind not in _KEPT:
            if kind == "end":
                break
            line, col = position(newlines, start)
            if kind.endswith("comment"):
                comments.append(CommentSpan(line, line + word.count("\n")))
                continue
            raise ParseError(path, line, col, _error_message(kind, word))
        kinds.append(kind)
        texts.append(word)
        starts.append(start)
    code_lines = _code_lines(starts, newlines)
    kinds.append("eof")
    texts.append("")
    starts.append(len(text))
    return LexResult(kinds, texts, starts, newlines, comments, code_lines)
