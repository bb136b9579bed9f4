"""Tokenizer for the supported Java subset.

Produces a flat token stream plus comment spans and the set of lines
holding at least one token (the substrate for LOC/LOCCOM). '>' is always
lexed as a single token so that nested generics like ``List<List<String>>``
stay parseable; the expression parser re-merges adjacent '>' tokens into
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
lexing) are errors of their own. A token's line is found by ``bisect`` in
the file's newline offsets, and its column is the distance from the
newline before it; only ``\\n`` breaks a line, so CRLF counts once.
``Token`` is a ``NamedTuple``, built in one call.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple


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


class Token(NamedTuple):
    kind: str  # ident | keyword | number | string | char | op | eof
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class CommentSpan:
    start_line: int
    end_line: int


@dataclass(frozen=True)
class LexResult:
    tokens: list[Token]
    comments: list[CommentSpan]
    code_lines: frozenset[int]
    n_lines: int


def tokenize(text: str, path: str = "<string>") -> LexResult:
    # nl[k] is the offset of the k-th newline; nl[0] = -1 stands for the
    # newline before line 1, so bisect_left(nl, start) is start's line.
    nl = [-1]
    nl += [m.start() for m in re.finditer("\n", text)]
    tokens: list[Token] = []
    comments: list[CommentSpan] = []
    new = tuple.__new__  # Token(...) minus the Python-level __new__ of a NamedTuple
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, stop = m.span(kind)
        word = text[start:stop]
        line = bisect_left(nl, start)
        if kind == "word":
            kind = "keyword" if word in KEYWORDS else "ident"
        elif kind not in _KEPT:
            if kind == "end":
                break
            if kind.endswith("comment"):
                comments.append(CommentSpan(line, line + word.count("\n")))
                continue
            raise ParseError(path, line, start - nl[line - 1], _error_message(kind, word))
        tokens.append(new(Token, (kind, word, line, start - nl[line - 1])))
    code_lines = frozenset({tok.line for tok in tokens})  # from a set: a list sizes it larger
    tokens.append(Token("eof", "", len(nl), len(text) - nl[-1]))
    return LexResult(
        tokens=tokens,
        comments=comments,
        code_lines=code_lines,
        n_lines=len(nl) - 1 + (1 if text and not text.endswith("\n") else 0),
    )
