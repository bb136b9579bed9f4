"""Tokenizer for the supported Java subset.

Produces a flat token stream plus comment spans and the set of lines
holding at least one token (the substrate for LOC/LOCCOM). '>' is always
lexed as a single token so that nested generics like ``List<List<String>>``
stay parseable; the expression parser re-merges adjacent '>' tokens into
shift operators, which metrics never look at anyway.

``_TOKEN`` is the whole token table, one regex group per kind tried in
order. A numeric code point that is not a decimal digit (``²``, ``½``,
``Ⅻ``) lexes as a letter, as javac treats ``Ⅻ``.
"""

from __future__ import annotations

import re
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
class Token:
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
    tokens: list[Token] = []
    comments: list[CommentSpan] = []
    code_lines: set[int] = set()
    pos = line_start = 0
    line = 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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
            tokens.append(Token(kind, word, start_line, col))
            code_lines.add(start_line)
        pos += len(word)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return LexResult(
        tokens=tokens,
        comments=comments,
        code_lines=frozenset(code_lines),
        n_lines=text.count("\n") + (1 if text and not text.endswith("\n") else 0),
    )
