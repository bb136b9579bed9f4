"""Syntax tree nodes produced by the Java subset parser.

The tree keeps exactly what the metric definitions and the corpus index
read: declarations with names, modifiers and referenced type names, the
calls and referenced type names of each top-level type, the calls,
decision kinds and simple-name variable uses of each method body, comment
spans, code lines, and each type declaration's line span. It is not a
general-purpose AST; expression structure beyond those events, and every
position but a type's span, is discarded. A tier-1 test fails when a
field here is never read.

Each ``TypeDecl`` is a top-level type, the class the dataset is keyed by.
The parser folds every nested, local and anonymous class and every enum
constant body into it: their methods and fields join its own, their
calls and type references join its ``calls`` and ``type_refs``, and their
names join its ``own_names``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import CommentSpan


@dataclass(frozen=True)
class CallEvent:
    """One method invocation. receiver is None for a bare call, or the
    receiver's text ('this', 'super', 'obj', 'a.b', '<expr>')."""

    receiver: str | None
    name: str
    argc: int


@dataclass
class EventSink:
    """The events of one method body."""

    calls: list[CallEvent] = field(default_factory=list)
    decisions: list[str] = field(default_factory=list)  # kinds: if, case, catch, and, ...
    var_uses: list[str] = field(default_factory=list)


@dataclass
class MethodDecl:
    name: str
    modifiers: frozenset[str]  # with an interface's or annotation's implicit 'public'
    annotations: tuple[str, ...]
    param_types: tuple[str, ...]  # normalized source text, e.g. 'List<String>'
    is_constructor: bool
    nested: bool  # declared in a nested, local or anonymous class or an enum constant body
    events: EventSink = field(default_factory=EventSink)  # its own body's events

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def signature(self) -> tuple[str, int]:
        return (self.name, self.arity)


@dataclass
class FieldDecl:
    name: str
    modifiers: frozenset[str]  # with an interface's or annotation's implicit 'public static'


@dataclass
class TypeDecl:
    name: str
    superclass: str | None = None  # the extends name of a class; None for other kinds
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)  # every body's, methods' too
    # simple names from every body, and each declared field, parameter and
    # return type name, even where a lambda hides the body's events
    type_refs: list[str] = field(default_factory=list)
    own_names: set[str] = field(default_factory=set)  # its name and its named nested types'
    line_span: tuple[int, int] = (0, 0)
    package: str = ""


@dataclass
class SyntaxTree:
    """One parsed source file."""

    path: str
    types: list[TypeDecl]
    comments: list[CommentSpan]
    code_lines: frozenset[int]
