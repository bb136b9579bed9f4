"""Syntax tree nodes produced by the Java subset parser.

The tree keeps exactly what the metric definitions and the corpus index
read: declarations with names, modifiers and referenced type names,
per-body event lists (calls, decision kinds, simple-name variable uses,
referenced type names), comment spans, code lines, and each type
declaration's line span. It is not a general-purpose AST; expression
structure beyond those events, and every position but a type's span, is
discarded. A tier-1 test fails when a field here is never read.

Each ``TypeDecl`` is a top-level type, the class the dataset is keyed by.
The parser folds every nested, local and anonymous class and every enum
constant body into it: their methods and fields join its own, their
events join its ``events``, and their names join its ``own_names``.
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
    calls: list[CallEvent] = field(default_factory=list)
    decisions: list[str] = field(default_factory=list)  # kinds: if, case, catch, and, ...
    var_uses: list[str] = field(default_factory=list)
    type_refs: list[str] = field(default_factory=list)  # simple type names


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
    kind: str  # class | interface | enum | annotation
    name: str
    extends_names: tuple[str, ...] = ()  # classes: 0..1; interfaces: any
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    # every body's events; type_refs also holds each declared field, parameter
    # and return type name, even where a lambda hides the body's events
    events: EventSink = field(default_factory=EventSink)
    own_names: set[str] = field(default_factory=set)  # its name and its named nested types'
    line_span: tuple[int, int] = (0, 0)
    package: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}" if self.package else self.name


@dataclass
class SyntaxTree:
    """One parsed source file."""

    path: str
    types: list[TypeDecl]
    comments: list[CommentSpan]
    code_lines: frozenset[int]
