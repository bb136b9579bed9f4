"""Syntax tree nodes produced by the Java subset parser.

The tree keeps exactly what the metric definitions and the corpus index
read: declarations with names, modifiers and referenced type names,
per-body event lists (calls, decision kinds, simple-name variable uses,
referenced type names), comment spans, code lines, and each type
declaration's line span. It is not a general-purpose AST; expression
structure beyond those events, and every position but a type's span, is
discarded. A tier-1 test fails when a field here is never read.
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

    def extend(self, other: "EventSink") -> None:
        self.calls.extend(other.calls)
        self.decisions.extend(other.decisions)
        self.var_uses.extend(other.var_uses)
        self.type_refs.extend(other.type_refs)


@dataclass
class MethodDecl:
    name: str
    modifiers: frozenset[str]
    annotations: tuple[str, ...]
    param_types: tuple[str, ...]  # normalized source text, e.g. 'List<String>'
    param_type_names: tuple[str, ...]  # simple names referenced by the params
    return_type_names: tuple[str, ...]  # empty for constructors
    is_constructor: bool
    events: EventSink = field(default_factory=EventSink)

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def signature(self) -> tuple[str, int]:
        return (self.name, self.arity)


@dataclass
class FieldDecl:
    name: str
    type_names: tuple[str, ...]
    modifiers: frozenset[str]
    events: EventSink = field(default_factory=EventSink)  # initializer expression


@dataclass
class TypeDecl:
    kind: str  # class | interface | enum | annotation
    name: str
    extends_names: tuple[str, ...] = ()  # classes: 0..1; interfaces: any
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    inits: list[EventSink] = field(default_factory=list)  # initializer blocks
    nested: list["TypeDecl"] = field(default_factory=list)
    anonymous: list["TypeDecl"] = field(default_factory=list)
    line_span: tuple[int, int] = (0, 0)
    package: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}" if self.package else self.name

    def _flatten(self) -> list["TypeDecl"]:
        out = [self]
        for child in self.nested + self.anonymous:
            out.extend(child._flatten())
        return out

    # Nested and anonymous classes fold their contents into the top-level
    # class the dataset is keyed by.
    def all_methods(self) -> list[MethodDecl]:
        return [m for t in self._flatten() for m in t.methods]

    def all_fields(self) -> list[FieldDecl]:
        return [f for t in self._flatten() for f in t.fields]

    def all_events(self) -> EventSink:
        sink = EventSink()
        for t in self._flatten():
            for m in t.methods:
                sink.extend(m.events)
            for f in t.fields:
                sink.extend(f.events)
            for init in t.inits:
                sink.extend(init)
        return sink

    def declared_type_names(self) -> list[str]:
        """Simple type names from field/param/return declarations, flattened."""
        names: list[str] = []
        for t in self._flatten():
            for f in t.fields:
                names.extend(f.type_names)
            for m in t.methods:
                names.extend(m.param_type_names)
                names.extend(m.return_type_names)
        return names


@dataclass
class SyntaxTree:
    """One parsed source file."""

    path: str
    types: list[TypeDecl]
    comments: list[CommentSpan]
    code_lines: frozenset[int]
