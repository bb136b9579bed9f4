"""Recursive-descent parser for the supported Java subset.

Covers Java 8 declarations, statements, and expressions with name-based
resolution in mind: no type inference, no classpath. Lambdas are opaque
(their bodies produce no events), annotation arguments are skipped, and
generic type arguments are parsed only to recover referenced type names.

Expression structure is not retained; parsing emits flat events:
  - call expressions (receiver text, simple name, argument count)
  - decision points (if, for, while, do, case, catch, ?:, &&, ||)
  - simple-name variable uses (bare identifiers and ``this.x``)
  - referenced type names from declared contexts (locals, news, casts)

Nested, local and anonymous classes and enum constant bodies are folded
while they are parsed: their members, calls and type references go
straight into the top-level ``TypeDecl``. Each event goes only where it is
read: a call to the type and to the method whose body holds it, a type
reference to the type, and a decision or variable use to the method alone
(outside a method body it is dropped).

The parser reads the lexer's token columns by index: it tests a token by
its text, and by its kind only where a text could be an identifier or a
literal. A line and column are computed from a token's start offset only
for a type declaration's line span and for a ParseError.
"""

from __future__ import annotations

from contextlib import contextmanager

from .lexer import (
    MODIFIER_KEYWORDS,
    PRIMITIVE_TYPES,
    LexResult,
    ParseError,
    position,
    tokenize,
)
from .tree import CallEvent, EventSink, FieldDecl, MethodDecl, SyntaxTree, TypeDecl


class _Backtrack(Exception):
    """Internal: speculative parse failed; caller restores the position."""


_LITERAL_KEYWORDS = frozenset({"true", "false", "null"})
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<="}
_PREFIX_OPS = {"+", "-", "!", "~", "++", "--"}
_LOGICAL_OPS = {"&&": "and", "||": "or"}  # operator -> decision kind
_BINARY_OPS = {
    "+", "-", "*", "/", "%", "<", "<=", ">=", "==", "!=", "&", "|", "^", "<<",
}


def parse_source(text: str, path: str = "<string>") -> SyntaxTree:
    """Parse one source file; raises ParseError with file/line/column."""
    lex = tokenize(text, path)
    return _Parser(lex, path).compilation_unit()


class _Parser:
    def __init__(self, lex: LexResult, path: str):
        self.lex = lex
        self.kinds, self.texts, self.starts = lex.kinds, lex.texts, lex.starts
        self.pos = 0
        self.path = path
        self.package = ""
        self.decl: TypeDecl | None = None  # the top-level type being parsed
        self.method_events: EventSink | None = None  # the events of the method being parsed
        self.suppress = 0

    # ---- token plumbing -------------------------------------------------
    # Token k is (kinds[k], texts[k], starts[k]). Only the eof token ends
    # the file, so the token after any other one is kinds[pos + 1].

    def at(self, text: str) -> bool:
        # exact without the kind: every text the parser asks for is an
        # operator or a keyword, which no other kind of token can spell
        return self.texts[self.pos] == text

    def at_ident(self) -> bool:
        return self.kinds[self.pos] == "ident"

    def at_name(self, name: str) -> bool:
        return self.kinds[self.pos] == "ident" and self.texts[self.pos] == name

    def at_keyword_in(self, keywords: frozenset[str]) -> bool:
        return self.kinds[self.pos] == "keyword" and self.texts[self.pos] in keywords

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        """Consume ``text``; returns its token index."""
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.texts[self.pos]!r}")
        self.pos += 1
        return self.pos - 1

    def expect_ident(self) -> str:
        if not self.at_ident():
            self.fail(f"expected identifier, found {self.texts[self.pos]!r}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def line(self, k: int) -> int:
        return position(self.lex.newlines, self.starts[k])[0]

    def fail(self, message: str):
        raise ParseError(self.path, *position(self.lex.newlines, self.starts[self.pos]),
                         message)

    # ---- events ---------------------------------------------------------

    @contextmanager
    def method_body(self, events: EventSink | None):
        """While ``events`` (a method's own) is given, calls, decisions and
        variable uses go to it."""
        outer, self.method_events = self.method_events, events
        try:
            yield
        finally:
            self.method_events = outer

    @contextmanager
    def _suppressed(self):
        self.suppress += 1
        try:
            yield
        finally:
            self.suppress -= 1

    def emit_call(self, receiver: str | None, name: str, argc: int) -> None:
        if not self.suppress:
            call = CallEvent(receiver, name, argc)  # one object in both lists
            self.decl.calls.append(call)
            if self.method_events is not None:
                self.method_events.calls.append(call)

    def emit_decision(self, kind: str) -> None:
        if not self.suppress and self.method_events is not None:
            self.method_events.decisions.append(kind)

    def emit_var_use(self, name: str) -> None:
        if not self.suppress and self.method_events is not None:
            self.method_events.var_uses.append(name)

    def emit_type_refs(self, names) -> None:
        if not self.suppress:
            self.decl.type_refs.extend(names)

    def declare_type_refs(self, names) -> None:
        """A declared field, parameter or return type counts even inside a lambda."""
        self.decl.type_refs.extend(names)

    # ---- compilation unit -------------------------------------------------

    def compilation_unit(self) -> SyntaxTree:
        while self.at("@") and self.kinds[self.pos + 1] == "ident" and self._package_ahead():
            self.annotation()  # package annotations
        if self.accept("package"):
            self.package = self.qualified_name_text()
            self.expect(";")
        while self.accept("import"):
            self.accept("static")
            self.qualified_name_text()
            if self.accept("."):
                self.expect("*")
            self.expect(";")
        types: list[TypeDecl] = []
        while self.kinds[self.pos] != "eof":
            if self.accept(";"):
                continue
            types.append(self.type_declaration())
        return SyntaxTree(self.path, types, self.lex.comments, self.lex.code_lines)

    def _package_ahead(self) -> bool:
        k = self.pos
        depth = 0
        while k < len(self.texts):
            text = self.texts[k]
            if depth == 0 and text == "package":
                return True
            if depth == 0 and text in ("class", "interface", "enum", "import"):
                return False
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
            k += 1
        return False

    def qualified_name_text(self) -> str:
        parts = [self.expect_ident()]
        while self.at(".") and self.kinds[self.pos + 1] == "ident":
            self.pos += 1
            parts.append(self.expect_ident())
        return ".".join(parts)

    def annotation(self) -> str:
        """Parse '@Name' or '@Name(...)' at cur; returns the dotted name."""
        self.pos += 1
        name = self.qualified_name_text()
        if self.at("("):
            self.skip_balanced("(", ")")
        return name

    # ---- declarations -------------------------------------------------------

    def modifiers_and_annotations(self) -> tuple[set[str], list[str]]:
        """Returns (modifiers, annotation simple names)."""
        mods: set[str] = set()
        annos: list[str] = []
        while True:
            if self.at("@") and self.kinds[self.pos + 1] == "ident":
                annos.append(self.annotation().rsplit(".", 1)[-1])
                continue
            if self.at_keyword_in(MODIFIER_KEYWORDS):
                mods.add(self.texts[self.pos])
                self.pos += 1
                continue
            return mods, annos

    def _past_balanced(self, open_text: str, close_text: str) -> int | None:
        """Token index just past the close_text matching the open_text at
        cur, or None when the file ends first."""
        depth = 0
        for k in range(self.pos, len(self.texts) - 1):  # the last token is eof
            text = self.texts[k]
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
                if depth == 0:
                    return k + 1
        return None

    def skip_balanced(self, open_text: str, close_text: str) -> None:
        """Skip from the open_text at cur past its matching close_text."""
        end = self._past_balanced(open_text, close_text)
        if end is None:
            self.pos = len(self.texts) - 1  # the error points at the end of the file
            self.fail(f"unbalanced {open_text!r}")
        self.pos = end

    def skip_type_params(self) -> None:
        """Skip a <...> section by angle depth ('>' is always a single token)."""
        self.expect("<")
        depth = 1
        while depth:
            if self.kinds[self.pos] == "eof" or self.at(";") or self.at("{"):
                self.fail("unbalanced type parameter list")
            if self.at("<"):
                depth += 1
            elif self.at(">"):
                depth -= 1
            self.pos += 1

    def type_declaration(self) -> TypeDecl | None:
        start = self.pos
        self.modifiers_and_annotations()
        return self._type_declaration_rest(start)

    def _type_declaration_rest(self, start: int) -> TypeDecl | None:
        """The type declaration whose modifiers begin at token ``start``. A
        top-level one is returned; a nested or local one folds into the
        top-level type being parsed, and None is returned."""
        if self.at("@") and self.texts[self.pos + 1] == "interface":
            self.pos += 2
            kind = "annotation"
        elif self.at("class") or self.at("interface") or self.at("enum"):
            kind = self.texts[self.pos]
            self.pos += 1
        else:
            self.fail(f"expected type declaration, found {self.texts[self.pos]!r}")
        name = self.expect_ident()
        top = self.decl is None
        if top:
            self.decl = TypeDecl(name=name, package=self.package)
        self.decl.own_names.add(name)
        if kind != "enum":
            if self.at("<"):
                self.skip_type_params()
            if self.accept("extends"):
                if kind == "class":
                    superclass = self.type_base_name()
                    if top:
                        self.decl.superclass = superclass
                else:
                    self.type_name_list()
        if self.accept("implements"):
            self.type_name_list()
        end = self.class_body(name, kind, nested=not top)
        if not top:
            return None
        decl, self.decl = self.decl, None
        decl.line_span = (self.line(start), end)
        return decl

    def type_base_name(self) -> str:
        """Dotted name of a supertype, generics stripped."""
        name = self.qualified_name_text()
        if self.at("<"):
            self.skip_type_params()
        return name

    def type_name_list(self) -> list[str]:
        """Comma-separated supertype or exception names."""
        names = [self.type_base_name()]
        while self.accept(","):
            names.append(self.type_base_name())
        return names

    def class_body(self, name: str, kind: str, nested: bool) -> int:
        """The body at cur of the type ``name`` (an anonymous class or enum
        constant body is parsed as a class named by its supertype);
        returns the line of its closing brace."""
        self.expect("{")
        with self.method_body(None):  # a class inside a method is not the method's body
            if kind == "enum":
                self.enum_constants(name)
                if not self.accept(";"):
                    return self.line(self.expect("}"))
            return self.class_members(name, kind, nested)

    def enum_constants(self, name: str) -> None:
        while self.at("@") or self.at_ident():
            while self.at("@"):
                self.annotation()
            self.expect_ident()
            if self.at("("):
                self.call_arguments()
            if self.at("{"):
                self.class_body(name, "class", nested=True)
            if not self.accept(","):
                return

    def class_members(self, name: str, kind: str, nested: bool) -> int:
        """Parse members until the closing brace; returns its line."""
        implicit = kind in ("interface", "annotation")  # members public, fields static
        while True:
            if self.at("}"):
                return self.line(self.expect("}"))
            if self.kinds[self.pos] == "eof":
                self.fail("unterminated class body")
            if self.accept(";"):
                continue
            start = self.pos
            mods, annos = self.modifiers_and_annotations()
            if implicit:
                mods.add("public")
            if self.at("{"):
                self.block()  # initializer
                continue
            if self.at("class") or self.at("interface") or self.at("enum") or (
                self.at("@") and self.texts[self.pos + 1] == "interface"
            ):
                self._type_declaration_rest(start)
                continue
            if self.at("<"):
                self.skip_type_params()
            if self.at_name(name) and self.texts[self.pos + 1] == "(":
                self.pos += 1
                self.method_rest(name, mods, annos, True, nested)
                continue
            try:
                _text, type_names = self.parse_type()
            except _Backtrack:
                self.fail(f"expected member declaration, found {self.texts[self.pos]!r}")
            member = self.expect_ident()
            self.declare_type_refs(type_names)
            if self.at("("):
                self.method_rest(member, mods, annos, False, nested)
            else:
                if implicit:
                    mods.add("static")
                self.field_rest(type_names, member, mods)

    def method_rest(self, name: str, mods: set[str], annos: list[str],
                    is_constructor: bool, nested: bool) -> None:
        param_types = self.parameter_list()
        self.declarator_dims()  # archaic `int m()[]`
        if self.accept("throws"):
            self.type_name_list()
        method = MethodDecl(
            name=name,
            modifiers=frozenset(mods),
            annotations=tuple(annos),
            param_types=tuple(param_types),
            is_constructor=is_constructor,
            nested=nested,
        )
        self.decl.methods.append(method)
        if self.accept("default"):  # annotation member default value
            with self._suppressed():
                self.variable_initializer()
        if self.at("{"):
            with self.method_body(method.events):
                self.block()
        else:
            self.expect(";")

    def parameter_list(self) -> list[str]:
        self.expect("(")
        types: list[str] = []
        if not self.at(")"):
            while True:
                self.modifiers_and_annotations()  # final / annotations
                try:
                    type_text, type_names = self.parse_type()
                except _Backtrack:
                    self.fail(f"expected parameter type, found {self.texts[self.pos]!r}")
                if self.accept("..."):
                    type_text += "[]"
                self.expect_ident()
                types.append(type_text + self.declarator_dims())
                self.declare_type_refs(type_names)
                if not self.accept(","):
                    break
        self.expect(")")
        return types

    def field_rest(self, type_names: tuple[str, ...], name: str, mods: set[str]) -> None:
        modifiers = frozenset(mods)
        while True:
            self.declarator_dims()
            self.decl.fields.append(FieldDecl(name=name, modifiers=modifiers))
            if self.accept("="):
                self.variable_initializer()
            if not self.accept(","):
                self.expect(";")
                return
            name = self.expect_ident()
            self.declare_type_refs(type_names)

    def declarator_dims(self) -> str:
        """'[]' pairs after a declared name, as in `int a[][]`."""
        dims = ""
        while self.at("["):
            self.pos += 1
            self.expect("]")
            dims += "[]"
        return dims

    def variable_initializer(self) -> None:
        if self.at("{"):
            self.array_initializer()
        else:
            self.expression()

    def array_initializer(self) -> None:
        self.expect("{")
        while not self.at("}"):
            self.variable_initializer()
            if not self.accept(","):
                break
        self.expect("}")

    # ---- types --------------------------------------------------------------

    def parse_type(self) -> tuple[str, tuple[str, ...]]:
        """Parse a type; returns (normalized text, referenced simple names).

        Raises _Backtrack (position NOT restored; callers save/restore)
        when the tokens cannot form a type.
        """
        if self.at("void"):
            self.pos += 1
            return "void", ()
        if self.at_keyword_in(PRIMITIVE_TYPES):
            self.pos += 1
            return self.texts[self.pos - 1] + self._array_dims(), ()
        if not self.at_ident():
            raise _Backtrack()
        name = self.qualified_name_text()
        names = [name.rsplit(".", 1)[-1]]
        args_text = ""
        if self.at("<"):
            args_text, arg_names = self._type_arguments()
            names.extend(arg_names)
        return name + args_text + self._array_dims(), tuple(names)

    def _array_dims(self) -> str:
        dims = ""
        while self.at("[") and self.texts[self.pos + 1] == "]":
            self.pos += 2
            dims += "[]"
        return dims

    def _type_arguments(self) -> tuple[str, list[str]]:
        self.expect("<")
        if self.accept(">"):  # diamond
            return "<>", []
        texts: list[str] = []
        names: list[str] = []
        while True:
            if self.at("?"):
                self.pos += 1
                wtext = "?"
                if self.at("extends") or self.at("super"):
                    kw = self.texts[self.pos]
                    self.pos += 1
                    t, n = self.parse_type()
                    wtext = f"? {kw} {t}"
                    names.extend(n)
                texts.append(wtext)
            else:
                t, n = self.parse_type()
                texts.append(t)
                names.extend(n)
            if self.accept(","):
                continue
            if not self.at(">"):
                raise _Backtrack()
            self.pos += 1
            return "<" + ",".join(texts) + ">", names

    # ---- statements -----------------------------------------------------------

    def block(self) -> None:
        self.expect("{")
        while not self.at("}"):
            if self.kinds[self.pos] == "eof":
                self.fail("unterminated block")
            self.statement()
        self.pos += 1

    def statement(self) -> None:
        if self.at("{"):
            self.block()
            return
        if self.accept(";"):
            return
        if self.accept("if"):
            # an `else if` chain is walked in this loop, not one recursion per branch
            while True:
                self.emit_decision("if")
                self.paren_expression()
                self.statement()
                if not self.accept("else"):
                    return
                if not self.accept("if"):
                    self.statement()
                    return
        if self.accept("while"):
            self.emit_decision("while")
            self.paren_expression()
            self.statement()
            return
        if self.accept("do"):
            self.emit_decision("do")
            self.statement()
            self.expect("while")
            self.paren_expression()
            self.expect(";")
            return
        if self.accept("for"):
            self.emit_decision("for")
            self.for_rest()
            return
        if self.accept("switch"):
            self.paren_expression()
            self.expect("{")
            while not self.at("}"):
                if self.accept("case"):
                    self.emit_decision("case")
                    self.expression(colon_ends=True)
                    self.expect(":")
                elif self.accept("default"):
                    self.expect(":")
                else:
                    self.statement()
            self.expect("}")
            return
        if self.accept("try"):
            if self.at("("):
                self.resource_spec()
            self.block()
            while self.accept("catch"):
                self.emit_decision("catch")
                self.expect("(")
                self.modifiers_and_annotations()
                self.type_base_name()
                while self.accept("|"):
                    self.type_base_name()
                self.expect_ident()
                self.expect(")")
                self.block()
            if self.accept("finally"):
                self.block()
            return
        if self.accept("return"):
            if not self.at(";"):
                self.expression()
            self.expect(";")
            return
        if self.accept("throw"):
            self.expression()
            self.expect(";")
            return
        if self.accept("break") or self.accept("continue"):
            if self.at_ident():
                self.pos += 1
            self.expect(";")
            return
        if self.accept("synchronized"):
            self.paren_expression()
            self.block()
            return
        if self.accept("assert"):
            self.expression(colon_ends=True)
            if self.accept(":"):
                self.expression()
            self.expect(";")
            return
        if self.at("class") or (
            (self.at("final") or self.at("abstract")) and self.texts[self.pos + 1] == "class"
        ):
            self.type_declaration()  # local class
            return
        if self.at_ident() and self.texts[self.pos + 1] == ":":
            self.pos += 2  # label
            self.statement()
            return
        if self.local_var_decl():
            return
        self.expression()
        self.expect(";")

    def paren_expression(self) -> None:
        self.expect("(")
        self.expression()
        self.expect(")")

    def resource_spec(self) -> None:
        self.expect("(")
        while True:
            self.modifiers_and_annotations()
            try:
                _text, type_names = self.parse_type()
            except _Backtrack:
                self.fail("expected resource type")
            self.emit_type_refs(type_names)
            self.expect_ident()
            self.expect("=")
            self.expression()
            if self.accept(";") and not self.at(")"):
                continue
            break
        self.expect(")")

    def _declarator_head(self, follows: tuple[str, ...]) -> bool:
        """Speculatively parse `[mods] type ident` followed by one of
        ``follows``; on success stop at the follower, else restore the
        position and return False.

        Speculation is safe because type parsing emits no events; the
        declaration's type reference is emitted only after confirmation.
        """
        save = self.pos
        try:
            self.modifiers_and_annotations()
            _text, type_names = self.parse_type()
            if not self.at_ident():
                raise _Backtrack()
            self.pos += 1
            if self.texts[self.pos] not in follows:
                raise _Backtrack()
        except _Backtrack:
            self.pos = save
            return False
        self.emit_type_refs(type_names)
        return True

    def local_var_decl(self) -> bool:
        """Parse a local declaration if one is at cur; False means not one."""
        if not self._declarator_head(("=", ";", ",", "[")):
            return False
        while True:
            self.declarator_dims()
            if self.accept("="):
                self.variable_initializer()
            if self.accept(","):
                self.expect_ident()
                continue
            break
        self.expect(";")
        return True

    def for_rest(self) -> None:
        self.expect("(")
        if self._declarator_head((":",)):  # enhanced for: [mods] type ident : expr
            self.pos += 1
            self.expression()
            self.expect(")")
            self.statement()
            return
        if not self.accept(";"):
            if not self.local_var_decl():
                self.expression()
                while self.accept(","):
                    self.expression()
                self.expect(";")
        if not self.at(";"):
            self.expression()
        self.expect(";")
        if not self.at(")"):
            self.expression()
            while self.accept(","):
                self.expression()
        self.expect(")")
        self.statement()

    # ---- expressions ------------------------------------------------------

    def expression(self, colon_ends: bool = False) -> None:
        """Flat expression parse: operand (binary-op operand)*.

        Operator precedence is irrelevant here; only event extraction and
        expression boundaries matter. A ternary's ':' is consumed by its
        own '?'; any other ':' terminates the expression.
        """
        self.unary()
        while True:
            if self.at("instanceof"):
                self.pos += 1
                save = self.pos
                try:
                    self.parse_type()
                except _Backtrack:
                    self.pos = save
                    self.fail("expected type after instanceof")
                continue
            if self.kinds[self.pos] != "op":
                return
            text = self.texts[self.pos]
            if text == "?":
                self.pos += 1
                self.emit_decision("ternary")
                self.expression()
                self.expect(":")
                self.unary()
                continue
            if text in _LOGICAL_OPS:
                self.pos += 1
                self.emit_decision(_LOGICAL_OPS[text])
                self.unary()
                continue
            if text == ">":
                # merge adjacent '>'/'>=' into shift or shift-assign operators
                self.pos += 1
                # a '>' or '>=' that starts where the '>' before it ends
                while self.texts[self.pos] in (">", ">=") \
                        and self.starts[self.pos - 1] + 1 == self.starts[self.pos]:
                    self.pos += 1
                    if self.texts[self.pos - 1] == ">=":
                        break
                self.unary()
                continue
            if text in _ASSIGN_OPS or text in _BINARY_OPS:
                self.pos += 1
                self.unary()
                continue
            return

    def unary(self) -> None:
        while self.texts[self.pos] in _PREFIX_OPS:
            self.pos += 1
        if self.at("("):
            after = self._past_balanced("(", ")")
            if after is None:
                self.fail("unbalanced parenthesis")
            if self.texts[after] == "->":
                self.pos = after + 1
                self._lambda_body()
                return
            if self._try_cast():
                self.unary()
                return
        self.primary_and_postfix()

    def _lambda_body(self) -> None:
        # lambdas are opaque: nothing inside contributes events
        with self._suppressed():
            if self.at("{"):
                self.skip_balanced("{", "}")
            else:
                self.expression()

    def _try_cast(self) -> bool:
        save = self.pos
        self.pos += 1  # consume '('
        try:
            type_text, type_names = self.parse_type()
            if not self.at(")"):
                raise _Backtrack()
            self.pos += 1
            is_primitive = type_text.rstrip("[]") in PRIMITIVE_TYPES
            starts_operand = (
                self.kinds[self.pos] in ("ident", "number", "string", "char")
                or self.texts[self.pos] in ("(", "!", "~", "new", "this", "super")
                or self.at_keyword_in(_LITERAL_KEYWORDS)
                or (is_primitive and self.texts[self.pos] in ("+", "-"))
            )
            if not starts_operand:
                raise _Backtrack()
        except _Backtrack:
            self.pos = save
            return False
        self.emit_type_refs(type_names)
        return True

    def primary_and_postfix(self) -> None:
        chain = self.primary()
        while True:
            if self.at("."):
                nxt = self.texts[self.pos + 1]
                if self.kinds[self.pos + 1] == "ident":
                    self.pos += 2
                    if self.at("("):
                        self.emit_call(chain, nxt, self.call_arguments())
                        chain = "<expr>"
                        continue
                    if chain == "this":
                        self.emit_var_use(nxt)
                    chain = f"{chain}.{nxt}" if chain not in (None, "<expr>", "super") \
                        else "<expr>"
                    continue
                if nxt == "<":
                    self.pos += 1  # explicit generic method call: obj.<T>name(args)
                    self.skip_type_params()
                    name = self.expect_ident()
                    if not self.at("("):
                        self.fail("expected call after explicit type arguments")
                    self.emit_call(chain, name, self.call_arguments())
                    chain = "<expr>"
                    continue
                if nxt in ("this", "class", "new", "super"):
                    self.pos += 2
                    if nxt == "new":  # qualified creation: outer.new Inner()
                        self.creator()
                    chain = "<expr>"
                    continue
                self.fail(f"unexpected token after '.': {nxt!r}")
            if self.at("["):
                self.pos += 1
                self.expression()
                self.expect("]")
                chain = "<expr>"
                continue
            if self.at("++") or self.at("--"):
                self.pos += 1
                chain = "<expr>"
                continue
            if self.at("::"):
                self.pos += 1
                if not self.accept("new"):
                    self.expect_ident()
                chain = "<expr>"
                continue
            return

    def primary(self) -> str | None:
        """Parse a primary; returns the dotted-name chain text while the
        expression is still a plain name ('this', 'super', identifier)."""
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if text == "(":  # unary has ruled out a lambda and a cast here
            self.paren_expression()
            return "<expr>"
        if kind in ("number", "string", "char"):
            self.pos += 1
            return "<expr>"
        if kind == "keyword":
            if text in _LITERAL_KEYWORDS:
                self.pos += 1
                return "<expr>"
            if text in ("this", "super"):
                self.pos += 1
                if self.at("("):  # explicit constructor invocation: not a call event
                    self.call_arguments()
                    return "<expr>"
                return text
            if text == "new":
                self.pos += 1
                self.creator()
                return "<expr>"
            if text in PRIMITIVE_TYPES or text == "void":
                self.pos += 1  # int.class, void.class
                self._array_dims()
                return "<expr>"
            self.fail(f"unexpected keyword {text!r} in expression")
        if kind == "ident":
            if self.texts[self.pos + 1] == "->":
                self.pos += 2
                self._lambda_body()
                return "<expr>"
            self.pos += 1
            if self.at("("):
                self.emit_call(None, text, self.call_arguments())
                return "<expr>"
            self.emit_var_use(text)
            return text
        self.fail(f"unexpected token {text!r} in expression")

    def call_arguments(self) -> int:
        """Parse '(args)'; returns the argument count."""
        self.expect("(")
        if self.accept(")"):
            return 0
        argc = 1
        self.expression()
        while self.accept(","):
            argc += 1
            self.expression()
        self.expect(")")
        return argc

    def creator(self) -> None:
        """new Foo(...), new int[5], new Foo[]{...}, anonymous class bodies."""
        if self.at_keyword_in(PRIMITIVE_TYPES):
            self.pos += 1
            self._creator_array_rest()
            return
        simple_name = self.qualified_name_text().rsplit(".", 1)[-1]
        names = [simple_name]
        if self.at("<"):
            save = self.pos
            try:
                _text, arg_names = self._type_arguments()
                names.extend(arg_names)
            except _Backtrack:
                self.pos = save
        self.emit_type_refs(names)
        if self.at("["):
            self._creator_array_rest()
            return
        self.call_arguments()
        if self.at("{"):  # anonymous class
            self.class_body(simple_name, "class", nested=True)

    def _creator_array_rest(self) -> None:
        while self.at("["):
            self.pos += 1
            if not self.at("]"):
                self.expression()
            self.expect("]")
        if self.at("{"):
            self.array_initializer()
