import ast
import dataclasses
import hashlib
import inspect
import json
import os

import pytest

from testability.javasrc import parser as parser_module
from testability.javasrc import (
    CorpusParseError,
    CyclicHierarchy,
    DuplicateClass,
    ParseError,
    build_corpus_index,
    parse_corpus,
    parse_source,
)
from testability.javasrc.extract import compute_code_metrics, cyclomatic_complexity
from testability.javasrc.lexer import tokenize
from testability.metrics import MetricId as M


def one_class(src, name="A"):
    tree = parse_source(src, f"{name}.java")
    return tree, tree.types[0]


def method(decl, name):
    return next(m for m in decl.methods if m.name == name)


def code_metrics(tree, decl):
    return compute_code_metrics(build_corpus_index([tree]), decl.qualified_name)


def indexed_metrics(index, qname):
    return compute_code_metrics(index, qname)


def test_empty_class_has_one_type_no_methods():
    tree, decl = one_class("class A{}")
    assert decl.name == "A"
    assert decl.methods == []


def test_single_if_is_one_decision_point():
    _, decl = one_class("class A{void m(){if(x){}}}")
    assert method(decl, "m").events.decisions == ["if"]


def test_block_comment_span_covers_three_lines():
    tree, _ = one_class("class A{\n/* one\ntwo\nthree */\n}")
    spans = [(c.start_line, c.end_line) for c in tree.comments]
    assert spans == [(2, 4)]


def test_cyclomatic_base_case_empty_body():
    _, decl = one_class("class A{void m(){}}")
    assert cyclomatic_complexity(method(decl, "m")) == 1


def test_cyclomatic_if_plus_and():
    _, decl = one_class("class A{void m(){if(a && b){}}}")
    assert cyclomatic_complexity(method(decl, "m")) == 3


def test_cyclomatic_switch_three_cases_default_adds_nothing():
    src = """class A{int m(int x){
        switch(x){ case 1: return 1; case 2: return 2; case 3: return 3;
                   default: return 0; } }}"""
    _, decl = one_class(src)
    assert cyclomatic_complexity(method(decl, "m")) == 4


def test_abstract_method_has_cc_one():
    _, decl = one_class("abstract class A{abstract void m();}")
    assert cyclomatic_complexity(method(decl, "m")) == 1


def test_loc_skips_blank_and_comment_only_lines():
    src = (
        "class A {\n"      # 1
        "    int x;\n"     # 2
        "\n"               # 3 blank
        "    // note\n"    # 4 comment-only
        "    int y;\n"     # 5
        "\n"               # 6 blank
        "    void m() {\n" # 7
        "        x = y; // trailing comment still code\n"  # 8
        "    }\n"          # 9
        "}\n"              # 10
    )
    tree, decl = one_class(src)
    size = code_metrics(tree, decl)
    assert size[M.LOC] == 7  # 10 physical, 2 blank, 1 comment-only
    assert size[M.LOCCOM] == 2  # the comment-only line and the trailing one


def test_call_receivers_distinguish_internal_external():
    src = """class A{
        void helper(){}
        void m(){ helper(); this.helper(); other.helper(); helper(1); }
    }"""
    tree, decl = one_class(src)
    size = code_metrics(tree, decl)
    assert size[M.NMC] == 4
    assert size[M.NMCI] == 2  # bare and this-qualified, arity 0
    assert size[M.NMCE] == 2  # other receiver; wrong arity


def test_lambda_bodies_are_opaque():
    src = """class A{
        void m(){
            run(() -> { helper(); if (x) { helper(); } });
            take(v -> v.compute());
        }
        void helper(){}
    }"""
    _, decl = one_class(src)
    calls = [c.name for c in method(decl, "m").events.calls]
    assert calls == ["run", "take"]
    assert method(decl, "m").events.decisions == []


def test_anonymous_class_contents_fold_into_top_level():
    src = """class A{
        void m(){
            Runnable r = new Runnable() {
                public void run(){ if (x) { helper(); } }
            };
        }
        void helper(){}
    }"""
    _, decl = one_class(src)
    assert [(m.name, m.nested) for m in decl.methods] == [
        ("m", False), ("run", True), ("helper", False)]
    all_calls = [c.name for c in decl.events.calls]
    assert all_calls == ["helper"]
    assert decl.events.decisions == ["if"]


def test_nested_class_members_fold():
    src = """class A{
        int a;
        class Inner { int b; void inner(){} }
        void outer(){}
    }"""
    _, decl = one_class(src)
    assert {f.name for f in decl.fields} == {"a", "b"}
    assert {m.name for m in decl.methods} == {"inner", "outer"}


# a method with a call, an `if` and a `new Foo()`, declared with a parameter type
BODY = "public void n(Bar b) { if (x) g(new Foo()); }"


@pytest.mark.parametrize("src, npm, wmc, nmc, ce", [
    (f"class A {{ {BODY} }}", 1, 2, 1, 2),
    (f"class A {{ static class B {{ {BODY} }} }}", 1, 2, 1, 2),
    (f"class A {{ interface I {{ {BODY.replace('public', 'default')} }} }}", 1, 2, 1, 2),
    (f"class A {{ Object o = new Object() {{ {BODY} }}; }}", 1, 2, 1, 3),
    # the lambda hides the events of the class inside it, not its declared types
    (f"class A {{ void m() {{ run(() -> new Object() {{ {BODY} }}); }} }}", 1, 2, 1, 1),
    (f"class A {{ void m() {{ class L {{ {BODY} }} }} }}", 1, 3, 1, 2),
    (f"enum A {{ K {{ {BODY} }} }}", 1, 2, 1, 2),
], ids=["class", "nested-class", "nested-interface", "anonymous-in-field", "anonymous-in-lambda",
        "local-class", "enum-constant-body"])
def test_a_method_counts_wherever_it_is_declared(src, npm, wmc, nmc, ce):
    tree, decl = one_class(src)
    metrics = code_metrics(tree, decl)
    assert [metrics[M.NPM], metrics[M.WMC], metrics[M.NMC], metrics[M.CE]] == [npm, wmc, nmc, ce]


def test_a_local_class_folds_like_an_anonymous_one():
    body = "void n() { Foo f = new Foo(); g(); }"
    local = code_metrics(*one_class(f"class A {{ void m() {{ class L {{ {body} }} }} }}"))
    anonymous = code_metrics(*one_class(f"class A {{ void m() {{ new L() {{ {body} }}; }} }}"))
    assert [local[M.WMC], local[M.NMC], local[M.CE]] == [2, 1, 1]  # L is A's own name
    assert [anonymous[M.WMC], anonymous[M.NMC], anonymous[M.CE]] == [2, 1, 2]


def test_enum_constant_arguments_keep_their_type_references():
    index = build_corpus_index([parse_source("enum E { A(new Foo()); }", "E.java"),
                                parse_source("class Foo {}", "Foo.java")])
    assert indexed_metrics(index, "E")[M.CE] == 1
    assert index["E"].references == {"Foo"}


def test_only_an_ancestors_own_methods_are_inherited():
    trees = [parse_source("class P { void own() {} class In { void inner() {} } }", "P.java"),
             parse_source("class C extends P { void m() {} }", "C.java")]
    index = build_corpus_index(trees)
    assert indexed_metrics(index, "C")[M.MFA] == 0.5  # own() of P, not inner()


def test_a_class_named_with_a_dollar_has_a_constructor():
    _, decl = one_class("class A$B { A$B() {} void m() {} }")
    assert [(m.name, m.is_constructor) for m in decl.methods] == [("A$B", True), ("m", False)]


def test_parse_error_has_location():
    with pytest.raises(ParseError) as info:
        parse_source("class A{ void m( { }", "Broken.java")
    assert "Broken.java" in str(info.value)
    assert info.value.line >= 1 and info.value.col >= 1


def test_unterminated_comment_is_parse_error():
    with pytest.raises(ParseError, match="unterminated"):
        parse_source("class A{} /* dangling", "X.java")


def test_parse_corpus_lists_every_failing_file(tmp_path):
    (tmp_path / "A.java").write_text("class A{ void m( { }", encoding="utf-8")
    (tmp_path / "B.java").write_text("class B{}", encoding="utf-8")
    (tmp_path / "C.java").write_text("class C{} /* dangling", encoding="utf-8")
    with pytest.raises(CorpusParseError) as info:
        parse_corpus([str(tmp_path)])
    failures = info.value.failures
    assert len(failures) == 2
    assert failures[0].startswith(str(tmp_path / "A.java"))
    assert failures[1].startswith(str(tmp_path / "C.java"))


def test_a_corpus_without_java_files_has_no_classes(tmp_path):
    assert parse_corpus([str(tmp_path)]).index.class_names() == []


def test_duplicate_class_rejected():
    a = parse_source("package p; class A{}", "one.java")
    b = parse_source("package p; class A{}", "two.java")
    with pytest.raises(DuplicateClass):
        build_corpus_index([a, b])


def test_cyclic_hierarchy_rejected():
    a = parse_source("class A extends B{}", "A.java")
    b = parse_source("class B extends A{}", "B.java")
    with pytest.raises(CyclicHierarchy):
        build_corpus_index([a, b])


def test_external_superclass_gives_dit_one_hop():
    a = parse_source("class A extends ArrayList{}", "A.java")
    index = build_corpus_index([a])
    metrics = indexed_metrics(index, "A")
    assert metrics[M.DIT] == 1
    assert index["A"].external_parent == "ArrayList"


def test_explicit_object_superclass_is_root():
    a = parse_source("class A extends Object{}", "A.java")
    index = build_corpus_index([a])
    assert indexed_metrics(index, "A")[M.DIT] == 0


def test_resolved_chain_dit_and_noc():
    trees = [
        parse_source("class C{}", "C.java"),
        parse_source("class B extends C{}", "B.java"),
        parse_source("class A extends B{}", "A.java"),
    ]
    index = build_corpus_index(trees)
    assert indexed_metrics(index, "A")[M.DIT] == 2
    assert indexed_metrics(index, "B")[M.NOC] == 1


def test_rfc_counts_distinct_external_name_arity_pairs():
    src = """class A{
        void m(){ x.a(); y.a(); b(1); b(2); c(); }
        void n(){ c(); }
        void c(){}
    }"""
    tree, decl = one_class(src)
    # declared: m, n, c; invoked distinct: a/0, b/1 (twice distinct? no: b/1 once as pair), c/0 declared
    assert code_metrics(tree, decl)[M.RFC] == 3 + 2


def test_generics_and_shift_operators_parse():
    src = """class A{
        java.util.Map<String, java.util.List<Integer>> table;
        void m(){
            int x = 1 << 3;
            x = x >> 1;
            x >>= 2;
            x = x >>> 1;
            boolean b = x >= 2;
        }
    }"""
    _, decl = one_class(src)
    assert decl.events.type_refs == ["Map", "String", "List", "Integer"]


def test_self_type_reference_excluded_from_ce():
    src = "class A{ A self; B other; void m(){ A local = new A(); } }"
    tree, decl = one_class(src)
    assert code_metrics(tree, decl)[M.CE] == 1  # only B


def test_a_text_block_is_a_parse_error_that_names_it():
    with pytest.raises(ParseError) as info:
        parse_source('class A {\n  String s = """\n    hi\n    """;\n}', "A.java")
    assert str(info.value) == "A.java:2:14: text blocks are not supported"


_TEXT_TESTS = ("at", "accept", "expect", "skip_balanced", "_past_balanced", "_declarator_head")
# names a text test may take in place of a literal: the plumbing's own
# parameters, and the prefix table, whose texts the test adds itself
# (``at_name`` and ``at_keyword_in`` test the token's kind as well)
_TEXT_NAMES = {"text", "open_text", "close_text", "follows", "name", "keywords",
               "_PREFIX_OPS"}


def _spelled_texts(node):
    """The texts a constant string or tuple of strings spells, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Tuple) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
        return {e.value for e in node.elts}
    return None


def _reads_token_texts(node):
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "texts")


def test_every_text_the_parser_tests_is_one_operator_or_keyword_token():
    """``at``, ``accept`` and every ``self.texts[k]`` comparison test token
    text only; ``unary`` looks its prefix operators up by text, and
    ``_declarator_head`` its followers. That is exact while every such text
    lexes as one operator or keyword, which no ident, literal or eof can
    spell. The logical-operator table is held to the same rule."""
    texts = set(parser_module._PREFIX_OPS) | set(parser_module._LOGICAL_OPS)
    for node in ast.walk(ast.parse(inspect.getsource(parser_module))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TEXT_TESTS):
            operands = node.args
        elif isinstance(node, ast.Compare) and _reads_token_texts(node.left):
            operands = node.comparators
        else:
            continue
        for arg in operands:
            spelled = _spelled_texts(arg)
            if spelled is None:
                assert isinstance(arg, ast.Name) and arg.id in _TEXT_NAMES, ast.dump(arg)
            else:
                texts |= spelled
    assert {"class", "{", "::", "...", "instanceof", "++", "&&", "||", ":", "[", "->",
            ">="} <= texts
    for text in texts:
        lex = tokenize(text)
        assert list(zip(lex.kinds, lex.texts))[:-1] in ([("op", text)], [("keyword", text)]), text


@pytest.mark.parametrize("branches", [1000, 5000])
def test_a_long_else_if_chain_is_one_decision_per_branch(branches):
    chain = " else ".join(f"if (x == {k}) {{ x++; }}" for k in range(branches))
    _, decl = one_class(f"class A{{int x; void m(){{ {chain} else {{ x--; }} }}}}")
    m = method(decl, "m")
    assert m.events.decisions == ["if"] * branches
    assert cyclomatic_complexity(m) == branches + 1


def canonical(value):
    """Every field of a syntax tree as JSON-ready lists, sets sorted."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))] for f in dataclasses.fields(value)]
    if isinstance(value, (set, frozenset)):  # names or line numbers
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [type(value).__name__] + [canonical(v) for v in value]
    return value


TREE_SNIPPETS = [
    "class P {\n int f(int a, int b) {\n return (a + b) * (a - (b));\n }\n}",
    "class C {\n long f(Object o, double d) {\n String s = (String) o;\n"
    " return (long) -d + (int) +d;\n }\n}",
    "class L {\n void f() {\n run((a, b) -> a + b);\n run((String s) -> { g(s); });\n"
    " run(() -> 1);\n }\n}",
    "class R {\n void f() {\n list.forEach(System.out::println);\n make(ArrayList::new);\n }\n}",
    "class S {\n void f(int x) {\n x >>>= 2;\n x = x >>> 1 >> 2;\n boolean b = x >= 3;\n }\n}",
    "class G {\n java.util.Map<String, java.util.List<Map<K, ? extends V>>> m =\n"
    " new java.util.HashMap<>();\n}",
    "class T {\n int x;\n { x = 1; }\n static { y(); }\n T() { this(2); }\n"
    " T(int a) { super(); }\n int g() {\n return this.x + super.h()\n"
    " + (x > 0 && x < 9\n || x == 4 ? 1 : 2);\n }\n}",
    "class F {\n void f(java.util.List<int[]> xs) {\n for (final int[] a : xs) {\n"
    " if (a == null) continue;\n else if (a.length > 1) g();\n else if (a.length > 2) {}\n"
    " else h();\n }\n for (int i = 0, j[] = {}; i < 2; i++) {}\n }\n}",
    "enum E implements I {\n A(1) { void g() {} },\n B;\n E(int k) {}\n void g() {}\n}",
    "class N {\n Object o = new Outer.Inner<String>() { int k; };\n"
    " Object p = outer.new In();\n}",
]

# sha256 of the canonical trees of the corpus fixtures and TREE_SNIPPETS. Recorded
# when a type declaration's kind and whole extends list gave way to one
# superclass name, set for classes only, after the earlier trees projected onto
# that shape were found identical to the new ones (here and on 1,500 files of
# the bench corpus). The digest before it (08e0d86c...) was recorded when the
# parser began to fold nested and anonymous classes into the top-level type,
# after the trees before that, folded through their own helpers, were found
# equal to the new ones as multisets; the ones before that came from the trees
# with the unread fields, and from the parser as it was before its duplicated
# code paths were merged.
TREES_SHA256 = "eb301227aff116ed109acf8c616f6e3aea177dce387efe074a788ac917c45221"


def test_syntax_trees_match_the_recorded_digest():
    corpus = os.path.join(os.path.dirname(__file__), "fixtures", "corpus", "fix")
    sources = []
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as handle:
            sources.append((name, handle.read()))
    sources += [(f"snippet{k}.java", text) for k, text in enumerate(TREE_SNIPPETS)]
    dump = json.dumps([canonical(parse_source(text, name)) for name, text in sources])
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == TREES_SHA256
