import ast
import inspect

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
from testability.javasrc.extract import (
    compute_complexity_metrics,
    compute_inheritance_metrics,
    compute_size_metrics,
    cyclomatic_complexity,
)
from testability.javasrc.lexer import tokenize
from testability.metrics import MetricId as M


def one_class(src, name="A"):
    tree = parse_source(src, f"{name}.java")
    return tree, tree.types[0]


def method(decl, name):
    return next(m for m in decl.all_methods() if m.name == name)


def test_empty_class_has_one_type_no_methods():
    tree, decl = one_class("class A{}")
    assert decl.name == "A"
    assert decl.methods == []


def test_single_if_is_one_decision_point():
    _, decl = one_class("class A{void m(){if(x){}}}")
    assert [d.kind for d in method(decl, "m").events.decisions] == ["if"]


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
    size = compute_size_metrics(decl, tree)
    assert size[M.LOC] == 7  # 10 physical, 2 blank, 1 comment-only
    assert size[M.LOCCOM] == 2  # the comment-only line and the trailing one


def test_call_receivers_distinguish_internal_external():
    src = """class A{
        void helper(){}
        void m(){ helper(); this.helper(); other.helper(); helper(1); }
    }"""
    tree, decl = one_class(src)
    size = compute_size_metrics(decl, tree)
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
    assert [d.kind for d in method(decl, "m").events.decisions] == []


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
    assert len(decl.anonymous) == 1
    all_calls = [c.name for c in decl.all_events().calls]
    assert all_calls == ["helper"]
    assert [d.kind for d in decl.all_events().decisions] == ["if"]


def test_nested_class_members_fold():
    src = """class A{
        int a;
        class Inner { int b; void inner(){} }
        void outer(){}
    }"""
    _, decl = one_class(src)
    assert {f.name for f in decl.all_fields()} == {"a", "b"}
    assert {m.name for m in decl.all_methods()} == {"inner", "outer"}


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
    metrics = compute_inheritance_metrics(index["A"].decl, index)
    assert metrics[M.DIT] == 1
    assert index["A"].external_parent == "ArrayList"


def test_explicit_object_superclass_is_root():
    a = parse_source("class A extends Object{}", "A.java")
    index = build_corpus_index([a])
    assert compute_inheritance_metrics(index["A"].decl, index)[M.DIT] == 0


def test_resolved_chain_dit_and_noc():
    trees = [
        parse_source("class C{}", "C.java"),
        parse_source("class B extends C{}", "B.java"),
        parse_source("class A extends B{}", "A.java"),
    ]
    index = build_corpus_index(trees)
    assert compute_inheritance_metrics(index["A"].decl, index)[M.DIT] == 2
    assert compute_inheritance_metrics(index["B"].decl, index)[M.NOC] == 1


def test_rfc_counts_distinct_external_name_arity_pairs():
    src = """class A{
        void m(){ x.a(); y.a(); b(1); b(2); c(); }
        void n(){ c(); }
        void c(){}
    }"""
    tree, decl = one_class(src)
    # declared: m, n, c; invoked distinct: a/0, b/1 (twice distinct? no: b/1 once as pair), c/0 declared
    assert compute_complexity_metrics(decl)[M.RFC] == 3 + 2


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
    assert decl.fields[0].type_names == ("Map", "String", "List", "Integer")


def test_self_type_reference_excluded_from_ce():
    from testability.javasrc.extract import compute_coupling_metrics

    src = "class A{ A self; B other; void m(){ A local = new A(); } }"
    tree = parse_source(src)
    index = build_corpus_index([tree])
    assert compute_coupling_metrics(index["A"].decl, index)[M.CE] == 1  # only B


def test_a_text_block_is_a_parse_error_that_names_it():
    with pytest.raises(ParseError) as info:
        parse_source('class A {\n  String s = """\n    hi\n    """;\n}', "A.java")
    assert str(info.value) == "A.java:2:14: text blocks are not supported"


_TEXT_TESTS = ("at", "accept", "expect", "skip_balanced")
_TEXT_PARAMETERS = {"text", "open_text", "close_text"}


def test_every_text_the_parser_tests_is_one_operator_or_keyword_token():
    """``at`` and ``accept`` compare token text only, and ``unary`` looks its
    prefix operators up by text. That is exact while every such text lexes
    as one operator or keyword, which no ident, literal or eof can spell."""
    texts = set(parser_module._PREFIX_OPS)
    for node in ast.walk(ast.parse(inspect.getsource(parser_module))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TEXT_TESTS):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                texts.add(arg.value)
            else:  # only the plumbing passes its own parameter on
                assert isinstance(arg, ast.Name) and arg.id in _TEXT_PARAMETERS, ast.dump(arg)
    assert {"class", "{", "::", "...", "instanceof", "++"} <= texts
    for text in texts:
        tokens = tokenize(text).tokens
        assert [(t.kind, t.text) for t in tokens[:-1]] in (
            [("op", text)], [("keyword", text)]), text
