"""Every field of a syntax-tree, lexer, corpus-index, extraction or
decision-tree dataclass is read somewhere.

A field that is built but never read costs memory for each node of every
parsed file, for each class summary that a worker sends to the parent, and
for each tree a forest keeps. The check is by attribute name only: a field
passes when some module under ``src/testability`` reads an attribute of
that name, on any object. So a field whose name another class also reads
passes unread; ``ParsedCorpus.trees`` would pass through
``ForestParams.trees`` if it were not listed in ``EXEMPT``.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "testability")
DATACLASS_MODULES = [os.path.join(SRC, "javasrc", name)
                     for name in ("tree.py", "lexer.py", "corpus.py", "extract.py")] + [
    os.path.join(SRC, "learn", name) for name in ("tree.py", "forest.py")]
#: Fields kept for a caller outside ``src/testability``, each with the reason.
EXEMPT = {
    # kept for bench/layers.py, which passes in the trees it parsed itself;
    # nothing reads it (the name check alone would pass it, as the forest
    # settings read ``.trees``)
    "ParsedCorpus.trees",
}


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def is_dataclass(node):
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def dataclass_fields(path):
    for node in parse(path).body:
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and "ClassVar" not in ast.unparse(item):
                    yield f"{node.name}.{item.target.id}"


def attributes_read():
    read = set()
    for dirpath, dirnames, filenames in os.walk(SRC):
        for name in filenames:
            if name.endswith(".py"):
                read |= {node.attr for node in ast.walk(parse(os.path.join(dirpath, name)))
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return read


def test_every_tree_and_lexer_field_is_read():
    fields = [f for path in DATACLASS_MODULES for f in dataclass_fields(path)]
    assert {"MethodDecl.annotations", "CommentSpan.start_line",
            "ClassSummary.values", "ClassFacts.signatures", "Tree.counts", "TreeNode.index",
            "RandomForestModel.trees"} | EXEMPT <= set(fields)
    read = attributes_read()
    assert [f for f in fields if f.split(".")[1] not in read and f not in EXEMPT] == []
