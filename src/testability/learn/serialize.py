"""Self-describing text serialization for trained models.

A model file is a magic line, ``kind``, ``seed`` and ``features`` lines,
the params line, then a ``nodes`` block per tree or the perceptron's
``shape`` line and arrays. Floats are written with repr, so a reloaded
model predicts bit-identically. The params line is each field of the
kind's params dataclass as ``name=value``, in declaration order: None is
``none`` for max_depth and ``auto`` elsewhere, a bool is 0 or 1, anything
else is ``str(value)``. ``setting_value`` reads a value back by the
field's declared type, taking ``none`` or ``auto`` for any optional one.

A ``nodes N`` block lists a tree's N nodes in preorder, root first: ``leaf
<non-effective> <effective>`` or ``split <feature> <threshold> <left>
<right>``, the children by their index in the block. ``dump_model`` walks
each tree's flat arrays (``tree.Tree``, nodes in the order they were made)
once to number them in preorder; ``_parse_tree`` fills those arrays
straight from the block, keeping the file's numbering, so a valid tree
numbered out of preorder loads, predicts the same and dumps in preorder.

``load_model`` rejects text that does not parse, an unknown kind, a
feature that is unknown, repeated or a test-quality metric (M, L, B), a
params line without exactly its dataclass's keys, a setting out of range,
a split past the features, with a non-finite threshold or linking outside
the nodes after it, a node other than the root that is not linked exactly
once (so the nodes form one tree), an empty leaf, an array of the wrong
size or with a non-finite value, a scale of 0, and lines after the model.
"""

from __future__ import annotations

import math
from dataclasses import Field, fields
from typing import Iterator

import numpy as np

from ..metrics import INDEPENDENT_VARIABLES, metric_for_column
from .base import ModelKind
from .evaluation import LEARNERS
from .forest import RandomForestModel
from .mlp import MLPModel
from .tree import DecisionTreeModel, Tree

MAGIC = "testability-model 1"

TrainedModel = DecisionTreeModel | RandomForestModel | MLPModel

_READERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "bool": ({"0": False, "1": True}.__getitem__, "0 or 1")}


class ModelFormatError(ValueError):
    pass


def setting_value(field: Field, text: str) -> object:
    """A setting read from text by its field's declared type; ValueError names it."""
    declared, _, optional = field.type.partition(" | ")
    if optional and text.lower() in ("none", "auto"):
        return None
    read, expected = _READERS[declared]
    try:
        return read(text)
    except (KeyError, ValueError):
        raise ValueError(f"{field.name} must be {expected}, got {text!r}") from None


def _setting_text(name: str, value: object) -> str:
    if value is None:
        return "none" if name == "max_depth" else "auto"
    return str(int(value)) if isinstance(value, bool) else str(value)


def _array_shapes(d: int, h: int) -> dict[str, tuple[int, ...]]:
    """The perceptron's arrays in file order, with their shapes."""
    return {"mean": (d,), "scale": (d,), "w1": (d, h), "b1": (h,), "w2": (h, 2), "b2": (2,)}


def _tree_lines(tree: Tree) -> Iterator[str]:
    feature, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
    order, stack = [], [0]
    while stack:
        order.append(stack.pop())
        if feature[order[-1]] >= 0:
            stack += (right[order[-1]], left[order[-1]])
    rank = [0] * len(order)  # each node's preorder index
    for i, node in enumerate(order):
        rank[node] = i
    threshold, counts = tree.threshold.tolist(), tree.counts.tolist()
    yield f"nodes {len(order)}"
    for node in order:
        if feature[node] < 0:
            yield f"leaf {counts[node][0]} {counts[node][1]}"
        else:
            yield (f"split {feature[node]} {threshold[node]!r} "
                   f"{rank[left[node]]} {rank[right[node]]}")


def _parse_tree(lines: list[str], at: int, n_features: int) -> tuple[Tree, int]:
    """Rebuild one tree; every split must link forward to nodes inside it,
    and every node but the root must be linked exactly once."""
    head = lines[at].split()
    count = int(head[1])
    if head[0] != "nodes" or not 0 < count < len(lines) - at:
        raise ModelFormatError(f"expected nodes 1 to {len(lines) - at - 1}, got {lines[at]!r}")
    body = lines[at + 1 : at + 1 + count]
    feature, threshold, left, right = [-1] * count, [0.0] * count, [-1] * count, [-1] * count
    counts, links = [(0, 0)] * count, [0] * count
    for i, line in enumerate(body):
        parts = line.split()
        if parts[0] == "leaf":
            counts[i] = (int(parts[1]), int(parts[2]))
            ok = min(counts[i]) >= 0 and sum(counts[i]) > 0
        else:
            f, t = int(parts[1]), float(parts[2])
            a, b = int(parts[3]), int(parts[4])
            ok = (parts[0] == "split" and 0 <= f < n_features and math.isfinite(t)
                  and i < a < count and i < b < count)
            if ok:
                feature[i], threshold[i], left[i], right[i] = f, t, a, b
                links[a] += 1
                links[b] += 1
        if not ok:
            raise ModelFormatError(f"bad node {i}: {line!r}")
    for i in range(1, count):
        if links[i] != 1:
            raise ModelFormatError(f"bad node {i}: {body[i]!r} is linked {links[i]} times, "
                                   "not once")
    tree = Tree(np.array(feature), np.array(threshold), np.array(left), np.array(right),
                np.array(counts).reshape(count, 2))
    return tree, at + 1 + count


def _parse_array(line: str, name: str, shape: tuple[int, ...]) -> np.ndarray:
    parts = line.split()
    values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
    if parts[0] != name or values.size != math.prod(shape):
        raise ModelFormatError(f"bad {name} line: {values.size} values for shape {shape}")
    if not np.isfinite(values).all() or (name == "scale" and not values.all()):
        raise ModelFormatError(f"bad {name} line: a value is not finite, or a scale is 0")
    return values.reshape(shape)


def dump_model(model: TrainedModel) -> str:
    params = " ".join(f"{f.name}={_setting_text(f.name, getattr(model.params, f.name))}"
                      for f in fields(model.params))
    lines = [MAGIC, f"kind {model.kind.value}", f"seed {model.seed}",
             "features " + ",".join(m.column for m in model.feature_ids), f"params {params}"]
    if isinstance(model, MLPModel):
        d, h = model.w1.shape
        lines.append(f"shape {d} {h}")
        lines += [f"{name} " + " ".join(repr(float(v)) for v in getattr(model, name).ravel())
                  for name in _array_shapes(d, h)]
    else:
        for tree in model.trees if isinstance(model, RandomForestModel) else [model.tree]:
            lines.extend(_tree_lines(tree))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> TrainedModel:
    """Parse a dump_model text; any malformed text raises ModelFormatError."""
    try:
        return _parse_model([ln for ln in text.splitlines() if ln.strip()])
    except ModelFormatError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise ModelFormatError(f"malformed model: {exc!r}") from exc


def _parse_params(line: str, params_class: type):
    name, *pairs = line.split()
    values = dict(pair.split("=", 1) for pair in pairs)
    keys = [f.name for f in fields(params_class)]
    if name != "params" or len(values) != len(pairs) or sorted(values) != sorted(keys):
        raise ModelFormatError(f"expected params {' '.join(keys)}, got {line!r}")
    return params_class(**{f.name: setting_value(f, values[f.name]) for f in fields(params_class)})


def _parse_model(lines: list[str]) -> TrainedModel:
    if not lines or lines[0] != MAGIC:
        raise ModelFormatError("not a testability model file")
    header = dict(line.partition(" ")[::2] for line in lines[1:4])
    model_class, params_class, _ = LEARNERS[ModelKind(header["kind"])]
    names = header["features"].split(",")
    bad = [name for name in names if metric_for_column(name) not in INDEPENDENT_VARIABLES]
    if bad:  # unknown columns, or test-quality metrics
        raise ModelFormatError(f"not independent variables: {', '.join(bad)}")
    if len(set(names)) < len(names):
        raise ModelFormatError(f"features repeat a column: {header['features']}")
    d, params = len(names), _parse_params(lines[4], params_class)
    if model_class is MLPModel:
        shape = lines[5].split()
        if shape[0] != "shape" or int(shape[1]) != d:
            raise ModelFormatError(f"expected shape {d} <hidden>, got {lines[5]!r}")
        body = {name: _parse_array(lines[6 + i], name, dims)
                for i, (name, dims) in enumerate(_array_shapes(d, int(shape[2])).items())}
        at = 6 + len(body)
    else:
        trees, at = [], 5
        for _ in range(params.trees if model_class is RandomForestModel else 1):
            tree, at = _parse_tree(lines, at, d)
            trees.append(tree)
        body = {"trees": trees} if model_class is RandomForestModel else {"tree": trees[0]}
    if at != len(lines):
        raise ModelFormatError(f"{len(lines) - at} lines after the model")
    return model_class(feature_ids=tuple(map(metric_for_column, names)),
                       seed=int(header["seed"]), params=params, **body)
