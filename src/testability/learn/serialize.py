"""Self-describing text serialization for trained models.

The format is line oriented: a magic/version line, then ``key value``
header lines (kind, seed, feature order, hyperparameters), then the
structure. Floats are written with repr, which round-trips exactly, so a
reloaded model predicts bit-identically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..metrics import MetricId, metric_for_column
from .base import ModelKind
from .forest import ForestParams, RandomForestModel
from .mlp import MLPModel, MLPParams
from .tree import DecisionTreeModel, TreeNode, TreeParams

MAGIC = "testability-model 1"

TrainedModel = DecisionTreeModel | RandomForestModel | MLPModel


class ModelFormatError(ValueError):
    pass


def _tree_lines(root: TreeNode) -> Iterator[str]:
    nodes: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        node._id = len(nodes)  # type: ignore[attr-defined]
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    yield f"nodes {len(nodes)}"
    for node in nodes:
        if node.is_leaf:
            yield f"leaf {node.counts[0]} {node.counts[1]}"
        else:
            yield (
                f"split {node.feature} {node.threshold!r} "
                f"{node.left._id} {node.right._id}"  # type: ignore[attr-defined]
            )


def _parse_tree(lines: list[str], at: int, n_features: int) -> tuple[TreeNode, int]:
    """Rebuild one tree; every split must link forward to nodes inside it."""
    head = lines[at].split()
    if head[0] != "nodes":
        raise ModelFormatError(f"expected node count, got {lines[at]!r}")
    count = int(head[1])
    if not 0 < count < len(lines) - at:
        raise ModelFormatError(f"node count {count} does not fit the file")
    nodes = [TreeNode() for _ in range(count)]
    links: list[tuple[int, int, int]] = []
    for i in range(count):
        parts = lines[at + 1 + i].split()
        if parts[0] == "leaf":
            nodes[i].counts = (int(parts[1]), int(parts[2]))
            if min(nodes[i].counts) < 0 or sum(nodes[i].counts) == 0:
                raise ModelFormatError(f"bad leaf counts: {lines[at + 1 + i]!r}")
        elif parts[0] == "split":
            nodes[i].feature = int(parts[1])
            nodes[i].threshold = float(parts[2])
            links.append((i, int(parts[3]), int(parts[4])))
            if not 0 <= nodes[i].feature < n_features:
                raise ModelFormatError(f"feature index out of range: {lines[at + 1 + i]!r}")
        else:
            raise ModelFormatError(f"bad node line: {lines[at + 1 + i]!r}")
    for i, left, right in links:
        if not (i < left < count and i < right < count):
            raise ModelFormatError(f"split {i} links outside the nodes after it")
        nodes[i].left = nodes[left]
        nodes[i].right = nodes[right]
    return nodes[0], at + 1 + count


def _vector_line(name: str, arr: np.ndarray) -> str:
    return f"{name} " + " ".join(repr(float(v)) for v in np.asarray(arr).ravel())


def _parse_vector(line: str, name: str, size: int) -> np.ndarray:
    parts = line.split()
    if parts[0] != name:
        raise ModelFormatError(f"expected {name} line, got {line!r}")
    if len(parts) - 1 != size:
        raise ModelFormatError(f"{name} has {len(parts) - 1} values, shape needs {size}")
    return np.array([float(p) for p in parts[1:]], dtype=np.float64)


def dump_model(model: TrainedModel) -> str:
    lines = [MAGIC, f"kind {model.kind.value}", f"seed {model.seed}"]
    lines.append("features " + ",".join(m.column for m in model.feature_ids))
    if isinstance(model, DecisionTreeModel):
        depth = "none" if model.params.max_depth is None else model.params.max_depth
        lines.append(f"params min_leaf={model.params.min_leaf} max_depth={depth}")
        lines.extend(_tree_lines(model.root))
    elif isinstance(model, RandomForestModel):
        p = model.params
        fps = "auto" if p.features_per_split is None else p.features_per_split
        lines.append(
            f"params trees={p.trees} features_per_split={fps} "
            f"min_leaf={p.min_leaf} bootstrap={int(p.bootstrap)}"
        )
        for root in model.roots:
            lines.extend(_tree_lines(root))
    elif isinstance(model, MLPModel):
        p = model.params
        hidden = "auto" if p.hidden is None else p.hidden
        lines.append(
            f"params hidden={hidden} learning_rate={p.learning_rate!r} "
            f"momentum={p.momentum!r} epochs={p.epochs}"
        )
        lines.append(f"shape {model.w1.shape[0]} {model.w1.shape[1]}")
        lines.append(_vector_line("mean", model.mean))
        lines.append(_vector_line("scale", model.scale))
        lines.append(_vector_line("w1", model.w1))
        lines.append(_vector_line("b1", model.b1))
        lines.append(_vector_line("w2", model.w2))
        lines.append(_vector_line("b2", model.b2))
    else:
        raise ModelFormatError(f"cannot serialize {type(model).__name__}")
    return "\n".join(lines) + "\n"


def _parse_params(line: str) -> dict[str, str]:
    parts = line.split()
    if parts[0] != "params":
        raise ModelFormatError(f"expected params line, got {line!r}")
    return dict(p.split("=", 1) for p in parts[1:])


def load_model(text: str) -> TrainedModel:
    """Parse a dump_model text; any malformed text raises ModelFormatError."""
    try:
        return _parse_model([ln for ln in text.splitlines() if ln.strip()])
    except ModelFormatError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise ModelFormatError(f"malformed model: {exc!r}") from exc


def _parse_model(lines: list[str]) -> TrainedModel:
    if not lines or lines[0] != MAGIC:
        raise ModelFormatError("not a testability model file")
    header: dict[str, str] = {}
    for ln in lines[1:4]:
        key, _, value = ln.partition(" ")
        header[key] = value
    kind = ModelKind(header["kind"])
    seed = int(header["seed"])
    feature_ids: list[MetricId] = []
    for name in header.get("features", "").split(","):
        metric = metric_for_column(name)
        if metric is None:
            raise ModelFormatError(f"unknown feature column {name!r}")
        feature_ids.append(metric)
    params = _parse_params(lines[4])

    if kind is ModelKind.DECISION_TREE:
        max_depth = None if params["max_depth"] == "none" else int(params["max_depth"])
        root, _ = _parse_tree(lines, 5, len(feature_ids))
        return DecisionTreeModel(
            kind=kind,
            feature_ids=tuple(feature_ids),
            seed=seed,
            params=TreeParams(min_leaf=int(params["min_leaf"]), max_depth=max_depth),
            root=root,
        )
    if kind is ModelKind.RANDOM_FOREST:
        fps = None if params["features_per_split"] == "auto" else int(params["features_per_split"])
        forest_params = ForestParams(
            trees=int(params["trees"]),
            features_per_split=fps,
            min_leaf=int(params["min_leaf"]),
            bootstrap=bool(int(params["bootstrap"])),
        )
        roots = []
        at = 5
        for _ in range(forest_params.trees):
            root, at = _parse_tree(lines, at, len(feature_ids))
            roots.append(root)
        return RandomForestModel(
            kind=kind,
            feature_ids=tuple(feature_ids),
            seed=seed,
            params=forest_params,
            roots=roots,
        )
    # MultilayerPerceptron
    hidden = None if params["hidden"] == "auto" else int(params["hidden"])
    mlp_params = MLPParams(
        hidden=hidden,
        learning_rate=float(params["learning_rate"]),
        momentum=float(params["momentum"]),
        epochs=int(params["epochs"]),
    )
    shape = lines[5].split()
    if shape[0] != "shape":
        raise ModelFormatError(f"expected shape line, got {lines[5]!r}")
    d, h = int(shape[1]), int(shape[2])
    if d != len(feature_ids):
        raise ModelFormatError(f"shape has {d} inputs for {len(feature_ids)} features")
    mean = _parse_vector(lines[6], "mean", d)
    scale = _parse_vector(lines[7], "scale", d)
    w1 = _parse_vector(lines[8], "w1", d * h).reshape(d, h)
    b1 = _parse_vector(lines[9], "b1", h)
    w2 = _parse_vector(lines[10], "w2", h * 2).reshape(h, 2)
    b2 = _parse_vector(lines[11], "b2", 2)
    return MLPModel(
        kind=kind,
        feature_ids=tuple(feature_ids),
        seed=seed,
        params=mlp_params,
        mean=mean,
        scale=scale,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
    )
