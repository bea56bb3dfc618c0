"""Persistence for trained models and frameworks.

Production deployments train once and serve many inference calls, often in
a different process (the paper's use cases 1-3 all separate setup from
serving). Everything needed at inference time — model structure, feature
configuration, the Bayesian-optimization checkpoint for later refinement —
round-trips through a single ``.npz`` archive, with no pickle involved
(tree ensembles are flat arrays already; kNN is its training matrix).

Every ``model_kind`` a framework can train ("forest", "gbt", "knn")
round-trips: :func:`save_model` / :func:`load_model` dispatch on the model
class and record the kind in the archive metadata, so a loaded framework
can serve any of them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor

_FORMAT_VERSION = 1


def _tree_arrays(tree: DecisionTreeRegressor, idx: int) -> dict[str, np.ndarray]:
    return {
        f"t{idx}_feature": tree.feature,
        f"t{idx}_threshold": tree.threshold,
        f"t{idx}_left": tree.left,
        f"t{idx}_right": tree.right,
        f"t{idx}_value": tree.value,
        f"t{idx}_n_samples": tree.n_samples,
        f"t{idx}_mse": tree.mse,
    }


def _tree_from_arrays(data, idx: int) -> DecisionTreeRegressor:
    tree = DecisionTreeRegressor()
    tree.feature = data[f"t{idx}_feature"]
    tree.threshold = data[f"t{idx}_threshold"]
    tree.left = data[f"t{idx}_left"]
    tree.right = data[f"t{idx}_right"]
    tree.value = data[f"t{idx}_value"]
    tree.n_samples = data[f"t{idx}_n_samples"]
    tree.mse = data[f"t{idx}_mse"]
    return tree


def _write_archive(path: Path, arrays: dict, meta: dict) -> Path:
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz if missing; normalize the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def save_model(path: str | Path, model, extra: dict | None = None) -> Path:
    """Serialize any fitted model kind (forest / gbt / knn) plus ``extra``."""
    path = Path(path)
    if not isinstance(
        model, (RandomForestRegressor, GradientBoostingRegressor, KNeighborsRegressor)
    ):
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": _FORMAT_VERSION,
        "params": model.get_params(),
        "extra": extra or {},
    }
    if isinstance(model, RandomForestRegressor):
        if not model.trees:
            raise ValueError("cannot save an unfitted forest")
        meta["kind"] = "forest"
        meta["n_trees"] = len(model.trees)
        for i, tree in enumerate(model.trees):
            arrays.update(_tree_arrays(tree, i))
    elif isinstance(model, GradientBoostingRegressor):
        if not model.trees:
            raise ValueError("cannot save an unfitted gbt model")
        meta["kind"] = "gbt"
        meta["n_trees"] = len(model.trees)
        meta["base_value"] = float(model.base_value)
        for i, tree in enumerate(model.trees):
            arrays.update(_tree_arrays(tree, i))
    elif isinstance(model, KNeighborsRegressor):
        if model._X is None:
            raise ValueError("cannot save an unfitted knn model")
        meta["kind"] = "knn"
        arrays["knn_X"] = model._X
        arrays["knn_y"] = model._y
        arrays["knn_mu"] = model._mu
        arrays["knn_sigma"] = model._sigma
    return _write_archive(path, arrays, meta)


def load_model(path: str | Path) -> tuple[object, dict]:
    """Inverse of :func:`save_model`; returns ``(model, extra)``."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {meta.get('version')!r}")
        if "kind" not in meta:
            raise ValueError("model archive has no 'kind' field")
        kind = meta["kind"]
        if kind == "forest":
            model = RandomForestRegressor(**meta["params"])
            model.trees = [_tree_from_arrays(data, i) for i in range(meta["n_trees"])]
        elif kind == "gbt":
            model = GradientBoostingRegressor(**meta["params"])
            model.trees = [_tree_from_arrays(data, i) for i in range(meta["n_trees"])]
            model.base_value = float(meta["base_value"])
        elif kind == "knn":
            model = KNeighborsRegressor(**meta["params"])
            model._X = data["knn_X"]
            model._y = data["knn_y"]
            model._mu = data["knn_mu"]
            model._sigma = data["knn_sigma"]
        else:
            raise ValueError(f"unknown serialized model kind {kind!r}")
    return model, meta["extra"]


def save_framework(path: str | Path, framework) -> Path:
    """Persist a fitted framework's inference state.

    Saves the trained model (any ``model_kind``), the trained error-bound
    range, the compressor name, the framework class name, and (for CAROL)
    the BO checkpoint, so that a reloaded framework can both predict and
    :meth:`refine`: its refine warm-starts from that checkpoint, on the
    new fields' rows alone (the archive keeps no training rows). The
    archive keeps no training configuration either, so the reloaded
    framework has the constructor's grid, ``n_iter`` and ``cv``.
    """
    model = framework.model
    if model.forest is None:
        raise ValueError("framework is not fitted")
    extra = {
        "framework": framework.name,
        "compressor": framework.compressor_name,
        "model_kind": framework.model_kind,
        "feature_names": model.feature_names,
        "eb_range": list(model._eb_range),
        "checkpoint": _jsonify_checkpoint(model.checkpoint),
    }
    return save_model(path, model.forest, extra=extra)


def load_framework(path: str | Path):
    """Reconstruct a framework saved by :func:`save_framework`."""
    from repro.core.carol import CarolFramework
    from repro.core.fxrz import FxrzFramework
    from repro.core.training import TrainingInfo

    model, extra = load_model(path)
    cls = {"carol": CarolFramework, "fxrz": FxrzFramework}[extra["framework"]]
    if "model_kind" not in extra:
        raise ValueError("framework archive has no 'model_kind' field")
    model_kind = extra["model_kind"]
    fw = cls(compressor=extra["compressor"], model_kind=model_kind)
    fw.model.forest = model
    fw.model.feature_names = list(extra["feature_names"])
    fw.model._eb_range = tuple(extra["eb_range"])
    checkpoint = _dejsonify_checkpoint(extra.get("checkpoint"))
    fw.model.info = TrainingInfo(
        method="loaded",
        best_params=model.get_params(),
        best_score=float("nan"),
        elapsed=0.0,
        n_evaluations=0,
        checkpoint=checkpoint,
        model_kind=model_kind,
    )
    return fw


def _jsonify_checkpoint(checkpoint):
    if checkpoint is None:
        return None
    return [[params, float(score)] for params, score in checkpoint]


def _dejsonify_checkpoint(raw):
    if not raw:
        return None
    return [(dict(params), float(score)) for params, score in raw]
