"""Versioned on-disk artifacts for trained models.

An artifact is a directory:

``artifact.json``
    Format version, registry model name, constructor kwargs, input/output
    dimensions and free-form metadata (AMUD decision, training summary,
    pipeline configuration, …).
``weights.npz``
    The model's full state dict — parameters *and* buffers (batch-norm
    running statistics) — stored uncompressed-dtype-exact, so a reload is
    bit-identical.
``graph.npz`` (optional)
    The modeled graph the weights were trained on, written with
    :func:`repro.graph.io.save_graph`.  Shipping the graph makes an artifact
    self-contained: ``repro predict <dir>`` needs nothing else.

Restoring builds the model from the registry (every parameter exists from
construction), loads the stored state, whose array shapes must match the
parameters', and only then preprocesses the target graph, through a shared
operator cache when one is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.io import load_graph, save_graph
from ..models.base import NodeClassifier, node_dimension
from ..models.registry import get_spec
from ..fingerprint import model_fingerprint

PathLike = Union[str, Path]

#: bumped whenever the directory layout or json schema changes.
FORMAT_VERSION = 1

ARTIFACT_FILE = "artifact.json"
WEIGHTS_FILE = "weights.npz"
GRAPH_FILE = "graph.npz"


def _json_default(value):
    """Make numpy scalars/arrays and other strays JSON-serialisable."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


@dataclass
class ModelArtifact:
    """In-memory form of a saved model directory."""

    model_name: str
    model_kwargs: Dict
    num_features: int
    num_classes: int
    state: Dict[str, np.ndarray]
    metadata: Dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    @property
    def fingerprint(self) -> str:
        """Configuration fingerprint (weights excluded) for cache keying."""
        return model_fingerprint(self.model_name, self.model_kwargs)

    def build_model(self, graph: DirectedGraph) -> NodeClassifier:
        """Construct the (untrained) model this artifact describes for ``graph``.

        ``graph`` supplies ``num_nodes`` to the models that declare it;
        the manifest supplies every other dimension and hyper-parameter.
        """
        spec = get_spec(self.model_name)
        model = spec.constructor(
            num_features=self.num_features,
            num_classes=self.num_classes,
            **node_dimension(spec.constructor, graph),
            **self.model_kwargs,
        )
        model._registry_name = spec.name
        model._init_kwargs = dict(self.model_kwargs)
        return model

    def restore(
        self, graph: DirectedGraph, operator_cache=None
    ) -> Tuple[NodeClassifier, Dict[str, object]]:
        """Build the model, load the stored weights and preprocess ``graph``.

        Returns ``(model, cache)`` ready for ``model.forward(cache)``.  A
        stored array whose shape differs from its parameter's (say, a LINKX
        trained on a graph of another node count) raises
        :class:`ValueError` before the preprocess runs.  ``operator_cache``
        (a :class:`repro.serving.cache.OperatorCache`) routes the preprocess
        through a shared cache: on a hit — another shard of the same
        configuration, or a directory warmed from an on-disk spill — the
        whole precomputation is skipped.
        """
        model = self.build_model(graph)
        model.load_state_dict(self.state)
        model.eval()
        if operator_cache is None:
            cache = model.preprocess(graph)
        else:
            cache = operator_cache.preprocess(model, graph)
        return model, cache


def _resolve_export_config(
    model: NodeClassifier,
    model_name: Optional[str],
    model_kwargs: Optional[Dict],
) -> Tuple[str, Dict]:
    """Work out (registry name, constructor kwargs) for ``model``.

    Models created through :func:`repro.models.registry.create_model` carry
    both on the instance; hand-constructed models must pass them explicitly.
    """
    name = model_name if model_name is not None else getattr(model, "_registry_name", None)
    if name is None:
        raise ValueError(
            "cannot infer the registry name of a hand-constructed model; "
            "pass model_name= (and model_kwargs=) to save_model()"
        )
    get_spec(name)  # fail fast on unknown names
    kwargs = model_kwargs if model_kwargs is not None else getattr(model, "_init_kwargs", {})
    # Strict round-trip through JSON (no repr fallback) so a kwarg that
    # cannot be reconstructed fails at save time, not at load time on
    # another machine.
    try:
        kwargs = json.loads(json.dumps(dict(kwargs)))
    except TypeError as error:
        raise ValueError(
            f"model kwargs are not JSON-serialisable and cannot be exported: {error}"
        ) from None
    return name, kwargs


def save_model(
    model: NodeClassifier,
    directory: PathLike,
    *,
    model_name: Optional[str] = None,
    model_kwargs: Optional[Dict] = None,
    metadata: Optional[Dict] = None,
    graph: Optional[DirectedGraph] = None,
) -> Path:
    """Write ``model`` (and optionally its graph) as an artifact directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name, kwargs = _resolve_export_config(model, model_name, model_kwargs)

    state = model.state_dict()
    np.savez(directory / WEIGHTS_FILE, **state)

    manifest = {
        "format_version": FORMAT_VERSION,
        "model": {
            "name": name,
            "kwargs": kwargs,
            "num_features": model.num_features,
            "num_classes": model.num_classes,
            "fingerprint": model_fingerprint(name, kwargs),
            "num_parameters": model.num_parameters(),
        },
        "metadata": metadata or {},
    }
    (directory / ARTIFACT_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default)
    )
    if graph is not None:
        save_graph(graph, directory / GRAPH_FILE)
    return directory


def load_artifact(directory: PathLike) -> ModelArtifact:
    """Read an artifact directory back into a :class:`ModelArtifact`."""
    directory = Path(directory)
    manifest_path = directory / ARTIFACT_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {ARTIFACT_FILE} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    version = int(manifest.get("format_version", -1))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported artifact version {version}; expected {FORMAT_VERSION}")

    with np.load(directory / WEIGHTS_FILE, allow_pickle=False) as data:
        state = {key: data[key].copy() for key in data.files}

    model_info = manifest["model"]
    return ModelArtifact(
        model_name=model_info["name"],
        model_kwargs=dict(model_info.get("kwargs", {})),
        num_features=int(model_info["num_features"]),
        num_classes=int(model_info["num_classes"]),
        state=state,
        metadata=dict(manifest.get("metadata", {})),
        format_version=version,
    )


def load_artifact_graph(directory: PathLike) -> Optional[DirectedGraph]:
    """Load the graph shipped with an artifact, or ``None`` if absent."""
    path = Path(directory) / GRAPH_FILE
    return load_graph(path) if path.exists() else None


def restore_model(
    directory: PathLike,
    graph: Optional[DirectedGraph] = None,
    operator_cache=None,
) -> Tuple[NodeClassifier, Dict[str, object], ModelArtifact, DirectedGraph]:
    """One-call reload: artifact + graph + preprocess + weights.

    ``graph`` defaults to the graph stored inside the artifact; passing a
    different graph serves the same weights against new data (the preprocess
    is recomputed for it, and a graph whose node count does not fit a
    node-sized model's weights raises :class:`ValueError`).
    ``operator_cache`` is forwarded to :meth:`ModelArtifact.restore` so a
    warm shared cache skips the preprocess entirely.  Returns
    ``(model, cache, artifact, graph)`` with the graph actually used.
    """
    artifact = load_artifact(directory)
    if graph is None:
        graph = load_artifact_graph(directory)
        if graph is None:
            raise FileNotFoundError(
                f"artifact {directory} ships no {GRAPH_FILE}; pass a graph explicitly"
            )
    model, cache = artifact.restore(graph, operator_cache=operator_cache)
    return model, cache, artifact, graph
