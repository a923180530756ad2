"""Persistence for :class:`DirectedGraph` objects.

Graphs (adjacency, features, labels, splits and metadata) are stored in a
single uncompressed ``.npz`` file so that expensive generator outputs or
externally converted datasets can be cached on disk and reloaded exactly.
Members are stored, not deflated: float features barely compress, and an
artifact's graph is read on every restore.  Files written compressed by
earlier versions load all the same.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

from .digraph import DirectedGraph

PathLike = Union[str, Path]

#: format marker stored inside every file, bumped on layout changes.
FORMAT_VERSION = 1


def save_graph(graph: DirectedGraph, path: PathLike) -> Path:
    """Write ``graph`` to ``path`` (a ``.npz`` file; the suffix is enforced)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    adjacency = graph.adjacency.tocsr()
    arrays = {
        "format_version": np.array(FORMAT_VERSION),
        "adj_data": adjacency.data,
        "adj_indices": adjacency.indices,
        "adj_indptr": adjacency.indptr,
        "adj_shape": np.array(adjacency.shape),
        "features": graph.features,
        "labels": graph.labels,
        "name": np.array(graph.name),
        "meta_json": np.array(json.dumps(graph.meta, default=str)),
    }
    for mask_name in ("train_mask", "val_mask", "test_mask"):
        mask = getattr(graph, mask_name)
        if mask is not None:
            arrays[mask_name] = mask
    np.savez(path, **arrays)
    return path


def load_graph(path: PathLike) -> DirectedGraph:
    """Load a graph previously written by :func:`save_graph`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no graph file at {path}")
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph file version {version}; expected {FORMAT_VERSION}"
            )
        adjacency = sp.csr_matrix(
            (data["adj_data"], data["adj_indices"], data["adj_indptr"]),
            shape=tuple(data["adj_shape"]),
        )
        masks = {}
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            if mask_name in data:
                masks[mask_name] = data[mask_name].astype(bool)
        return DirectedGraph(
            adjacency=adjacency,
            features=data["features"],
            labels=data["labels"],
            name=str(data["name"]),
            meta=json.loads(str(data["meta_json"])),
            **masks,
        )
