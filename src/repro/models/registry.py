"""Model registry: names, categories and constructors for the full zoo.

The benchmark harnesses iterate over this registry to reproduce the model
columns of Tables III/IV/V, so the category labels mirror the paper's
grouping: undirected spatial, undirected spectral, directed spatial and
directed spectral.  ADPA is registered here too so that it can be swept
alongside the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..graph.digraph import DirectedGraph
from .a2dug import A2DUG
from .aerognn import AeroGNN
from .base import NodeClassifier, node_dimension
from .bernnet import BernNet
from .dgcn import DGCN
from .digcn import DiGCN
from .dimpa import DIMPA
from .dirgnn import DirGNN
from .gcn import GCN
from .gcnii import GCNII
from .glognn import GloGNN
from .gprgnn import GPRGNN
from .grand import GRAND
from .jacobiconv import JacobiConv
from .linkx import LINKX
from .magnet import MagNet
from .mlp import MLPClassifier
from .nste import NSTE
from .sgc import SGC

#: Category labels following the paper's baseline taxonomy (Sec. V-A).
UNDIRECTED_SPATIAL = "undirected-spatial"
UNDIRECTED_SPECTRAL = "undirected-spectral"
DIRECTED_SPATIAL = "directed-spatial"
DIRECTED_SPECTRAL = "directed-spectral"
PROPOSED = "proposed"


@dataclass(frozen=True)
class ModelSpec:
    """A registered model: constructor plus taxonomy metadata."""

    name: str
    constructor: Callable[..., NodeClassifier]
    category: str

    @property
    def is_directed(self) -> bool:
        return self.category in (DIRECTED_SPATIAL, DIRECTED_SPECTRAL, PROPOSED)


_REGISTRY: Dict[str, ModelSpec] = {}


def register(name: str, constructor: Callable[..., NodeClassifier], category: str) -> None:
    """Add a model to the registry (idempotent for identical entries)."""
    key = name.lower()
    _REGISTRY[key] = ModelSpec(name=name, constructor=constructor, category=category)


def get_spec(name: str) -> ModelSpec:
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def create_model(name: str, graph: DirectedGraph, **kwargs) -> NodeClassifier:
    """Instantiate a registered model with dimensions taken from ``graph``.

    The registry name and constructor kwargs are stamped onto the instance so
    the serving layer (:mod:`repro.serving.artifacts`) can export the model
    and rebuild it bit-exactly in another process.  The dimensions
    (``num_features``, ``num_classes`` and, where declared, ``num_nodes``)
    are not among the kwargs.
    """
    spec = get_spec(name)
    model = spec.constructor(
        num_features=graph.num_features,
        num_classes=graph.num_classes,
        **node_dimension(spec.constructor, graph),
        **kwargs,
    )
    model._registry_name = spec.name
    model._init_kwargs = dict(kwargs)
    return model


def available_models(category: Optional[str] = None) -> List[str]:
    """List registered model names, optionally filtered by category."""
    specs = _REGISTRY.values()
    if category is not None:
        specs = [spec for spec in specs if spec.category == category]
    return sorted(spec.name for spec in specs)


def undirected_models() -> List[str]:
    return available_models(UNDIRECTED_SPATIAL) + available_models(UNDIRECTED_SPECTRAL)


def directed_models() -> List[str]:
    return available_models(DIRECTED_SPATIAL) + available_models(DIRECTED_SPECTRAL)


def _adpa_factory(**kwargs):
    """Construct ADPA lazily to avoid a circular import with :mod:`repro.adpa`."""
    from ..adpa.model import ADPA

    return ADPA(**kwargs)


# ---------------------------------------------------------------------- #
# Default registrations (paper Sec. V-A baselines + ADPA)
# ---------------------------------------------------------------------- #
register("MLP", MLPClassifier, UNDIRECTED_SPATIAL)
register("GCN", GCN, UNDIRECTED_SPATIAL)
register("GCNII", GCNII, UNDIRECTED_SPATIAL)
register("LINKX", LINKX, UNDIRECTED_SPATIAL)
register("GloGNN", GloGNN, UNDIRECTED_SPATIAL)
register("AeroGNN", AeroGNN, UNDIRECTED_SPATIAL)
register("SGC", SGC, UNDIRECTED_SPECTRAL)
register("GRAND", GRAND, UNDIRECTED_SPECTRAL)
register("GPRGNN", GPRGNN, UNDIRECTED_SPECTRAL)
register("BernNet", BernNet, UNDIRECTED_SPECTRAL)
register("JacobiConv", JacobiConv, UNDIRECTED_SPECTRAL)
register("DGCN", DGCN, DIRECTED_SPATIAL)
register("NSTE", NSTE, DIRECTED_SPATIAL)
register("DIMPA", DIMPA, DIRECTED_SPATIAL)
register("DirGNN", DirGNN, DIRECTED_SPATIAL)
register("A2DUG", A2DUG, DIRECTED_SPATIAL)
register("DiGCN", DiGCN, DIRECTED_SPECTRAL)
register("MagNet", MagNet, DIRECTED_SPECTRAL)
register("ADPA", _adpa_factory, PROPOSED)
