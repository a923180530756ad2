"""repro — reproduction of "Breaking the Entanglement of Homophily and
Heterophily in Semi-supervised Node Classification" (AMUD + ADPA, ICDE 2024).

Public API highlights
---------------------
* :mod:`repro.graph` — directed graph container, DP operators, generators.
* :mod:`repro.datasets` — calibrated synthetic stand-ins for the 16 benchmarks.
* :mod:`repro.amud` — the AMUD guidance score and modeling decision.
* :mod:`repro.adpa` — the ADPA model (DP propagation + hierarchical attention).
* :mod:`repro.models` — the baseline GNN zoo (undirected & directed).
* :mod:`repro.training` — trainer, repeated experiments, sparsity sweeps.
* :mod:`repro.api` — **the** public facade: :class:`repro.api.Session`
  with typed handles and frozen configs (load → amud → fit → serve).
* :mod:`repro.serving` — artifacts, caches, inference engine, shard router.
"""

from . import adpa, amud, analysis, api, datasets, graph, metrics, models, nn, training
from .adpa import ADPA
from .amud import AmudDecision, amud_decide, amud_score, apply_amud
from .api import AmudConfig, GraphHandle, ModelHandle, ServeConfig, Session, TrainConfig
from .datasets import load_dataset
from .graph import DirectedGraph
from .training import Trainer

__version__ = "1.1.0"

__all__ = [
    "nn",
    "analysis",
    "api",
    "graph",
    "datasets",
    "metrics",
    "amud",
    "adpa",
    "models",
    "training",
    "DirectedGraph",
    "load_dataset",
    "amud_score",
    "amud_decide",
    "apply_amud",
    "AmudDecision",
    "ADPA",
    "Trainer",
    "Session",
    "GraphHandle",
    "ModelHandle",
    "TrainConfig",
    "AmudConfig",
    "ServeConfig",
    "__version__",
]
