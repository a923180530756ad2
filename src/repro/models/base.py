"""Common contract for every node-classification model in the reproduction.

Each model is a :class:`repro.nn.Module` with two extra responsibilities:

``preprocess(graph)``
    Compute everything that does not depend on trainable parameters —
    normalised adjacencies, pre-propagated features, DP operator caches —
    and return it as a dict.  The trainer calls this exactly once per
    (model, graph) pair, which is what makes the decoupled models
    (SGC, ADPA, GPR-GNN, …) cheap: their propagation lives here.

``forward(cache)``
    Map the cached inputs to ``(n, num_classes)`` logits.  Called every
    epoch under autograd.

``row_cache(cache, rows)``
    Optional.  A model whose forward computes each node's logits from that
    node's cached rows alone (MLP, SGC, ADPA) returns a cache whose forward
    yields the logits of ``rows`` only, so the trainer forwards just the
    rows its loss and early stopping read.  The row cache may hold copies
    of those rows (MLP, SGC) or the full cache's own arrays plus the row
    index, read inside the forward (ADPA).  The default, ``None``, keeps
    the whole-graph forward every message-passing model needs.

The :class:`repro.training.Trainer` drives fit/early-stopping/evaluation on
top of this contract, so model files stay focused on the architecture.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from ..fingerprint import model_fingerprint, preprocess_key
from ..graph.digraph import DirectedGraph
from ..nn import Module, Tensor, no_grad


#: process-unique identities for models that bypass the registry.
_SIGNATURE_TOKENS = itertools.count()


class NodeClassifier(Module):
    """Base class for semi-supervised node classifiers.

    Sub-classes must set ``self.num_features`` / ``self.num_classes`` (the
    constructor does it for them) and implement :meth:`preprocess` and
    :meth:`forward`.
    """

    #: whether the model consumes directed adjacencies natively; undirected
    #: models symmetrise their input inside ``preprocess``.
    directed: bool = False

    #: set on instances restored from a serving artifact: lazily-built
    #: modules must not be re-created with a different shape once trained
    #: weights have been loaded (see :class:`repro.adpa.model.ADPA`).
    architecture_frozen: bool = False

    def __init__(self, num_features: int, num_classes: int) -> None:
        super().__init__()
        if num_features < 1 or num_classes < 2:
            raise ValueError(
                f"invalid dimensions: num_features={num_features}, num_classes={num_classes}"
            )
        self.num_features = num_features
        self.num_classes = num_classes

    # ------------------------------------------------------------------ #
    # Contract
    # ------------------------------------------------------------------ #
    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        """Build the training-independent cache for ``graph``.

        Serving contract: the returned cache must be a pure function of the
        model configuration and the graph *content* (adjacency, features,
        labels, splits) — no randomness, no dependence on parameter values —
        so that :class:`repro.serving.cache.OperatorCache` can key it by
        ``(signature, graph fingerprint)`` and share it across reloads of
        the same model.  Models that build modules lazily inside
        ``preprocess`` (e.g. ADPA) must make the construction deterministic
        in shape, because restored weights are loaded *after* one preprocess
        call.
        """
        raise NotImplementedError

    def forward(self, cache: Dict[str, object]) -> Tensor:
        """Compute class logits from a cache built by :meth:`preprocess`."""
        raise NotImplementedError

    def row_cache(self, cache: Dict[str, object], rows: np.ndarray) -> Optional[Dict[str, object]]:
        """A cache whose forward yields the logits of ``rows`` only, or ``None``.

        ``rows`` holds sorted, distinct node indices.  A model may slice
        only if each row's logits depend on that row's inputs alone and
        every dropout it draws is shaped ``(n, ...)`` by node, so that
        under :func:`repro.nn.row_subset` its masks are the rows of a
        whole-graph draw.  The returned cache may copy the rows out, or
        hold an index into ``cache``'s own arrays that the forward reads
        them through, which copies nothing.  Models that mix rows (message
        passing, batch statistics) keep this default.
        """
        return None

    # ------------------------------------------------------------------ #
    # Preprocess-cache contract
    # ------------------------------------------------------------------ #
    def signature(self) -> str:
        """Stable identity of this model's *preprocessing configuration*.

        Two models with equal signatures must produce identical
        ``preprocess`` output on identical graphs.  Models constructed via
        :func:`repro.models.registry.create_model` carry their registry name
        and constructor kwargs and get a content-addressed signature;
        hand-constructed models fall back to a per-instance identity, which
        is always safe (never shared, never stale).
        """
        name = getattr(self, "_registry_name", None)
        if name is None:
            # A process-unique token, not id(): addresses are recycled after
            # GC, and a recycled id could silently alias a stale cache entry.
            token = getattr(self, "_signature_token", None)
            if token is None:
                token = next(_SIGNATURE_TOKENS)
                self._signature_token = token
            return f"{type(self).__name__}#{token}"
        kwargs = getattr(self, "_init_kwargs", {})
        return f"{name}:{model_fingerprint(name, kwargs)}"

    def update_preprocess(self, old_graph, new_graph, delta, cache):
        """Incrementally rebuild a preprocess cache after a live graph delta.

        ``cache`` is this model's preprocess output for ``old_graph`` and
        ``new_graph == old_graph.apply_delta(delta)``.  A model that can
        patch the cache for the touched rows returns the new cache — which
        MUST be bit-identical to ``preprocess(new_graph)``, the serving
        layer validates this in tests — and returns ``None`` when it
        cannot (callers then fall back to a full re-preprocess).  The
        default is ``None``: models with globally-coupled preprocessing
        (e.g. ADPA's correlation-guided operator selection) take the
        fallback, which is always correct.
        """
        return None

    def bind_cache(self, cache: Dict[str, object]) -> None:
        """Adopt a preprocess cache computed elsewhere.

        Called when this instance is handed a cache it did not compute — a
        shared :class:`repro.serving.cache.OperatorCache` hit or an on-disk
        spill reload.  Models that build modules lazily inside
        ``preprocess`` (e.g. ADPA) override this to rebuild the same
        architecture from the cache content, so stored weights can be
        loaded afterwards; the default is a no-op.
        """
        return None

    def preprocess_cached(self, graph: DirectedGraph, cache) -> Dict[str, object]:
        """Fetch (or build) the preprocess output through a shared cache.

        ``cache`` is any object with ``get_or_compute(key, factory)`` — in
        practice the LRU behind :class:`repro.serving.cache.OperatorCache`,
        whose ``preprocess`` method delegates here so the key format lives
        in exactly one place.
        """
        return cache.get_or_compute(
            preprocess_key(self, graph), lambda: self.preprocess(graph)
        )

    # ------------------------------------------------------------------ #
    # Convenience inference helpers
    # ------------------------------------------------------------------ #
    def predict_logits(self, graph: DirectedGraph, cache: Optional[Dict[str, object]] = None) -> np.ndarray:
        """Run a forward pass in eval mode and return raw logits as ndarray.

        The forward runs under :func:`repro.nn.no_grad`: its logits are
        bit-identical to a taped forward's, without paying for the tape.
        """
        if cache is None:
            cache = self.preprocess(graph)
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                logits = self.forward(cache)
        finally:
            self.train(was_training)
        return logits.numpy()

    def predict(self, graph: DirectedGraph, cache: Optional[Dict[str, object]] = None) -> np.ndarray:
        """Predicted class index per node."""
        return self.predict_logits(graph, cache).argmax(axis=1)

    @classmethod
    def from_graph(cls, graph: DirectedGraph, **kwargs) -> "NodeClassifier":
        """Instantiate the model with dimensions inferred from ``graph``."""
        return cls(num_features=graph.num_features, num_classes=graph.num_classes, **kwargs)
