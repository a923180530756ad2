"""The :class:`Session` facade: one typed surface for the whole workflow.

The paper's Fig. 1 loop — load a natural digraph, run AMUD guidance, pick
the paradigm, train, export, serve — used to be spread over four
uncoordinated entrypoints.  A :class:`Session` holds the frozen default
configs and hands out immutable-ish handles that chain the steps::

    from repro.api import Session, TrainConfig

    handle = Session(train=TrainConfig(epochs=100)).load("chameleon")
    model = handle.amud().fit()          # guidance-selected model, trained
    model.save("runs/chameleon")         # versioned serving artifact

    restored = Session().restore("runs/chameleon")
    router = Session().serve("runs/chameleon", "runs/texas")  # front door

:class:`GraphHandle` wraps a loaded graph (optionally with its AMUD
decision); :class:`ModelHandle` wraps a trained model bound to the graph it
was trained on.  Both are thin, explicit and serializable through the
artifact layer, so programs, the CLI and a network front-end share exactly
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..amud.guidance import AmudDecision, apply_amud
from ..datasets.synthetic import load_dataset
from ..graph.delta import GraphDelta
from ..graph.digraph import DirectedGraph
from ..graph.transforms import to_undirected
from ..metrics.homophily import homophily_report
from ..models.base import NodeClassifier
from ..models.registry import create_model, get_spec
from ..serving.artifacts import ModelArtifact, restore_model, save_model
from ..serving.engine import InferenceServer
from ..serving.http import HttpServer
from ..serving.router import ShardRouter
from ..training.trainer import Trainer, TrainResult
from .config import (
    AmudConfig,
    ExperimentConfig,
    HttpConfig,
    ServeConfig,
    SweepSpec,
    TrainConfig,
)
from .experiment import execute_repeated, run_sweep
from .report import ExperimentReport, SweepReport

PathLike = Union[str, Path]

#: metadata kind stamped on artifacts exported through :meth:`ModelHandle.save`.
ARTIFACT_KIND = "api-model"


def decision_to_dict(decision: AmudDecision) -> Dict[str, object]:
    """JSON-ready form of an AMUD decision (artifact metadata)."""
    return {
        "score": float(decision.score),
        "keep_directed": bool(decision.keep_directed),
        "threshold": float(decision.threshold),
        "r_squared": {k: float(v) for k, v in decision.r_squared.items()},
        "correlations": {k: float(v) for k, v in decision.correlations.items()},
    }


def decision_from_dict(payload: Dict[str, object]) -> AmudDecision:
    return AmudDecision(
        score=payload["score"],
        keep_directed=payload["keep_directed"],
        threshold=payload["threshold"],
        r_squared=dict(payload.get("r_squared", {})),
        correlations=dict(payload.get("correlations", {})),
    )


def train_result_to_dict(result: TrainResult) -> Dict[str, object]:
    return {
        "train_accuracy": float(result.train_accuracy),
        "val_accuracy": float(result.val_accuracy),
        "test_accuracy": float(result.test_accuracy),
        "best_epoch": int(result.best_epoch),
        "epochs_run": int(result.epochs_run),
    }


def train_result_from_dict(payload: Dict[str, object]) -> TrainResult:
    return TrainResult(
        train_accuracy=payload["train_accuracy"],
        val_accuracy=payload["val_accuracy"],
        test_accuracy=payload["test_accuracy"],
        best_epoch=payload["best_epoch"],
        epochs_run=payload["epochs_run"],
    )


def width_kwargs(model_name: str, hidden: int) -> Dict[str, int]:
    """Constructor width kwargs for one registry model.

    SGC is the one registered model without a ``hidden`` kwarg (a single
    linear map by design); everyone else takes the width.
    """
    return {} if model_name.lower() == "sgc" else {"hidden": hidden}


class Session:
    """Entry point of the public API; holds seeds and default configs.

    A session is cheap — it owns no trained state, only configuration — so
    creating one per request or one per program are both fine.  All
    defaults can be overridden per call on the handles.
    """

    def __init__(
        self,
        seed: int = 0,
        train: Optional[TrainConfig] = None,
        amud: Optional[AmudConfig] = None,
        serve: Optional[ServeConfig] = None,
    ) -> None:
        self.seed = seed
        self.train_config = train if train is not None else TrainConfig()
        self.amud_config = amud if amud is not None else AmudConfig()
        self.serve_config = serve if serve is not None else ServeConfig()

    # ------------------------------------------------------------------ #
    # Data in
    # ------------------------------------------------------------------ #
    def load(self, dataset: str, seed: Optional[int] = None) -> "GraphHandle":
        """Load a registered dataset into a :class:`GraphHandle`."""
        graph = load_dataset(dataset, seed=self.seed if seed is None else seed)
        return GraphHandle(session=self, graph=graph)

    def from_graph(self, graph: DirectedGraph) -> "GraphHandle":
        """Wrap an existing :class:`DirectedGraph` (custom data)."""
        return GraphHandle(session=self, graph=graph)

    # ------------------------------------------------------------------ #
    # Artifacts in
    # ------------------------------------------------------------------ #
    def restore(self, directory: PathLike) -> "ModelHandle":
        """Reload any serving artifact as a ready-to-predict handle.

        Accepts artifacts written by :meth:`ModelHandle.save`, the CLI
        ``export`` command or the removed legacy ``AmudPipeline.save`` —
        the decision / training summary blocks are recovered when present.
        """
        model, cache, artifact, graph = restore_model(directory)
        metadata = artifact.metadata
        decision = (
            decision_from_dict(metadata["decision"]) if "decision" in metadata else None
        )
        train_result = (
            train_result_from_dict(metadata["train_result"])
            if "train_result" in metadata
            else None
        )
        return ModelHandle(
            session=self,
            model=model,
            graph=graph,
            model_name=artifact.model_name,
            decision=decision,
            train_result=train_result,
            artifact=artifact,
            preprocess_cache=cache,
        )

    # ------------------------------------------------------------------ #
    # Experiments
    # ------------------------------------------------------------------ #
    def experiment(self, spec: Union[SweepSpec, Dict[str, object]]) -> SweepReport:
        """Execute a declarative models × datasets × variants sweep.

        ``spec`` is a :class:`SweepSpec` (or a plain mapping parsed from a
        TOML/JSON spec file).  A :class:`SweepSpec` is self-contained — its
        :class:`ExperimentConfig` carries the training protocol, so the
        session's ``train`` default does not apply; a mapping without
        ``train`` settings inherits the session's training config.  Runs
        execute on a bounded worker pool; the report lists cells in the
        spec's canonical order with aggregates bit-identical to serial
        execution.
        """
        if not isinstance(spec, SweepSpec):
            spec = dict(spec)
            if "train" not in spec and "train" not in spec.get("config", {}):
                config = dict(spec.get("config", {}))
                config["train"] = self.train_config
                spec["config"] = config
            spec = SweepSpec.from_dict(spec)
        return run_sweep(spec)

    # ------------------------------------------------------------------ #
    # Serving front door
    # ------------------------------------------------------------------ #
    def serve(
        self,
        *sources: Union["ModelHandle", PathLike],
        config: Optional[ServeConfig] = None,
        cache_dir: Optional[PathLike] = None,
    ) -> ShardRouter:
        """Build a :class:`ShardRouter` over handles and/or artifact dirs.

        The router is returned un-started; use it as a context manager (or
        call ``start()``/``stop()``).  All shards share one operator cache
        and one weights-versioned logit cache.  ``cache_dir`` warms both
        from a :meth:`repro.serving.ShardRouter.spill` directory *before*
        the artifacts load, so a hit skips their preprocessing and, on the
        first request, their forward.
        """
        config = config if config is not None else self.serve_config
        router = ShardRouter(**config.router_kwargs())
        if cache_dir is not None:
            router.warm(cache_dir)
        for source in sources:
            if isinstance(source, ModelHandle):
                router.add_shard(
                    source.model,
                    source.graph,
                    preprocess_cache=source._preprocess_cache,
                )
            else:
                router.add_artifact(source)
        return router

    def serve_http(
        self,
        *sources: Union["ModelHandle", PathLike],
        config: Optional[ServeConfig] = None,
        http: Optional[HttpConfig] = None,
        cache_dir: Optional[PathLike] = None,
    ) -> HttpServer:
        """Build (un-started) the HTTP front door over a :meth:`serve` router.

        Starting the returned :class:`repro.serving.HttpServer` starts the
        underlying router too, and stopping it stops both — one
        ``with session.serve_http(...) as server:`` block owns the whole
        stack.  ``http`` overrides the bind address and limits; it defaults
        to ``config.http`` and then to :class:`HttpConfig`'s defaults.
        """
        config = config if config is not None else self.serve_config
        if http is None:
            http = config.http if config.http is not None else HttpConfig()
        router = self.serve(*sources, config=config, cache_dir=cache_dir)
        return _SessionHttpServer(router, **http.server_kwargs())


class _SessionHttpServer(HttpServer):
    """An :class:`HttpServer` owning its router's lifecycle.

    :meth:`Session.serve_http` builds the router internally, so nobody
    else can start or stop it; binding both lifecycles here keeps the
    public surface to one object.
    """

    def start(self) -> "HttpServer":
        self.router.start()
        try:
            return super().start()
        except BaseException:
            self.router.stop()
            raise

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        try:
            super().stop(timeout)
        finally:
            self.router.stop()


@dataclass
class GraphHandle:
    """A loaded graph, optionally carrying its AMUD decision.

    Handles are cheap views: transformations (:meth:`amud`,
    :meth:`undirected`) return new handles and never mutate the graph.
    """

    session: Session
    graph: DirectedGraph
    decision: Optional[AmudDecision] = None
    #: the config :meth:`amud` decided with; :meth:`fit` reuses it so the
    #: paradigm models of a custom config are not silently dropped.
    amud_config: Optional[AmudConfig] = None

    @property
    def name(self) -> str:
        return self.graph.name

    def homophily(self) -> Dict[str, float]:
        """The homophily profile the AMUD analysis is based on."""
        return homophily_report(self.graph)

    # ------------------------------------------------------------------ #
    # Paradigm choice
    # ------------------------------------------------------------------ #
    def amud(self, config: Optional[AmudConfig] = None) -> "GraphHandle":
        """Run AMUD guidance; returns a handle for the modeled view.

        The returned handle's graph is the directed original (Paradigm II)
        or its undirected transformation (Paradigm I), with the decision
        attached so :meth:`fit` can pick the paradigm's model.
        """
        config = config if config is not None else self.session.amud_config
        modeled, decision = apply_amud(self.graph, threshold=config.threshold)
        return GraphHandle(
            session=self.session, graph=modeled, decision=decision, amud_config=config
        )

    def undirected(self) -> "GraphHandle":
        """The coarse undirected transformation (no AMUD decision)."""
        return GraphHandle(session=self.session, graph=to_undirected(self.graph))

    def apply_delta(self, delta: GraphDelta, *, validate: bool = False) -> "GraphHandle":
        """Apply a live :class:`~repro.graph.GraphDelta`; returns a new handle.

        The mutated graph's fingerprint is maintained incrementally (only
        touched rows re-hashed), so serving caches key it without a full
        rehash.  Any attached AMUD decision is dropped — edge edits can
        change the directed-modeling guidance — re-run :meth:`amud` if the
        paradigm choice should follow the mutation.
        """
        return GraphHandle(
            session=self.session, graph=self.graph.apply_delta(delta, validate=validate)
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        model: Optional[str] = None,
        train: Optional[Union[TrainConfig, Trainer]] = None,
        amud: Optional[AmudConfig] = None,
        seed: Optional[int] = None,
        **model_kwargs,
    ) -> "ModelHandle":
        """Train one model on this handle's graph.

        ``model=None`` follows the AMUD guidance: if no decision is attached
        yet, :meth:`amud` runs first, and the decision's paradigm selects
        ``amud_config.directed_model`` or ``.undirected_model`` — from the
        ``amud=`` argument if given, else the config a previous
        :meth:`amud` call used, else the session default.  An explicit
        registry name trains that model on the graph exactly as it stands.
        ``train`` accepts a frozen :class:`TrainConfig` or a pre-built
        :class:`Trainer` (legacy call sites).
        """
        handle = self
        amud_config = (
            amud
            if amud is not None
            else (self.amud_config if self.amud_config is not None else self.session.amud_config)
        )
        if model is None:
            if handle.decision is None:
                handle = handle.amud(amud_config)
            model = amud_config.model_for(handle.decision.keep_directed)
        else:
            get_spec(model)  # unknown names fail before any training work

        if isinstance(train, Trainer):
            trainer = train
        else:
            config = train if train is not None else self.session.train_config
            trainer = config.build_trainer()

        kwargs = dict(model_kwargs)
        kwargs.setdefault("seed", self.session.seed if seed is None else seed)
        instance = create_model(model, handle.graph, **kwargs)
        train_result = trainer.fit(instance, handle.graph)
        return ModelHandle(
            session=self.session,
            model=instance,
            graph=handle.graph,
            model_name=get_spec(model).name,
            decision=handle.decision,
            train_result=train_result,
        )

    def fit_repeated(
        self,
        model: Optional[str] = None,
        config: Optional[ExperimentConfig] = None,
        seeds: Optional[Sequence[int]] = None,
        train: Optional[Union[TrainConfig, Trainer]] = None,
        amud: Optional[AmudConfig] = None,
        variant: str = "",
        **model_kwargs,
    ) -> ExperimentReport:
        """Train one model over repeated seeds and aggregate (paper protocol).

        Model selection mirrors :meth:`fit` — ``model=None`` follows the
        AMUD guidance.  The seed list, trainer settings and worker bound
        come from ``config`` (default: a fresh :class:`ExperimentConfig`
        whose training settings are the session's); ``seeds`` and ``train``
        override the corresponding config fields, and ``train`` may also be
        a pre-built :class:`Trainer`.  Runs execute on a bounded worker
        pool; aggregation is bit-identical to serial execution.
        """
        handle = self
        amud_config = (
            amud
            if amud is not None
            else (self.amud_config if self.amud_config is not None else self.session.amud_config)
        )
        if model is None:
            if handle.decision is None:
                handle = handle.amud(amud_config)
            model = amud_config.model_for(handle.decision.keep_directed)
        else:
            get_spec(model)

        if config is None:
            config = ExperimentConfig(train=self.session.train_config)
        if seeds is not None:
            config = config.replace(seeds=tuple(seeds))
        trainer: Union[TrainConfig, Trainer] = train if train is not None else config.train

        kwargs = {**config.model_kwargs, **model_kwargs}
        report, _ = execute_repeated(
            model,
            handle.graph,
            seeds=config.seeds,
            train=trainer,
            model_kwargs=kwargs,
            max_workers=config.max_workers,
            variant=variant,
        )
        return report


@dataclass
class ModelHandle:
    """A trained model bound to the graph it models.

    Everything downstream of training hangs off this handle: bit-exact
    prediction, artifact export (:meth:`save`), single-engine serving
    (:meth:`serve`) and registration as a router shard
    (:meth:`Session.serve`).
    """

    session: Session
    model: NodeClassifier
    graph: DirectedGraph
    model_name: str
    decision: Optional[AmudDecision] = None
    train_result: Optional[TrainResult] = None
    artifact: Optional[ModelArtifact] = None
    preprocess_cache: Optional[Dict[str, object]] = None

    @property
    def test_accuracy(self) -> Optional[float]:
        return self.train_result.test_accuracy if self.train_result else None

    @property
    def _preprocess_cache(self) -> Dict[str, object]:
        """The bound graph's preprocess output, computed once per handle."""
        if self.preprocess_cache is None:
            self.preprocess_cache = self.model.preprocess(self.graph)
        return self.preprocess_cache

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict_logits(self, graph: Optional[DirectedGraph] = None) -> np.ndarray:
        """Raw class logits; defaults to the bound graph (cached preprocess)."""
        if graph is None or graph is self.graph:
            return self.model.predict_logits(self.graph, self._preprocess_cache)
        return self.model.predict_logits(graph)

    def predict(self, graph: Optional[DirectedGraph] = None) -> np.ndarray:
        """Predicted class per node; defaults to the bound graph."""
        return self.predict_logits(graph).argmax(axis=1)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: PathLike, metadata: Optional[Dict] = None) -> Path:
        """Export as a versioned serving artifact (weights + config + graph).

        The AMUD decision and training summary (when known) ride along in
        the metadata, so :meth:`Session.restore` round-trips the handle and
        ``repro predict`` works on the directory as-is.
        """
        payload: Dict[str, object] = {"kind": ARTIFACT_KIND}
        if self.decision is not None:
            payload["decision"] = decision_to_dict(self.decision)
        if self.train_result is not None:
            payload["train_result"] = train_result_to_dict(self.train_result)
        if metadata:
            payload.update(metadata)
        return save_model(self.model, directory, metadata=payload, graph=self.graph)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, config: Optional[ServeConfig] = None) -> InferenceServer:
        """A micro-batching engine for this model, cache pre-warmed.

        Returned un-started; use as a context manager.  For several models
        behind one front door, use :meth:`Session.serve` instead.
        """
        config = config if config is not None else self.session.serve_config
        server = InferenceServer(self.model, self.graph, **config.engine_kwargs())
        server.cache.seed(self.model, self.graph, self._preprocess_cache)
        return server
