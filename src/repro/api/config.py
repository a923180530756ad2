"""Frozen configuration objects for the :mod:`repro.api` facade.

Every knob of the load → AMUD → train → serve workflow lives in one of
these immutable dataclasses, so a configuration can be validated once,
shared between threads, logged, and passed through the CLI, programs and a
network front-end without kwargs drift:

* :class:`TrainConfig` — optimisation hyper-parameters (builds a
  :class:`repro.training.Trainer`);
* :class:`AmudConfig` — the AMUD threshold θ and the model the guidance
  selects for each paradigm;
* :class:`ServeConfig` — micro-batching, caching and back-pressure limits
  for :class:`repro.serving.InferenceServer` / :class:`repro.serving.ShardRouter`;
* :class:`ExperimentConfig` — the paper's repeated-trial protocol (seeds,
  trainer settings, model kwargs, worker bound);
* :class:`SweepSpec` — a declarative models × datasets × variants grid
  executed by :meth:`repro.api.Session.experiment`.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..models.registry import get_spec
from ..training.trainer import Trainer


def _validate_model_kwargs(model_name: str, kwargs: Mapping[str, object]) -> None:
    """Fail fast on constructor kwargs the model cannot accept.

    A sweep cell that dies on an unknown kwarg should do so when the spec
    is built, not a thousand training runs into the grid.  Constructors
    taking ``**kwargs`` (e.g. the lazy ADPA factory) cannot be checked
    statically and are skipped.
    """
    spec = get_spec(model_name)
    try:
        parameters = inspect.signature(spec.constructor).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - builtin constructors
        return
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return
    accepted = {p.name for p in parameters}
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise ValueError(
            f"model {spec.name} does not accept constructor kwargs {unknown}; "
            f"accepted: {sorted(accepted - {'num_features', 'num_classes'})}"
        )

#: the paper's experimental protocol: every result is mean ± std over ten
#: repeated seeded trials (Sec. V-A).
DEFAULT_SEEDS: Tuple[int, ...] = tuple(range(10))

#: input-view protocols a sweep cell can request (Sec. V-A conventions).
SWEEP_VIEWS = (
    "natural",  # the digraph exactly as loaded (D-)
    "undirected",  # the coarse undirected transformation (U-)
    "amud",  # the AMUD-regime view of each dataset (Fig. 1 workflow)
    "paper-undirected",  # per-model U-/D- protocol; ADPA fed the U- view
    "paper-directed",  # per-model U-/D- protocol; ADPA fed the D- view
)


@dataclass(frozen=True)
class TrainConfig:
    """Immutable training hyper-parameters; ``build_trainer()`` applies them."""

    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 30
    optimizer: str = "adam"
    verbose: bool = False

    def __post_init__(self) -> None:
        # Trainer re-validates, but failing here pins the error to the
        # config object the caller actually wrote.
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}; expected 'adam' or 'sgd'")

    def build_trainer(self) -> Trainer:
        return Trainer(
            lr=self.lr,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            patience=self.patience,
            optimizer=self.optimizer,
            verbose=self.verbose,
        )

    @classmethod
    def from_trainer(cls, trainer: Trainer) -> "TrainConfig":
        return cls(
            lr=trainer.lr,
            weight_decay=trainer.weight_decay,
            epochs=trainer.epochs,
            patience=trainer.patience,
            optimizer=trainer.optimizer_name,
            verbose=trainer.verbose,
        )

    def replace(self, **changes) -> "TrainConfig":
        """Return a copy with ``changes`` applied (the config is frozen)."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class AmudConfig:
    """The Fig. 1 guidance step: threshold θ and the per-paradigm models."""

    threshold: float = 0.5
    undirected_model: str = "GPRGNN"
    directed_model: str = "ADPA"

    def __post_init__(self) -> None:
        # The guidance score lives in [0, 1], but out-of-range thresholds are
        # a legitimate way to force one paradigm (θ > 1 pins undirected,
        # θ < 0 pins directed); only reject values that compare as nothing.
        if self.threshold != self.threshold:  # NaN
            raise ValueError("threshold must not be NaN")
        # Surface unknown registry names at configuration time, not mid-fit.
        get_spec(self.undirected_model)
        get_spec(self.directed_model)

    def model_for(self, keep_directed: bool) -> str:
        return self.directed_model if keep_directed else self.undirected_model

    def replace(self, **changes) -> "AmudConfig":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class HttpConfig:
    """Bind address and body/time limits for the HTTP front door.

    ``port=0`` asks the OS for a free port (the bound one is published on
    the running :class:`repro.serving.HttpServer`), which is how tests and
    benchmarks avoid collisions.
    """

    host: str = "127.0.0.1"
    port: int = 8100
    max_body_bytes: int = 1 << 20
    request_timeout: float = 60.0

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if self.request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {self.request_timeout}")

    def server_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for :class:`repro.serving.HttpServer`."""
        return {
            "host": self.host,
            "port": self.port,
            "max_body_bytes": self.max_body_bytes,
            "request_timeout": self.request_timeout,
        }

    def replace(self, **changes) -> "HttpConfig":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ServeConfig:
    """Serving limits shared by the single engine and the shard router."""

    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    cache_logits: bool = True
    logit_cache_capacity: int = 32
    #: bound on each engine's request queue (``None`` = unbounded).
    max_pending: Optional[int] = None
    #: cap on in-flight requests across all shards of one router.
    router_max_pending: int = 256
    #: optional HTTP front-door settings; ``Session.serve_http`` uses the
    #: defaults when this is ``None``.
    http: Optional[HttpConfig] = None

    def __post_init__(self) -> None:
        if self.http is not None and not isinstance(self.http, HttpConfig):
            raise TypeError(
                f"http must be an HttpConfig or None, got {type(self.http).__name__}"
            )
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.logit_cache_capacity < 1:
            raise ValueError(
                f"logit_cache_capacity must be >= 1, got {self.logit_cache_capacity}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {self.max_pending}")
        if self.router_max_pending < 1:
            raise ValueError(f"router_max_pending must be >= 1, got {self.router_max_pending}")

    def engine_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for one :class:`InferenceServer`."""
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "cache_logits": self.cache_logits,
            "logit_cache_capacity": self.logit_cache_capacity,
            "max_pending": self.max_pending,
        }

    def router_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for a :class:`ShardRouter`."""
        return {
            "max_pending": self.router_max_pending,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "cache_logits": self.cache_logits,
            "logit_cache_capacity": self.logit_cache_capacity,
            "engine_max_pending": self.max_pending,
        }

    def replace(self, **changes) -> "ServeConfig":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """The repeated-trial protocol: which seeds, how to train, how to run.

    One :class:`ExperimentConfig` describes everything a single experiment
    cell needs beyond the (model, dataset) pair: the seed list (defaulting
    to the paper's ten trials), the frozen training hyper-parameters,
    constructor kwargs applied to every cell, and the bound of the worker
    pool that executes runs (``max_workers=None`` sizes it automatically
    from the CPU count; ``1`` forces serial execution — both produce
    bit-identical aggregates by construction).
    """

    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    train: TrainConfig = TrainConfig()
    model_kwargs: Mapping[str, object] = field(default_factory=dict)
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        seeds = tuple(int(seed) for seed in self.seeds)
        if not seeds:
            raise ValueError("seeds must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds: {seeds}")
        object.__setattr__(self, "seeds", seeds)
        if not isinstance(self.train, TrainConfig):
            raise TypeError(
                f"train must be a TrainConfig, got {type(self.train).__name__}"
            )
        object.__setattr__(self, "model_kwargs", dict(self.model_kwargs))
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 or None, got {self.max_workers}")

    def build_trainer(self) -> Trainer:
        return self.train.build_trainer()

    def quick(self) -> "ExperimentConfig":
        """The one-seed smoke protocol (CI / ``repro experiment --quick``)."""
        return self.replace(
            seeds=(self.seeds[0],),
            train=self.train.replace(
                epochs=min(self.train.epochs, 40),
                patience=min(self.train.patience, 10),
            ),
        )

    def replace(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seeds": list(self.seeds),
            "train": self.train.as_dict(),
            "model_kwargs": dict(self.model_kwargs),
            "max_workers": self.max_workers,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentConfig":
        unknown = set(payload) - {"seeds", "train", "model_kwargs", "max_workers"}
        if unknown:
            raise ValueError(f"unknown ExperimentConfig keys: {sorted(unknown)}")
        train = payload.get("train", {})
        if not isinstance(train, TrainConfig):
            known_train = {field.name for field in dataclass_fields(TrainConfig)}
            unknown_train = set(train) - known_train
            if unknown_train:
                raise ValueError(
                    f"unknown train keys: {sorted(unknown_train)}; "
                    f"expected a subset of {sorted(known_train)}"
                )
            train = TrainConfig(**train)
        return cls(
            seeds=tuple(payload.get("seeds", DEFAULT_SEEDS)),
            train=train,
            model_kwargs=dict(payload.get("model_kwargs", {})),
            max_workers=payload.get("max_workers"),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative models × datasets × variants experiment grid.

    ``variants`` maps a variant label to constructor-kwarg overrides, which
    is how ablation grids (k-order sweeps, attention families, residual
    strengths) are expressed; the default is one unnamed variant with no
    overrides.  ``model_kwargs`` carries per-model constructor overrides
    (looked up by registry name, case-insensitively).  ``view`` selects the
    input-view protocol for every cell — see :data:`SWEEP_VIEWS`.

    The cell order — datasets outermost, then models, then variants — is
    part of the contract: reports list cells in exactly this order no
    matter how the runs were scheduled.
    """

    models: Tuple[str, ...]
    datasets: Tuple[str, ...]
    config: ExperimentConfig = ExperimentConfig()
    view: str = "natural"
    variants: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    model_kwargs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    dataset_seed: int = 0

    def __post_init__(self) -> None:
        models = tuple(str(name) for name in self.models)
        if not models:
            raise ValueError("models must not be empty")
        for name in models:
            get_spec(name)  # unknown registry names fail at spec build time
        object.__setattr__(self, "models", models)

        # Normalised to the registry's lower-case names, matching what
        # load_dataset accepts, so report lookups have one canonical key.
        datasets = tuple(str(name).lower() for name in self.datasets)
        if not datasets:
            raise ValueError("datasets must not be empty")
        from ..datasets.registry import DATASET_CONFIGS

        for name in datasets:
            if name not in DATASET_CONFIGS:
                raise KeyError(
                    f"unknown dataset {name!r}; available: {sorted(DATASET_CONFIGS)}"
                )
        object.__setattr__(self, "datasets", datasets)

        if not isinstance(self.config, ExperimentConfig):
            raise TypeError(
                f"config must be an ExperimentConfig, got {type(self.config).__name__}"
            )
        if self.view not in SWEEP_VIEWS:
            raise ValueError(f"unknown view {self.view!r}; expected one of {SWEEP_VIEWS}")
        variants = self.variants or {"": {}}
        object.__setattr__(
            self,
            "variants",
            {str(label): dict(overrides) for label, overrides in variants.items()},
        )
        object.__setattr__(
            self,
            "model_kwargs",
            {str(name): dict(kwargs) for name, kwargs in self.model_kwargs.items()},
        )
        # Every cell's merged kwargs must be constructible; catching a typo
        # here beats dying mid-grid after hours of training.
        for model in self.models:
            for variant in self.variants:
                merged = self.kwargs_for(model, variant)
                if "seed" in merged:
                    raise ValueError(
                        "model kwargs must not pin 'seed'; the per-trial seed "
                        "comes from the config's seeds list"
                    )
                _validate_model_kwargs(model, merged)

    def cells(self) -> Sequence[Tuple[str, str, str]]:
        """The (dataset, model, variant) triples in canonical order."""
        return [
            (dataset, model, variant)
            for dataset in self.datasets
            for model in self.models
            for variant in self.variants
        ]

    def kwargs_for(self, model: str, variant: str) -> Dict[str, object]:
        """Merged constructor kwargs for one cell.

        Precedence (later wins): config-wide kwargs, per-model kwargs,
        variant overrides.
        """
        merged = dict(self.config.model_kwargs)
        per_model = self.model_kwargs.get(model, self.model_kwargs.get(model.lower()))
        if per_model:
            merged.update(per_model)
        merged.update(self.variants[variant])
        return merged

    def replace(self, **changes) -> "SweepSpec":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "models": list(self.models),
            "datasets": list(self.datasets),
            "config": self.config.as_dict(),
            "view": self.view,
            "variants": {label: dict(kw) for label, kw in self.variants.items()},
            "model_kwargs": {name: dict(kw) for name, kw in self.model_kwargs.items()},
            "dataset_seed": self.dataset_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepSpec":
        """Build a spec from a plain mapping (parsed TOML/JSON).

        The experiment protocol may be given nested under ``config`` or as
        the top-level shortcuts ``seeds`` / ``train`` / ``max_workers``
        (friendlier in TOML).
        """
        payload = dict(payload)
        known = {
            "models", "datasets", "config", "view", "variants", "model_kwargs",
            "dataset_seed", "seeds", "train", "max_workers",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec keys: {sorted(unknown)}")
        config_payload = dict(payload.get("config", {}))
        for shortcut in ("seeds", "train", "max_workers"):
            if shortcut in payload:
                config_payload[shortcut] = payload[shortcut]
        return cls(
            models=tuple(payload.get("models", ())),
            datasets=tuple(payload.get("datasets", ())),
            config=ExperimentConfig.from_dict(config_payload),
            view=payload.get("view", "natural"),
            variants=payload.get("variants", {}),
            model_kwargs=payload.get("model_kwargs", {}),
            dataset_seed=int(payload.get("dataset_seed", 0)),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # pragma: no cover - version-dependent
                raise ValueError(
                    "TOML specs need Python 3.11+ (tomllib); use a JSON spec on "
                    "older interpreters"
                ) from None
            payload = tomllib.loads(text)
        else:
            payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"spec file {path} must contain a table/object at top level")
        return cls.from_dict(payload)
