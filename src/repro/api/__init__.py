"""repro.api — the typed public facade over the whole reproduction.

One documented way to drive the system end to end::

    from repro.api import Session, SweepSpec

    model = Session().load("chameleon").amud().fit()  # guidance-selected, trained
    model.save("runs/chameleon")
    router = Session().serve(model, "runs/texas")     # handles and/or artifact dirs

    cell = Session().load("texas").fit_repeated("MLP", hidden=16)  # mean ± std
    report = Session().experiment(                                 # full grid
        SweepSpec(models=("MLP", "GPRGNN"), datasets=("texas", "cornell"))
    )
    report.save("runs/report.json")

See :mod:`repro.api.session` for the Session / handle semantics,
:mod:`repro.api.config` for the frozen configuration dataclasses and
:mod:`repro.api.report` for the typed experiment reports.
"""

from .config import (
    DEFAULT_SEEDS,
    SWEEP_VIEWS,
    AmudConfig,
    ExperimentConfig,
    HttpConfig,
    ServeConfig,
    SweepSpec,
    TrainConfig,
)
from ..graph.delta import GraphDelta
from .experiment import (
    execute_repeated,
    execute_single,
    resolve_view,
    run_sweep,
    shard_cells,
)
from .report import ExperimentReport, RunReport, SweepReport
from .session import (
    ARTIFACT_KIND,
    GraphHandle,
    ModelHandle,
    Session,
    decision_from_dict,
    decision_to_dict,
    train_result_from_dict,
    train_result_to_dict,
    width_kwargs,
)

__all__ = [
    "Session",
    "GraphHandle",
    "GraphDelta",
    "ModelHandle",
    "TrainConfig",
    "AmudConfig",
    "ServeConfig",
    "HttpConfig",
    "ExperimentConfig",
    "SweepSpec",
    "RunReport",
    "ExperimentReport",
    "SweepReport",
    "DEFAULT_SEEDS",
    "SWEEP_VIEWS",
    "ARTIFACT_KIND",
    "width_kwargs",
    "resolve_view",
    "execute_single",
    "execute_repeated",
    "run_sweep",
    "shard_cells",
    "decision_to_dict",
    "decision_from_dict",
    "train_result_to_dict",
    "train_result_from_dict",
]
