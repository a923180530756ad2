"""The entry points repobench's tracer wraps still exist under their names.

``repobench/tracing.py::install`` wraps each of them to time one layer,
and silently skips a name it cannot find, so a rename would make that
layer's per-layer metric read 0 instead of failing.  Its wrapper only
patches an attribute the owner defines itself, so that is what is checked
here.  The trace-compiler names it also lists (``repro.serving.trace``)
belong to a deleted subsystem and are not expected.
"""

import importlib

import pytest

TRACED = [
    ("repro.serving.router", None, "restore_model"),
    ("repro.serving.router", "ShardRouter", "asubmit_ticket"),
    ("repro.serving.cache", "OperatorCache", "preprocess"),
    ("repro.adpa.model", None, "build_dp_operators"),
    ("repro.adpa.model", None, "propagate_features"),
    ("repro.adpa.propagation", None, "directed_pattern_operators"),
    ("repro.graph.digraph", "DirectedGraph", "apply_delta"),
    ("repro.nn.tensor", "Tensor", "backward"),
    ("repro.nn.optim", "Adam", "step"),
    ("repro.nn.optim", "SGD", "step"),
    ("repro.training.trainer", "Trainer", "fit"),
    ("repro.api.session", None, "apply_amud"),
    ("repro.cluster.pool", "WorkerPool", "call"),
    ("repro.cluster.pool", "WorkerPool", "start"),
]


@pytest.mark.parametrize(
    "module, owner, attr", TRACED, ids=[".".join(filter(None, entry)) for entry in TRACED]
)
def test_traced_entry_point_exists(module, owner, attr):
    name = ".".join(filter(None, (module, owner, attr)))
    target = importlib.import_module(module)
    if owner is not None:
        target = vars(target).get(owner)
        assert isinstance(target, type), f"{name}: {module}.{owner} is gone"
    assert callable(vars(target).get(attr)), f"{name} is gone"
