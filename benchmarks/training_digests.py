"""Digest a fixed grid of training runs, one line per fit.

Every registry model, plus ADPA's gate, recursive, jk and none DP attention
families, is trained for 30 epochs on the texas, chameleon and coraml
stand-ins, on their natural and undirected views, with model seeds 0 and 1.
Each fit prints::

    <model> <dataset> <view> <seed> <digest>

where the digest is a blake2b hash over the trained state dict's bytes
(names, dtypes, shapes, values), the loss, train-accuracy and
val-accuracy histories, the three final accuracies and the best epoch.
Two checkouts train bit for bit alike on the grid exactly when their
outputs are equal, so a change that claims bitwise-unchanged training is
checked with one ``diff``::

    PYTHONPATH=src python benchmarks/training_digests.py > after.txt
    # the same command in the other checkout, into before.txt
    diff before.txt after.txt

Compare outputs from one host and one BLAS configuration: a different
BLAS build or thread count may round a matrix product differently.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.datasets import load_dataset
from repro.graph.transforms import to_undirected
from repro.models.registry import available_models, create_model
from repro.training import Trainer

DATASETS = ("texas", "chameleon", "coraml")
VIEWS = ("natural", "undirected")
SEEDS = (0, 1)
EPOCHS = 30
#: ADPA's DP attention families other than its default ("original").
ADPA_FAMILIES = ("gate", "recursive", "jk", "none")


def configurations():
    """``(label, registry name, constructor kwargs)`` for every model in the grid."""
    for name in available_models():
        yield name, name, {}
    for family in ADPA_FAMILIES:
        yield f"ADPA/{family}", "ADPA", {"dp_attention": family}


def fit_digest(model, result) -> str:
    """The hex digest of one fit's trained state and history."""
    digest = hashlib.blake2b(digest_size=16)
    for name, value in sorted(model.state_dict().items()):
        value = np.ascontiguousarray(value)
        digest.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    for key in ("loss", "train_acc", "val_acc"):
        digest.update(key.encode())
        digest.update(np.asarray(result.history[key], dtype=np.float64).tobytes())
    accuracies = (result.train_accuracy, result.val_accuracy, result.test_accuracy)
    digest.update(np.asarray(accuracies, dtype=np.float64).tobytes())
    digest.update(f"best_epoch={result.best_epoch}".encode())
    return digest.hexdigest()


def main() -> int:
    for dataset in DATASETS:
        natural = load_dataset(dataset)
        graphs = {"natural": natural, "undirected": to_undirected(natural)}
        for label, name, kwargs in configurations():
            for view in VIEWS:
                for seed in SEEDS:
                    model = create_model(name, graphs[view], seed=seed, **kwargs)
                    result = Trainer(epochs=EPOCHS, patience=EPOCHS).fit(model, graphs[view])
                    print(label, dataset, view, seed, fit_digest(model, result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
