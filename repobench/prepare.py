"""Untimed preparation: train and save what the workloads serve.

``run.py`` runs this once per source version, in a child process so the
training never shows in a run's memory high-water mark::

    PYTHONPATH=src python3 repobench/prepare.py --out DIR [--size full|tiny]

It saves MLP artifacts on texas and chameleon and an ADPA (hidden 64,
K=3) artifact on the ogbn-arxiv stand-in for hot_http and cluster_http;
an SGC (K=2) artifact on a DSBM graph for churn (10k nodes at full size,
a third of benchmarks/bench_delta.py's graph: on that one, churn's mean
read latency moved by a third between runs on a shared two-core host, on
this one by a twentieth); and the operator and compiled-program caches
of the three front-door artifacts, spilled into the directory
cluster_http warm-starts from.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api import Session, TrainConfig
from repro.graph.generators import DSBMConfig, directed_sbm
from repro.graph.splits import ratio_split

#: artifact directories, read back by workloads.py.
FRONT_DOOR = ("texas-mlp", "chameleon-mlp", "arxiv-adpa")
CHURN = "churn-sgc"
CLUSTER_CACHE = "cluster-cache"

#: per size: churn graph nodes, then the epochs of the MLP and ADPA artifacts.
SIZES = {"full": (10_000, 100, 40), "tiny": (2_000, 10, 3)}


def churn_graph(nodes: int):
    config = DSBMConfig(
        num_nodes=nodes,
        num_classes=8,
        avg_degree=10.0,
        feature_dim=64,
        homophily=0.6,
        directional_asymmetry=0.3,
        feature_signal=0.5,
        name=f"churn-dsbm-{nodes}",
    )
    return ratio_split(directed_sbm(config, seed=0), train_ratio=0.6, val_ratio=0.2, seed=0)


def trained_for(epochs: int) -> Session:
    return Session(train=TrainConfig(epochs=epochs, patience=epochs))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Prepare the benchmark's artifacts.")
    parser.add_argument("--out", required=True, help="directory to create")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True)
    nodes, mlp_epochs, adpa_epochs = SIZES[args.size]

    texas, chameleon, arxiv = (out / name for name in FRONT_DOOR)
    trained_for(mlp_epochs).load("texas").fit("MLP").save(texas)
    trained_for(mlp_epochs).load("chameleon").fit("MLP").save(chameleon)
    trained_for(adpa_epochs).load("ogbn-arxiv").fit("ADPA", hidden=64, num_steps=3).save(arxiv)
    trained_for(3).from_graph(churn_graph(nodes)).fit("SGC", num_steps=2).save(out / CHURN)

    # One answer per shard compiles its program; then both caches spill.
    router = Session().serve(str(texas), str(chameleon), str(arxiv))
    with router:
        for info in router.shards():
            router.predict([0], shard=info.name, timeout=120)
    router.operator_cache.spill(out / CLUSTER_CACHE)
    programs = getattr(router, "trace_cache", None)
    if programs is not None:
        programs.spill(out / CLUSTER_CACHE / "traces")


if __name__ == "__main__":
    main()
