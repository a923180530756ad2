"""Public-API quickstart: the whole Fig. 1 workflow through one facade.

Usage::

    python examples/api_quickstart.py [dataset-name ...]

Everything goes through :class:`repro.api.Session` — no direct engine or
artifact wiring.  The script

1. loads one or more datasets and runs AMUD guidance on each;
2. trains the guidance-selected model per dataset (frozen
   :class:`TrainConfig`);
3. exports each trained model as a versioned serving artifact and restores
   it bit-exactly;
4. stands up the :class:`repro.serving.ShardRouter` front door over all
   artifacts and serves concurrent sync *and* asyncio traffic against it.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.api import ServeConfig, Session, TrainConfig


def main(dataset_names: list) -> None:
    session = Session(
        seed=0,
        train=TrainConfig(epochs=100, patience=20),
        serve=ServeConfig(max_wait_ms=2.0, router_max_pending=128),
    )

    handles = []
    for name in dataset_names:
        guided = session.load(name).amud()
        print(f"{name}: AMUD score {guided.decision.score:.3f} "
              f"-> model as {guided.decision.modeling}")
        model = guided.fit()
        print(f"  trained {model.model_name}  test accuracy {model.test_accuracy:.4f}")
        handles.append(model)

    with tempfile.TemporaryDirectory() as root:
        directories = []
        for model in handles:
            directory = Path(root) / model.graph.name
            model.save(directory)
            restored = session.restore(directory)
            exact = bool(np.array_equal(model.predict(), restored.predict()))
            print(f"{model.graph.name}: artifact restores bit-exactly: {exact}")
            directories.append(directory)

        router = session.serve(*directories)
        expected = {model.graph.name: model.predict() for model in handles}
        with router:
            # Synchronous path: route by graph fingerprint.
            for model in handles:
                ids = np.arange(min(8, model.graph.num_nodes))
                predictions = router.predict(node_ids=ids, graph=model.graph)
                assert np.array_equal(predictions, expected[model.graph.name][ids])

            # Async path: many concurrent requests through the same door.
            # Each submits on the event loop (a full router would raise
            # ServerOverloaded at once) and awaits its completed ticket.
            async def drive() -> int:
                tasks = [
                    router.asubmit_ticket(
                        node_ids=[i % model.graph.num_nodes], graph=model.graph
                    )
                    for model in handles
                    for i in range(16)
                ]
                tickets = await asyncio.gather(*tasks)
                for ticket in tickets:
                    ticket.result(timeout=0)  # raises the request's failure, if any
                return len(tickets)

            completed = asyncio.run(drive())
            stats = router.stats()

        print(f"\nfront door served {stats.submitted} requests "
              f"({completed} of them via asyncio) across {len(directories)} shards")
        for shard_name, shard_stats in stats.as_dict()["shards"].items():
            print(f"  {shard_name}: {shard_stats['requests']} requests, "
                  f"mean latency {shard_stats['mean_latency_ms']} ms")


if __name__ == "__main__":
    names = sys.argv[1:] or ["texas", "cornell", "chameleon"]
    main(names)
