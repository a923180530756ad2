"""Serving quickstart: train, export, reload and serve under load.

Usage::

    python examples/serving_quickstart.py [dataset-name]

The script walks the full serving lifecycle through the public API
(:class:`repro.api.Session`):

1. fit the AMUD-guided model and export it as a versioned artifact
   (weights ``.npz`` + config/decision JSON + the modeled graph);
2. restore the artifact as a fresh process would and verify the predictions
   are bit-identical;
3. serve the restored model through a one-shard router (the micro-batching
   engine behind a bounded slot pool) and fire concurrent node-subset
   requests at it, printing latency, batch and cache statistics.

For multiple artifacts behind one front door (shard routing, asyncio), see
``examples/api_quickstart.py``.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time

import numpy as np

from repro.api import ServeConfig, Session, TrainConfig


def main(dataset_name: str = "chameleon") -> None:
    session = Session(
        seed=0,
        train=TrainConfig(epochs=100, patience=20),
        serve=ServeConfig(max_wait_ms=2.0),
    )
    handle = session.load(dataset_name)
    graph = handle.graph
    print(f"Loaded {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges")
    print(f"graph fingerprint: {graph.fingerprint()}")

    model = handle.amud().fit()
    print(f"\nAMUD -> {model.decision.modeling}; trained {model.model_name} "
          f"(test accuracy {model.test_accuracy:.4f})")

    with tempfile.TemporaryDirectory() as directory:
        model.save(directory)
        print(f"exported artifact to {directory}")

        restored = session.restore(directory)
        expected = restored.predict()
        exact = bool(np.array_equal(model.predict(), expected))
        print(f"fresh-process reload reproduces predictions exactly: {exact}")

        router = session.serve(restored)

        def client(seed: int, rounds: int = 25) -> None:
            rng = np.random.default_rng(seed)
            n = restored.graph.num_nodes
            for _ in range(rounds):
                ids = rng.choice(n, size=min(16, n), replace=False)
                predictions = router.predict(node_ids=ids, timeout=60)
                assert np.array_equal(predictions, expected[ids])

        print(f"\nserving {restored.model_name} with 4 concurrent clients ...")
        with router:
            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            (stats,) = router.stats().shards.values()

        print(f"served {stats.requests} requests in {elapsed:.3f}s "
              f"({stats.requests / elapsed:.0f} req/s)")
        print(f"micro-batching: {stats.batches} batches, {stats.forwards} forwards, "
              f"mean batch size {stats.mean_batch_size:.1f}")
        print(f"latency: mean {stats.mean_latency_ms:.2f} ms, max {stats.max_latency_ms:.2f} ms")
        print(f"operator cache: {stats.cache.as_dict()}")
        print(f"logit cache:    {stats.logit_cache.as_dict()}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "chameleon")
