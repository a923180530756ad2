"""Tests for the observability layer: histograms, trace spans, stats."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.obs import (
    BUCKET_BOUNDS_MS,
    BUCKET_COUNT,
    HistogramStats,
    LatencyHistogram,
    RequestTrace,
    Stats,
    StatsSource,
    TraceBuffer,
    bucket_index,
)


class TestBucketLayout:
    def test_bounds_are_strictly_increasing(self):
        assert all(
            low < high for low, high in zip(BUCKET_BOUNDS_MS, BUCKET_BOUNDS_MS[1:])
        )

    def test_spans_microseconds_to_minutes(self):
        assert BUCKET_BOUNDS_MS[0] == pytest.approx(1e-3)  # 1 µs
        assert BUCKET_BOUNDS_MS[-1] == pytest.approx(1e5)  # 100 s

    def test_bucket_count_includes_overflow(self):
        assert BUCKET_COUNT == len(BUCKET_BOUNDS_MS) + 1

    def test_bucket_index_brackets_the_value(self):
        for value in (1e-4, 1e-3, 0.5, 1.0, 17.3, 999.0, 1e5, 1e7):
            index = bucket_index(value)
            if index < len(BUCKET_BOUNDS_MS):
                assert value <= BUCKET_BOUNDS_MS[index]
            if index > 0:
                assert value > BUCKET_BOUNDS_MS[index - 1]

    def test_overflow_lands_in_last_bucket(self):
        assert bucket_index(float("inf")) == BUCKET_COUNT - 1
        assert bucket_index(10 ** 9) == BUCKET_COUNT - 1


class TestLatencyHistogram:
    def test_empty_stats_are_zero(self):
        stats = LatencyHistogram().stats()
        assert stats.count == 0
        assert stats.mean_ms == 0.0
        assert stats.p50_ms == 0.0
        assert stats.p99_ms == 0.0
        assert stats.max_ms == 0.0

    def test_record_and_quantiles(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):  # 1..100 ms
            histogram.record(float(value))
        stats = histogram.stats()
        assert stats.count == 100
        assert stats.mean_ms == pytest.approx(50.5)
        assert stats.min_ms == pytest.approx(1.0)
        assert stats.max_ms == pytest.approx(100.0)
        # Log-bucketed quantiles are interpolated: ~26% bucket width caps
        # the relative error far below that in practice.
        assert stats.p50_ms == pytest.approx(50.0, rel=0.15)
        assert stats.p95_ms == pytest.approx(95.0, rel=0.15)
        assert stats.p99_ms == pytest.approx(99.0, rel=0.15)
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms

    def test_quantiles_clamped_to_observed_range(self):
        histogram = LatencyHistogram()
        histogram.record(5.0)
        stats = histogram.stats()
        assert stats.p50_ms == pytest.approx(5.0)
        assert stats.p99_ms == pytest.approx(5.0)

    def test_record_seconds_converts(self):
        histogram = LatencyHistogram()
        histogram.record_seconds(0.25)
        assert histogram.stats().max_ms == pytest.approx(250.0)

    def test_memory_is_constant(self):
        histogram = LatencyHistogram()
        for value in np.random.default_rng(0).uniform(0.01, 1000.0, size=10_000):
            histogram.record(float(value))
        stats = histogram.stats()
        assert stats.count == 10_000
        assert len(stats.counts) == BUCKET_COUNT  # bounded, not a sample list

    def test_merged_equals_union(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        union = LatencyHistogram()
        rng = np.random.default_rng(1)
        for value in rng.uniform(0.1, 100.0, size=500):
            left.record(float(value))
            union.record(float(value))
        for value in rng.uniform(10.0, 5000.0, size=300):
            right.record(float(value))
            union.record(float(value))
        merged = HistogramStats.merged([left.stats(), right.stats()])
        expected = union.stats()
        assert merged.count == expected.count
        assert merged.sum_ms == pytest.approx(expected.sum_ms)
        assert merged.min_ms == pytest.approx(expected.min_ms)
        assert merged.max_ms == pytest.approx(expected.max_ms)
        assert merged.counts == expected.counts
        assert merged.p99_ms == pytest.approx(expected.p99_ms)

    def test_merged_of_nothing_is_empty(self):
        assert HistogramStats.merged([]).count == 0

    def test_concurrent_records_are_not_lost(self):
        histogram = LatencyHistogram()

        def hammer():
            for _ in range(1000):
                histogram.record(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.stats().count == 8000

    def test_snapshot_matches_stats_protocol(self):
        histogram = LatencyHistogram()
        histogram.record(3.0)
        assert histogram.snapshot() == histogram.stats().as_dict()


class TestStatsProtocolNesting:
    def test_histogram_embeds_in_a_stats_dataclass(self):
        @dataclass
        class Wrapped(Stats):
            derived = ("p99_ms",)

            requests: int = 0
            latency: HistogramStats = field(default_factory=HistogramStats)

            @property
            def p99_ms(self) -> float:
                return self.latency.p99_ms

        histogram = LatencyHistogram()
        histogram.record(4.0)
        snapshot = Wrapped(requests=1, latency=histogram.stats()).as_dict()
        assert snapshot["requests"] == 1
        assert snapshot["latency"]["count"] == 1
        assert snapshot["p99_ms"] == pytest.approx(4.0, rel=0.01)
        # Floats are rounded like every other Stats snapshot.
        assert isinstance(snapshot["latency"]["counts"], list)

    def test_source_snapshot_roundtrip(self):
        class Source(StatsSource):
            def stats(self):
                histogram = LatencyHistogram()
                histogram.record(2.0)
                return histogram.stats()

        assert Source().snapshot() == Source().stats().as_dict()


class TestStatsProtocol:
    def test_every_stats_source_snapshot_matches_as_dict(self, homophilous_graph):
        from repro.models import create_model
        from repro.serving import InferenceServer, LRUCache, OperatorCache

        model = create_model("MLP", homophilous_graph, seed=0)
        server = InferenceServer(model, homophilous_graph)
        sources = [LRUCache(capacity=2), OperatorCache(), server]
        for source in sources:
            assert isinstance(source, StatsSource)
            assert isinstance(source.stats(), Stats)
            assert source.snapshot() == source.stats().as_dict()

    def test_server_snapshot_nests_component_dicts(self, homophilous_graph):
        from repro.models import create_model
        from repro.serving import InferenceServer

        model = create_model("MLP", homophilous_graph, seed=0)
        snapshot = InferenceServer(model, homophilous_graph).snapshot()
        assert snapshot["cache"]["hits"] == 0
        assert snapshot["logit_cache"]["capacity"] > 0

    def test_lru_entries_lists_pairs(self):
        from repro.serving import LRUCache

        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.entries() == [("a", 1), ("b", 2)]


class TestRequestTrace:
    def test_spans_sum_to_total(self):
        trace = RequestTrace(started_at=100.0)
        trace.mark("queue", 100.010)
        trace.mark("cache", 100.012)
        trace.mark("forward", 100.050)
        trace.mark("deliver", 100.051)
        spans = trace.spans()
        assert list(spans) == ["queue", "cache", "forward", "deliver"]
        assert sum(spans.values()) == pytest.approx(trace.total_ms)
        assert spans["forward"] == pytest.approx(38.0, rel=1e-6)

    def test_duplicate_stage_folds(self):
        trace = RequestTrace(started_at=0.0)
        trace.mark("queue", 0.001)
        trace.mark("queue", 0.003)
        assert trace.spans() == {"queue": pytest.approx(3.0)}

    def test_as_dict_spans_sum_to_total_after_rounding(self):
        trace = RequestTrace(started_at=0.0)
        trace.mark("queue", 0.0101010101)
        trace.mark("deliver", 0.0202020202)
        payload = trace.as_dict()
        assert sum(payload["spans"].values()) == pytest.approx(
            payload["total_ms"], abs=1e-3
        )

    def test_annotations_ride_along(self):
        trace = RequestTrace()
        trace.annotate("nodes", 7)
        trace.mark("deliver")
        assert trace.as_dict()["meta"] == {"nodes": 7}


class TestTraceBuffer:
    def test_bounded_and_most_recent_first(self):
        buffer = TraceBuffer(capacity=3)
        for index in range(5):
            buffer.append({"id": index})
        assert len(buffer) == 3
        assert [entry["id"] for entry in buffer.snapshot()] == [4, 3, 2]
        assert [entry["id"] for entry in buffer.snapshot(limit=2)] == [4, 3]

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_clear(self):
        buffer = TraceBuffer()
        buffer.append({"id": 1})
        buffer.clear()
        assert buffer.snapshot() == []


class TestEngineIntegration:
    """The engine populates histograms and traces end to end."""

    @pytest.fixture(scope="class")
    def served(self, homophilous_graph):
        from repro.models.registry import create_model
        from repro.serving import InferenceServer
        from repro.training import Trainer

        model = create_model("MLP", homophilous_graph, seed=0, hidden=8)
        Trainer(epochs=2, patience=5).fit(model, homophilous_graph)
        server = InferenceServer(model, homophilous_graph, max_wait_ms=0.0)
        with server:
            for _ in range(5):
                server.predict(node_ids=[0, 1])
            stats = server.stats()
            traces = server.recent_traces()
        return stats, traces

    def test_latency_histogram_populated(self, served):
        stats, _ = served
        assert stats.latency.count == 5
        assert stats.p50_latency_ms > 0
        assert stats.p50_latency_ms <= stats.p95_latency_ms <= stats.p99_latency_ms
        # The legacy scalar fields now derive from the histogram.
        assert stats.mean_latency_ms == pytest.approx(stats.latency.mean_ms)
        assert stats.max_latency_ms == pytest.approx(stats.latency.max_ms)

    def test_snapshot_nests_the_histogram(self, served):
        stats, _ = served
        snapshot = stats.as_dict()
        assert snapshot["latency"]["count"] == 5
        assert snapshot["p50_latency_ms"] == snapshot["latency"]["p50_ms"]

    def test_traces_cover_every_stage(self, served):
        _, traces = served
        assert len(traces) == 5
        newest = traces[0]
        assert set(newest["spans"]) == {"queue", "cache", "forward", "deliver"}
        assert sum(newest["spans"].values()) == pytest.approx(
            newest["total_ms"], abs=1e-3
        )
        assert newest["meta"]["outcome"] == "ok"
        assert newest["meta"]["nodes"] == 2
        assert newest["meta"]["path"] in ("memoised", "eager")

    def test_operator_cache_records_preprocess_latency(self, homophilous_graph):
        from repro.models.registry import create_model
        from repro.serving import OperatorCache

        model = create_model("MLP", homophilous_graph, seed=0, hidden=8)
        cache = OperatorCache()
        cache.preprocess(model, homophilous_graph)
        cache.preprocess(model, homophilous_graph)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.preprocess_latency.count == 2
        assert cache.snapshot()["preprocess_latency"]["count"] == 2
