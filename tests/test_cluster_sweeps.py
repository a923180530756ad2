"""Distributed sweeps: deterministic sharding and bit-identical merges."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentReport, SweepReport, SweepSpec, run_sweep, shard_cells
from repro.cluster import (
    CONNECT_PLACEHOLDER,
    ShardReport,
    WorkerPool,
    merge_shard_files,
    merge_shard_reports,
    run_sweep_on_pool,
    run_sweep_shard,
    spec_hash,
    worker_connect_command,
)


@pytest.fixture(scope="module")
def spec():
    quick = SweepSpec(models=("MLP", "GCN"), datasets=("texas", "cornell"))
    return quick.replace(config=quick.config.quick())


@pytest.fixture(scope="module")
def serial(spec):
    return run_sweep(spec).canonical()


@pytest.fixture(scope="module")
def shards(spec):
    return [run_sweep_shard(spec, index, 2) for index in range(2)]


class TestShardCells:
    def test_partition_is_exact(self, spec):
        total = len(spec.cells())
        owned = [shard_cells(spec, index, 3) for index in range(3)]
        flat = sorted(i for part in owned for i in part)
        assert flat == list(range(total))

    def test_bad_coordinates_rejected(self, spec):
        with pytest.raises(ValueError):
            shard_cells(spec, 2, 2)
        with pytest.raises(ValueError):
            shard_cells(spec, -1, 2)
        with pytest.raises(ValueError):
            shard_cells(spec, 0, 0)

    def test_spec_hash_tracks_content_not_order(self, spec):
        payload = spec.as_dict()
        reordered = dict(reversed(list(payload.items())))
        assert spec_hash(payload) == spec_hash(reordered)
        changed = dict(payload)
        changed["models"] = list(changed["models"]) + ["GPRGNN"]
        assert spec_hash(changed) != spec_hash(payload)


class TestMerge:
    def test_two_shards_merge_bit_identical_to_serial(self, spec, serial, shards):
        merged = merge_shard_reports(shards)
        assert merged.to_json(indent=2) == serial.to_json(indent=2)

    def test_tcp_pool_sweep_merges_bit_identical_to_serial(self, spec, serial, tmp_path):
        """The ``experiment --listen`` fan-out over two connect-back workers."""
        secret_file = tmp_path / "secret"
        secret_file.write_text("s3cret\n")
        command = worker_connect_command(CONNECT_PLACEHOLDER, str(secret_file))
        with WorkerPool(
            2, listen="127.0.0.1:0", secret="s3cret", spawn_commands=[command, command]
        ) as pool:
            merged = run_sweep_on_pool(pool, spec, 2)
            transports = {entry["transport"] for entry in pool.stats().workers.values()}
        assert transports == {"tcp"}
        assert merged.to_json(indent=2) == serial.to_json(indent=2)

    def test_single_shard_merge_is_the_identity(self, spec, serial):
        whole = run_sweep_shard(spec, 0, 1)
        merged = merge_shard_reports([whole])
        assert merged.to_json() == serial.to_json()

    def test_merge_order_does_not_matter(self, serial, shards):
        merged = merge_shard_reports(list(reversed(shards)))
        assert merged.to_json() == serial.to_json()

    def test_overlapping_shards_rejected(self, shards):
        with pytest.raises(ValueError, match="overlapping"):
            merge_shard_reports([shards[0], shards[0]])

    def test_missing_shard_detected_by_index(self, shards):
        with pytest.raises(ValueError, match=r"missing shard\(s\) \[1\]"):
            merge_shard_reports([shards[0]])

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            merge_shard_reports([])

    def test_foreign_spec_rejected_by_hash(self, spec, shards):
        other_spec = spec.replace(models=("MLP",))
        foreign = run_sweep_shard(other_spec, 1, 2)
        with pytest.raises(ValueError, match="different spec"):
            merge_shard_reports([shards[0], foreign])

    def test_shard_count_mismatch_rejected(self, spec, shards):
        lone = run_sweep_shard(spec, 0, 3)
        with pytest.raises(ValueError, match="shard_count"):
            merge_shard_reports([shards[1], lone])

    def test_tampered_cell_indices_rejected(self, shards):
        shard = shards[0]
        wrong = ShardReport(
            spec=shard.spec,
            shard_index=shard.shard_index,
            shard_count=shard.shard_count,
            cell_indices=tuple(reversed(shard.cell_indices)),
            cells=shard.cells,
        )
        with pytest.raises(ValueError, match="deterministic partition"):
            merge_shard_reports([wrong, shards[1]])

    def test_keep_timings_preserves_measured_wall_clock(self, shards):
        merged = merge_shard_reports(shards, canonical=False)
        assert any(
            run.fit_seconds > 0 for cell in merged.cells for run in cell.runs
        )
        canonical = merge_shard_reports(shards)
        assert all(
            run.fit_seconds == 0.0 and run.preprocess_seconds == 0.0
            for cell in canonical.cells
            for run in cell.runs
        )


class TestShardReportFormat:
    def test_save_load_round_trip(self, shards, tmp_path):
        path = shards[0].save(tmp_path / "shard0.json")
        reloaded = ShardReport.load(path)
        assert reloaded.to_json() == shards[0].to_json()

    def test_merge_from_files_matches_in_memory(self, serial, shards, tmp_path):
        paths = [
            shard.save(tmp_path / f"shard{shard.shard_index}.json")
            for shard in shards
        ]
        assert merge_shard_files(paths).to_json() == serial.to_json()

    def test_merged_json_round_trips_through_sweep_report(self, serial, shards):
        merged = merge_shard_reports(shards)
        reparsed = SweepReport.from_json(merged.to_json())
        assert reparsed.to_json() == merged.to_json()
        assert all(isinstance(cell, ExperimentReport) for cell in reparsed.cells)

    def test_version_gate_rejects_future_formats(self, shards):
        payload = json.loads(shards[0].to_json())
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            ShardReport.from_dict(payload)

    def test_altered_spec_rejected_by_stored_hash(self, shards):
        payload = json.loads(shards[0].to_json())
        payload["spec"]["models"] = ["MLP"]
        with pytest.raises(ValueError, match="does not match"):
            ShardReport.from_dict(payload)

    def test_mismatched_cells_and_indices_rejected(self, shards):
        shard = shards[0]
        with pytest.raises(ValueError, match="cell"):
            ShardReport(
                spec=shard.spec,
                shard_index=0,
                shard_count=2,
                cell_indices=shard.cell_indices[:-1],
                cells=shard.cells,
            )
