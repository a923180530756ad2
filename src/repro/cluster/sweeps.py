"""Distributed sweeps: shard a :class:`SweepSpec`, merge the reports.

The contract is bit-identity: ``N`` shard runs merged back together must
produce exactly the serial report (canonical form — wall-clock timing
fields zeroed, see :meth:`repro.api.SweepReport.canonical`).  Three
properties make that true by construction rather than by luck:

1. sharding is a pure function of the spec — cell ``i`` of
   :meth:`SweepSpec.cells` belongs to shard ``i % shard_count``
   (:func:`repro.api.experiment.shard_cells`) — so the partition needs no
   coordinator and the merge can recompute it for validation;
2. cells are never split across shards, so each cell's seed runs execute
   and aggregate inside one process in the exact serial order;
3. every run is a deterministic function of (model, view, seed, kwargs).

A :class:`ShardReport` wraps one shard's cells with everything the merge
needs to refuse quietly-wrong input: the report format version, the full
spec, a content hash of the spec, and the claimed shard coordinates and
cell indices.  :func:`merge_shard_reports` rejects loudly on version or
spec-hash mismatch, overlapping shards, missing shards, and cell indices
that disagree with the deterministic partition.

:func:`run_sweep_on_pool` is the fan-out behind ``repro experiment
--listen``: every shard runs side by side on a :class:`WorkerPool`
worker, and the shard reports merge through the same validated path.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.config import SweepSpec
from ..api.experiment import run_sweep, shard_cells
from ..api.report import REPORT_FORMAT_VERSION, ExperimentReport, SweepReport

if TYPE_CHECKING:
    from .pool import WorkerPool

PathLike = Union[str, Path]

#: the ``kind`` field distinguishing shard payloads from full reports.
SHARD_REPORT_KIND = "shard-report"


def spec_hash(spec: Union[SweepSpec, Mapping[str, object]]) -> str:
    """Content hash of a spec; two runs merge only if these agree.

    Hashes the canonical JSON of ``SweepSpec.as_dict()`` so logically
    equal specs hash equal regardless of dict insertion order, and any
    difference — one extra seed, one changed learning rate — splits the
    hash and is rejected at merge time.
    """
    payload = spec.as_dict() if isinstance(spec, SweepSpec) else dict(spec)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardReport:
    """One shard's cells plus the metadata the merge validates against."""

    spec: Dict[str, object]
    shard_index: int
    shard_count: int
    cell_indices: Tuple[int, ...]
    cells: Tuple[ExperimentReport, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", dict(self.spec))
        object.__setattr__(
            self, "cell_indices", tuple(int(index) for index in self.cell_indices)
        )
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cell_indices) != len(self.cells):
            raise ValueError(
                f"shard {self.shard_index} claims {len(self.cell_indices)} cell "
                f"indices but carries {len(self.cells)} cells"
            )

    @property
    def hash(self) -> str:
        return spec_hash(self.spec)

    def as_dict(self) -> Dict[str, object]:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": SHARD_REPORT_KIND,
            "spec": self.spec,
            "spec_hash": self.hash,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "cell_indices": list(self.cell_indices),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def canonical(self) -> "ShardReport":
        """This shard with every run's wall-clock fields zeroed."""
        return ShardReport(
            spec=self.spec,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
            cell_indices=self.cell_indices,
            cells=tuple(cell.canonical() for cell in self.cells),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ShardReport":
        version = int(payload.get("format_version", -1))
        if version != REPORT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard report version {version}; "
                f"expected {REPORT_FORMAT_VERSION}"
            )
        kind = payload.get("kind")
        if kind != SHARD_REPORT_KIND:
            raise ValueError(
                f"payload kind {kind!r} is not a shard report "
                f"(expected {SHARD_REPORT_KIND!r})"
            )
        report = cls(
            spec=dict(payload["spec"]),
            shard_index=int(payload["shard_index"]),
            shard_count=int(payload["shard_count"]),
            cell_indices=tuple(payload["cell_indices"]),
            cells=tuple(
                ExperimentReport.from_dict(cell) for cell in payload["cells"]
            ),
        )
        stored = payload.get("spec_hash")
        if stored is not None and stored != report.hash:
            raise ValueError(
                f"shard {report.shard_index} spec hash {stored} does not match "
                f"its own spec ({report.hash}); the file was altered"
            )
        return report

    @classmethod
    def from_json(cls, text: str) -> "ShardReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike, indent: int = 2) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=indent) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ShardReport":
        return cls.from_json(Path(path).read_text())


def run_sweep_shard(
    spec: SweepSpec, shard_index: int, shard_count: int
) -> ShardReport:
    """Execute one deterministic shard of a sweep (see :func:`shard_cells`)."""
    indices = shard_cells(spec, shard_index, shard_count)
    report = run_sweep(spec, shard=(shard_index, shard_count))
    return ShardReport(
        spec=spec.as_dict(),
        shard_index=shard_index,
        shard_count=shard_count,
        cell_indices=tuple(indices),
        cells=report.cells,
    )


def merge_shard_reports(
    shards: Sequence[ShardReport], *, canonical: bool = True
) -> SweepReport:
    """Reassemble shard reports into the serial :class:`SweepReport`.

    Validates loudly before touching a single cell: every shard must carry
    the same ``shard_count`` and the same spec hash; the shard indices must
    cover ``0..shard_count-1`` exactly once (duplicates are overlapping
    shards, gaps are missing shards); and each shard's claimed cell
    indices must equal the deterministic partition recomputed from the
    spec.  The merged report lists cells in the spec's canonical order —
    with ``canonical=True`` (the default) its JSON is byte-identical to
    ``run_sweep(spec).canonical()``; ``canonical=False`` keeps each
    shard's measured wall-clock timings.
    """
    if not shards:
        raise ValueError("cannot merge zero shard reports")
    first = shards[0]
    expected_hash = first.hash
    shard_count = first.shard_count
    for shard in shards:
        if shard.shard_count != shard_count:
            raise ValueError(
                f"shard {shard.shard_index} claims shard_count="
                f"{shard.shard_count}, but shard {first.shard_index} claims "
                f"{shard_count}; these runs do not belong together"
            )
        if shard.hash != expected_hash:
            raise ValueError(
                f"shard {shard.shard_index} was run against a different spec "
                f"(hash {shard.hash[:12]}… vs {expected_hash[:12]}…); "
                "refusing to merge results of different experiments"
            )
    seen: Dict[int, ShardReport] = {}
    for shard in shards:
        if shard.shard_index in seen:
            raise ValueError(
                f"overlapping shards: shard index {shard.shard_index} appears "
                "more than once"
            )
        seen[shard.shard_index] = shard
    missing = sorted(set(range(shard_count)) - set(seen))
    if missing:
        raise ValueError(
            f"missing shard(s) {missing} of {shard_count}; have "
            f"{sorted(seen)}"
        )
    extra = sorted(set(seen) - set(range(shard_count)))
    if extra:
        raise ValueError(
            f"shard index(es) {extra} are out of range for shard_count={shard_count}"
        )

    spec = SweepSpec.from_dict(first.spec)
    cells_by_index: Dict[int, ExperimentReport] = {}
    for index in range(shard_count):
        shard = seen[index]
        expected_indices = tuple(shard_cells(spec, index, shard_count))
        if shard.cell_indices != expected_indices:
            raise ValueError(
                f"shard {index} claims cell indices {list(shard.cell_indices)} "
                f"but the deterministic partition assigns "
                f"{list(expected_indices)}"
            )
        for cell_index, cell in zip(shard.cell_indices, shard.cells):
            cells_by_index[cell_index] = cell
    total = len(spec.cells())
    if sorted(cells_by_index) != list(range(total)):
        raise ValueError(
            f"merged cells cover indices {sorted(cells_by_index)}, "
            f"expected 0..{total - 1}"
        )
    report = SweepReport(
        cells=tuple(cells_by_index[index] for index in range(total)),
        spec=first.spec,
    )
    return report.canonical() if canonical else report


def merge_shard_files(
    paths: Sequence[PathLike], *, canonical: bool = True
) -> SweepReport:
    """Load shard report files and merge them (the CLI entry point)."""
    return merge_shard_reports(
        [ShardReport.load(path) for path in paths], canonical=canonical
    )


def run_sweep_on_pool(
    pool: "WorkerPool",
    spec: SweepSpec,
    shard_count: int,
    *,
    canonical: bool = True,
) -> SweepReport:
    """Run the ``shard_count`` shards of ``spec`` side by side on ``pool``.

    One thread per shard sends the pool's ``run_shard`` op, so the shards
    run concurrently on the workers it dispatches them to (a shard whose
    worker dies is retried on another).  The reports merge through
    :func:`merge_shard_reports`, so in canonical form the result is
    byte-identical to the serial run.  Raises :class:`RuntimeError` with
    one ``shard i/N failed: ...`` line per failed shard.
    """
    payload = spec.as_dict()
    results: List[Optional[Dict[str, object]]] = [None] * shard_count
    errors: Dict[int, BaseException] = {}

    def run_shard(index: int) -> None:
        try:
            results[index] = pool.call(
                "run_shard",
                {"spec": payload, "shard_index": index, "shard_count": shard_count},
                timeout=3600.0,
            )
        except Exception as error:  # noqa: BLE001 — reported per shard below
            errors[index] = error

    threads = [
        threading.Thread(target=run_shard, args=(index,), daemon=True)
        for index in range(shard_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(
            "\n".join(
                f"shard {index}/{shard_count} failed: {str(error) or type(error).__name__}"
                for index, error in sorted(errors.items())
            )
        )
    return merge_shard_reports(
        [ShardReport.from_dict(result) for result in results], canonical=canonical
    )
