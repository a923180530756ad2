"""One stats protocol for every observable component.

Before this module, each serving layer hand-rolled its own counters
snapshot: :class:`~repro.serving.cache.CacheStats` for the LRUs,
``ServerStats`` for the engine, ``RouterStats`` for the front door — three
``as_dict()`` implementations that drifted in rounding and nesting.  They
now share one contract:

* every snapshot is a frozen-ish dataclass deriving from :class:`Stats`;
* :meth:`Stats.as_dict` is generic — it walks the dataclass fields,
  recurses into nested :class:`Stats` values (and dicts of them), rounds
  floats and appends the ``derived`` properties (computed rates like
  ``hit_rate``), so a new counter is one field, not a field plus a dict
  entry to forget;
* every stats-bearing component (``LRUCache``, ``OperatorCache``,
  ``InferenceServer``, ``ShardRouter``, ``HttpServer``)
  exposes ``snapshot() -> dict`` ≡ ``stats().as_dict()``, which is the
  shape the ``/stats`` endpoint and the benchmarks read.

The protocol lives in :mod:`repro.obs` (the observability layer).
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, Tuple

#: floats in snapshots are rounded to this many digits — enough for
#: latency-in-ms / rate readouts, stable across platforms in JSON diffs.
FLOAT_DIGITS = 4


def _convert(value):
    if isinstance(value, Stats):
        return value.as_dict()
    if isinstance(value, dict):
        return {key: _convert(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        # Histogram bucket counts (and any future sequence field) become
        # plain lists, matching what a JSON round trip would produce.
        return [_convert(entry) for entry in value]
    if isinstance(value, float):
        return round(value, FLOAT_DIGITS)
    return value


class Stats:
    """Base class of every serving counters snapshot.

    Sub-classes are dataclasses; ``derived`` lists property names (computed
    rates) that ride along in :meth:`as_dict` next to the stored fields.
    """

    derived: ClassVar[Tuple[str, ...]] = ()

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            out[field.name] = _convert(getattr(self, field.name))
        for name in self.derived:
            out[name] = _convert(getattr(self, name))
        return out


class StatsSource:
    """Mixin for components owning counters: ``snapshot()`` in one place.

    Sub-classes implement ``stats() -> Stats``; ``snapshot()`` is the
    JSON-ready dict every consumer reads, so the wire shape cannot drift
    from the typed one.
    """

    def stats(self) -> Stats:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready counters, ``stats().as_dict()`` by definition."""
        return self.stats().as_dict()
