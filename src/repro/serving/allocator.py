"""Opt-in glibc allocator tuning for live-update churn.

A sustained ``swap_graph`` workload allocates and frees a few multi-MB
arrays per delta (the patched propagation steps).  glibc's default trim
threshold (128 KiB) returns each freed block to the kernel immediately,
so every swap pays page-fault + zeroing cost for the same memory over
and over — easily 3-5 ms per 10 MB array.  Raising the trim/mmap
thresholds keeps those blocks on the heap free list and cuts the
steady-state swap cost to plain memcpy speed.

This is process-global, so it is never applied implicitly; call
:func:`tune_allocator_for_churn` from the serving entrypoint (repobench's
churn workload does).  On non-glibc platforms it is a no-op returning
``False``.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

DEFAULT_THRESHOLD_BYTES = 256 * 1024 * 1024


def tune_allocator_for_churn(threshold_bytes: int = DEFAULT_THRESHOLD_BYTES) -> bool:
    """Raise glibc's trim/mmap thresholds; True if both mallopts took."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        trim_ok = bool(libc.mallopt(_M_TRIM_THRESHOLD, int(threshold_bytes)))
        mmap_ok = bool(libc.mallopt(_M_MMAP_THRESHOLD, int(threshold_bytes)))
        return trim_ok and mmap_ok
    except (OSError, AttributeError):
        return False
