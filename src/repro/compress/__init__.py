"""STT compression extensions (paper refs [18], [19]).

Two schemes trading per-fetch arithmetic for texture-working-set size:

* :class:`~repro.compress.banded.BandedSTT` — branch-free band + default
  per row (mild compression, zero data-dependence);
* :class:`~repro.compress.bitmap.BitmapDeltaSTT` — failure-delta bitmaps
  with popcount indexing (heavy compression, chain-walk lookups).

Shrinking the table's *columns* instead — one class per byte the
dictionary uses, one extra on-chip indirection per fetch — is
:class:`repro.core.compact.CompactSTT`, the ``compact`` backend of
:mod:`repro.compress.backend` and the table the kernels read by default.
"""

from repro.compress.backend import (
    DEFAULT_BACKEND,
    STT_BACKENDS,
    BackendCost,
    BandedGather,
    BitmapGather,
    build_gather_table,
    resolve_backend,
)
from repro.compress.banded import BandedSTT, CompressionStats
from repro.compress.bitmap import BitmapDeltaSTT, BitmapRowSTT

__all__ = [
    "BandedSTT",
    "BitmapDeltaSTT",
    "BitmapRowSTT",
    "CompressionStats",
    "STT_BACKENDS",
    "DEFAULT_BACKEND",
    "BackendCost",
    "BandedGather",
    "BitmapGather",
    "build_gather_table",
    "resolve_backend",
]
