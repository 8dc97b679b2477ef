"""Shared bit-plane primitives for the batched simulation kernels.

Every batched kernel in this repository — the committee engine
(:mod:`repro.simulator.vectorized`), the baseline-protocol kernels
(:mod:`repro.baselines.kernels`) and the adversary kernels
(:mod:`repro.adversary.kernels`) — operates on ``(B, n)`` boolean planes:
trial ``b``'s per-node state lives in row ``b``, and per-node updates are
expressed as XOR-blend boolean algebra because NumPy masked writes cost ~100x
more than elementwise and/or/xor passes at these shapes.  The row-level
reductions those kernels share live here:

* :func:`row_popcount` — exact per-row True counts via byte-packing +
  ``bitwise_count`` (several times faster than ``count_nonzero(axis=1)``);
* :func:`lower_half_split` — per row, the mask of the first ``count // 2``
  True cells, i.e. the deterministic "lower half of the recipients" split
  every equivocating adversary strategy uses
  (:meth:`repro.adversary.adaptive.AdaptiveAdversary.split_recipients`),
  computed on uint64 word popcounts with a prefix-bit LUT on each row's
  boundary word instead of per-row sorting.

This module sits below both the simulator and adversary layers on purpose:
the committee engine consumes adversary kernels, adversary kernels need the
same plane primitives as the engine, and keeping the primitives here breaks
what would otherwise be an import cycle.  It packs words through
:mod:`repro.topology.counting`, which imports neither the engine nor the
kernels.
"""

from __future__ import annotations

import numpy as np

from repro.topology.counting import pack_sender_words

if not hasattr(np, "bitwise_count"):  # pragma: no cover - version guard
    raise ImportError(
        "repro requires NumPy >= 2.0: every row tally and the bit-packed "
        "plane backend go through np.bitwise_count, which numpy "
        f"{np.__version__} does not provide. Upgrade with "
        "`pip install 'numpy>=2.0'` (the floor pyproject.toml declares)."
    )

__all__ = ["first_k_true", "lower_half_split", "row_popcount"]


def row_popcount(mask: np.ndarray) -> np.ndarray:
    """Exact per-row count of True cells of a 2-D boolean array."""
    return np.bitwise_count(np.packbits(mask, axis=1)).sum(axis=1, dtype=np.int64)


def _build_prefix_bits_lut() -> np.ndarray:
    """``LUT[byte, k]`` = mask of the first ``k`` set bits of ``byte``.

    "First" follows ``np.packbits`` order: bit 7 (MSB) is the earliest array
    element packed into the byte.  For ``k`` beyond the popcount of ``byte``
    the full set-bit mask is returned.
    """
    lut = np.zeros((256, 9), dtype=np.uint8)
    for byte in range(256):
        masks = [0]
        for bit in range(8):
            probe = 0x80 >> bit
            if byte & probe:
                masks.append(masks[-1] | probe)
        for k in range(9):
            lut[byte, k] = masks[min(k, len(masks) - 1)]
    return lut


_PREFIX_BITS_LUT = _build_prefix_bits_lut()


def lower_half_split(recipients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, mask the first ``count // 2`` True cells of ``recipients``.

    Equivalent to ranking each row's True cells in index order and selecting
    ranks ``1..count // 2``, but runs on the repository's uint64 word layout
    (:func:`~repro.topology.counting.pack_sender_words`): a cumulative word
    popcount keeps every word wholly below the split, and the prefix-bit LUT
    resolves the one boundary word of each row byte by byte.

    Returns:
        ``(lower_mask, half)`` where ``lower_mask`` has the same shape as
        ``recipients`` and ``half`` is the per-row ``count // 2`` (int32).
    """
    batch, n = recipients.shape
    words = pack_sender_words(recipients, n)
    counts = np.bitwise_count(words)
    cumulative = counts.cumsum(axis=1, dtype=np.int32)
    half = cumulative[:, -1] // 2
    above = cumulative > half[:, None]
    lower_words = np.where(above, 0, words)
    # Each row's first word crossing the split (word 0, all zero, for an
    # empty row), and the bits it still owes the lower half on entry to each
    # of its bytes; the LUT takes that prefix of every byte (0 keeps none,
    # 8 the whole byte).
    rows = np.arange(batch)
    boundary = above.argmax(axis=1)
    edge = words[rows, boundary, None].view(np.uint8)
    owed = half - cumulative[rows, boundary] + counts[rows, boundary]
    pops = np.bitwise_count(edge)
    owed = owed[:, None] - (pops.cumsum(axis=1, dtype=np.int32) - pops)
    resolved = _PREFIX_BITS_LUT[edge, np.minimum(np.maximum(owed, 0), 8)]
    lower_words[rows, boundary] = resolved.view(np.uint64)[:, 0]
    lower = np.unpackbits(lower_words.view(np.uint8), axis=1, count=n).view(bool)
    return lower, half


def first_k_true(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per row, the mask of the first ``k[b]`` True cells of ``mask[b]``.

    The generalised form of :func:`lower_half_split` used by the adaptive
    corruption kernels ("corrupt the ``k`` lowest-id candidates"): a running
    per-row cumsum ranks the True cells in index order and keeps ranks
    ``1..k``.  ``k`` may exceed the row's True count, in which case the whole
    row mask is kept.
    """
    rank = mask.cumsum(axis=1, dtype=np.int32)
    return mask & (rank <= np.asarray(k).reshape(-1, 1))
