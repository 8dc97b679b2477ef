"""Exact per-recipient receive tallies against adjacency and delivered masks.

The masked communication planes need ``counts[b, i] = sum_j sent[b, j] *
A[j, i]`` — a ``(B, n) x (n, n)`` contraction per tally.  One engine carries
it on every plane backend: an AND+popcount over packed uint64 words in the
:func:`pack_sender_words` layout, the one form a masked run tallies.  The
engine hands a channel a plane's
:meth:`~repro.simulator.planes.base.Plane.words`: the packed plane backend
its stored words as they are, the numpy-bool backend its array packed once
per call.  :class:`AdjacencyCounter` picks one of two strategies for a fixed
loss-free mask:

* **complete** — the all-True adjacency (which must stay within the
  benchmark's 2x overhead bar of the unmasked clique path): each trial's
  row total, one broadcastable column;
* **packed** — every other mask: a :class:`PackedDeliveredChannel`
  computing ``popcount(sent_words & incoming_words[recipient])``, whose
  cost is the same at any density.

The per-round *delivered-edge* masks of the lossy path are words from the
start: a :class:`PackedDeliveredChannel` tallies against the
``(B, n, ceil(n/64))`` uint64 output of
:func:`repro.topology.loss.sample_delivered_words`.

Every strategy produces bit-identical ``int64`` counts: the row totals and
popcounts both sum in integer arithmetic.  The shared **channel protocol**
(duck-typed; called by
:meth:`repro.simulator.phase_engine.PhaseEngine.run_batch`) is:

* ``receive_counts_words(sent_words)`` — packed sender words ->
  per-recipient counts;
* ``signed_counts(plane)`` — small-integer planes (the ±1 coin shares);
* ``delivered_edges_words(sent_words)`` — the masked CONGEST message
  counter.

Telemetry: every word tally counts ``masked_tally.packed`` and every
complete-graph row total ``masked_tally.complete``, so trace reports show
which engine carried a masked run.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracer import current_tracer


def word_width(n: int) -> int:
    """uint64 words per ``n``-node bit row (``ceil(n / 64)``, at least 1)."""
    return max(1, -(-n // 64))


def pack_sender_words(array: np.ndarray, n: int) -> np.ndarray:
    """Pack a ``(B, n)`` boolean plane into ``(B, ceil(n/64))`` uint64 words.

    The byte stream is ``np.packbits(array, axis=1)`` (MSB-first bytes)
    zero-padded to whole little-endian words, so the tail bits beyond column
    ``n`` are zero.  This is the one word layout of the repository: the
    packed plane backend stores its planes in it, so its words feed the word
    channels here directly.
    """
    batch = array.shape[0]
    width = word_width(n)
    buffer = np.zeros((batch, width * 8), dtype=np.uint8)
    if n:
        buffer[:, : (n + 7) // 8] = np.packbits(array, axis=1)
    return buffer.view(np.uint64)


class PackedDeliveredChannel:
    """A word channel: AND+popcount tallies over packed incoming-edge words.

    ``incoming`` holds, for each recipient ``i``, the bit row of senders
    whose messages reach ``i``: shape ``(B, n, W)`` for one lossy round's
    per-trial delivered-edge masks (the output of
    :func:`repro.topology.loss.sample_delivered_words`) or ``(n, W)`` for a
    fixed adjacency mask shared by every trial (the
    :class:`AdjacencyCounter`'s packed strategy).  A tally contracts a
    ``(B, W)`` packed sender plane against it one word column at a time — a
    ``(B, n)`` uint64 AND / popcount / accumulate loop that never
    materialises a ``(B, n, W)`` intermediate.
    """

    def __init__(self, incoming: np.ndarray, n: int) -> None:
        self.incoming = incoming
        self.n = n
        # Per-word popcounts are <= 64 and there are ceil(n/64) of them, so
        # the per-recipient total is bounded by n: uint16 accumulation is
        # exact up to 65535 nodes and meaningfully faster than int64.
        self._acc_dtype = np.uint16 if n < (1 << 16) else np.int64

    def receive_counts_words(self, sent_words: np.ndarray) -> np.ndarray:
        """``(B, n)`` int64 tallies of a ``(B, W)`` packed sender plane."""
        current_tracer().count("masked_tally.packed")
        batch = sent_words.shape[0]
        static = self.incoming.ndim == 2
        acc = np.zeros((batch, self.n), dtype=self._acc_dtype)
        joined = np.empty((batch, self.n), dtype=np.uint64)
        percount = np.empty((batch, self.n), dtype=np.uint8)
        for w in range(self.incoming.shape[-1]):
            # A word column no trial sends from adds nothing (the ±1 share
            # planes are zero outside the committee slice).
            if not sent_words[:, w].any():
                continue
            column = (
                self.incoming[None, :, w] if static else self.incoming[:, :, w]
            )
            np.bitwise_and(sent_words[:, w, None], column, out=joined)
            np.bitwise_count(joined, out=percount)
            acc += percount
        return acc.astype(np.int64)

    def signed_counts(self, plane: np.ndarray) -> np.ndarray:
        # The positive and negative supports' word tallies, differenced:
        # exact integers, like the complete graph's row totals.
        plus = self.receive_counts_words(pack_sender_words(plane > 0, self.n))
        minus = self.receive_counts_words(pack_sender_words(plane < 0, self.n))
        return plus - minus

    def delivered_edges_words(self, sent_words: np.ndarray) -> np.ndarray:
        return self.receive_counts_words(sent_words).sum(axis=1, dtype=np.int64)


class AdjacencyCounter:
    """Receive-count engine for a fixed loss-free adjacency mask.

    The strategy is chosen once, at construction, from the mask, and every
    tally afterwards is exact-integer equivalent across strategies, so
    callers can treat the choice as invisible.
    """

    def __init__(self, adjacency: np.ndarray) -> None:
        n = adjacency.shape[0]
        self.n = n
        #: Delivered out-degree per sender (self included), for the
        #: delivered-edge CONGEST accounting.
        self.outdeg = adjacency.sum(axis=1, dtype=np.int64)
        if adjacency.all():
            self.strategy = "complete"
        else:
            self.strategy = "packed"
            # Row i packs column i of the mask: the senders reaching i.
            self._words = PackedDeliveredChannel(
                pack_sender_words(np.ascontiguousarray(adjacency.T), n), n
            )

    # ------------------------------------------------------------------
    def receive_counts_words(self, sent_words: np.ndarray) -> np.ndarray:
        """Per-recipient tallies of the packed sender plane ``sent_words``
        over delivering edges.

        Returns a ``(B, n)`` plane — or a broadcastable ``(B, 1)`` column
        when the mask is the complete graph, where every recipient's tally is
        the same total (callers must therefore broadcast rather than reduce
        over the recipient axis).
        """
        if self.strategy == "packed":
            return self._words.receive_counts_words(sent_words)
        current_tracer().count("masked_tally.complete")
        return np.bitwise_count(sent_words).sum(axis=1, dtype=np.int64)[:, None]

    def signed_counts(self, plane: np.ndarray) -> np.ndarray:
        """Per-recipient sums of a small-integer plane (the ±1 shares)."""
        if self.strategy == "packed":
            return self._words.signed_counts(plane)
        current_tracer().count("masked_tally.complete")
        return plane.sum(axis=1, dtype=np.int64)[:, None]

    def delivered_edges_words(self, sent_words: np.ndarray) -> np.ndarray:
        """Delivered edges per trial — the masked CONGEST message counter:
        the out-degree product on the unpacked senders, not a whole tally."""
        bytes_ = np.ascontiguousarray(sent_words).view(np.uint8)
        senders = np.unpackbits(bytes_, axis=1, count=self.n)
        return senders.astype(np.int64) @ self.outdeg


# An alias for ``sweepbench/layers.py``, which looks this name up when it
# installs its per-layer timers.
DenseDeliveredChannel = PackedDeliveredChannel
