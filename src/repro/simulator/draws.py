"""Per-trial Philox streams of a batch, with the coin-share draws in bulk.

Trial ``k`` of a batch with master seed ``s`` draws all of its randomness
from NumPy's Philox4x64-10 keyed ``(s, k)`` (:func:`trial_generator`), so
per-trial results never depend on how trials are batched, sharded or
compacted.  :class:`TrialStreams` holds those streams for a whole batch as
*cursor arrays* instead of ``Generator`` objects: a row's cursor is its key,
the number of 64-bit words its stream has consumed and the pending uint32
half, if any.

The coin's fair bits are the hot draw: every phase, every running trial
draws the committee's shares as ``integers(0, 2, size=c)``, and Ben-Or's
private flips are the same draw, one per node, as is a ``random`` input
row at batch set-up.  That call is Lemire's
method on ``next_uint32`` with range 2, which never rejects, so bit ``i`` is
the top bit of the stream's next uint32 — the low half of a 64-bit word
first, then its high half, which Philox buffers across calls.
:meth:`TrialStreams.draw_bits` reproduces this bit for bit for every cursor
row at once (word ``i`` of a trial is lane ``i % 4`` of the block with
counter ``i // 4 + 1``):

* in one compiled call (:mod:`repro.native`) at any row count, whenever the
  native draws built;
* otherwise in one NumPy pass of the Philox rounds (:func:`philox_blocks`;
  the 64x64->128-bit multiply runs on 32-bit halves) once at least
  :data:`VECTOR_MIN_ROWS` rows draw from cursors, and through each row's
  generator below that.  These are the fallback when no compiler is found,
  and the oracle the native draw is tested against.

Loss planes are raw 64-bit words, so the compiled loss kernel
(:mod:`repro.topology.loss`) draws them straight from a cursor row:
:meth:`TrialStreams.claim_raw` hands it the row's key and first word and
moves the cursor past the plane, as ``random_raw`` would move the
generator.  Any other draw needs a real generator: the noise kernel's
binomial and multinomial draws, sampling-majority's peer picks, and loss
planes drawn with NumPy.  Indexing a
stream (``streams[b]``) materialises row ``b`` as its
:func:`trial_generator` jumped to the cursor in O(1) — ``Philox.advance``
past the whole blocks, one ``random_raw`` of the 1-4 words left to load the
current block, then the uint32 half state restored — and the row draws
through that generator from then on, coin bits included.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from repro import native
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer

__all__ = ["VECTOR_MIN_ROWS", "TrialStreams", "philox_blocks", "trial_generator"]

#: Cursor rows at and above which a bit draw without the native draws takes
#: the vectorised Philox pass.  Measured on 2 vCPUs (Python 3.11, NumPy 2.4)
#: at 4-8 shares per row: the pass costs about 0.25 ms plus ~1 us per row,
#: the per-row path about 6.5 us per ``integers`` call, so the two cross near
#: 40 rows.  Below it the rows become generators (a one-off replay of about
#: 20 us per row) and draw one call each, as a batch of generators always did.
VECTOR_MIN_ROWS = 40

#: Shares per vectorised pass.  The pass holds about 56 bytes of temporaries
#: per share, so larger draws run as several passes over row chunks (~14 MiB
#: each) instead of one pass that could outgrow the engine's own planes.
_PASS_SHARES = 1 << 18

_SPACE = 1 << 64
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11) as
#: columns: row 0 acts on counter word 0 and key word 0, row 1 on counter
#: word 2 and key word 1.
_MULTIPLIER = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MULTIPLIER_LO = _MULTIPLIER & _LOW32
_MULTIPLIER_HI = _MULTIPLIER >> _SHIFT32
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10


def trial_generator(seed: int, k: int) -> np.random.Generator:
    """The counter-based Philox generator for trial ``k`` of master ``seed``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


def philox_blocks(key0: int, key1: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output blocks, one per ``(key1, counter)`` element.

    ``key0`` is the first key word (shared), ``key1`` the second (per
    block) and ``counter`` the first counter word; the other three counter
    words are zero, as they are in every NumPy Philox stream short of
    ``2**64`` blocks.  Returns ``(len(counter), 4)`` uint64 words, lane ``j``
    of row ``i`` being word ``j`` of the block.

    Each round multiplies counter words 0 and 2 by their constants as one
    ``(2, N)`` operand; the high 64 bits of each product are assembled from
    32-bit partial products, which NumPy's uint64 arithmetic holds exactly.
    """
    size = len(counter)
    key = np.empty((2, size), dtype=np.uint64)
    key[0] = key0
    key[1] = key1
    # x holds counter words (0, 2), odd holds words (1, 3).
    x = np.zeros((2, size), dtype=np.uint64)
    x[0] = counter
    odd = np.zeros((2, size), dtype=np.uint64)
    for round_index in range(_ROUNDS):
        if round_index:
            key += _WEYL
        x_lo = x & _LOW32
        x_hi = x >> _SHIFT32
        low_low = x_lo * _MULTIPLIER_LO
        high_low = x_hi * _MULTIPLIER_LO
        low_high = x_lo * _MULTIPLIER_HI
        middle = (low_low >> _SHIFT32) + (high_low & _LOW32) + (low_high & _LOW32)
        high = x_hi * _MULTIPLIER_HI + (high_low >> _SHIFT32) + (low_high >> _SHIFT32)
        high += middle >> _SHIFT32
        low = x * _MULTIPLIER
        # (v0, v1, v2, v3) <- (hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1, lo0)
        x = high[::-1] ^ odd ^ key
        odd = low[::-1]
    return np.stack([x[0], odd[0], x[1], odd[1]], axis=1)


class TrialStreams:
    """The per-trial Philox streams of one batch, as cursor arrays.

    Row ``b`` is the stream of trial ``trial_offset + b`` under master
    ``seed``: it produces exactly the draws ``trial_generator(seed,
    trial_offset + b)`` would, in the same order, whichever mix of
    :meth:`draw_bits`, :meth:`claim_raw` and generator draws
    (``streams[b]``) consumes it.

    Args:
        seed: Master seed, ``0 <= seed < 2**64`` (the first Philox key word).
        trial_offset: Global counter of row 0; rows are keyed
            ``trial_offset .. trial_offset + trials - 1``, which must stay
            below ``2**64`` (the second key word).
        trials: Number of rows.

    Raises:
        ConfigurationError: When a key word falls outside its 64-bit range.
    """

    def __init__(self, seed: int, trial_offset: int, trials: int) -> None:
        seed, trial_offset, trials = (
            operator.index(seed), operator.index(trial_offset), operator.index(trials)
        )
        if not 0 <= seed < _SPACE:
            raise ConfigurationError(
                f"seed must be in [0, 2**64) to key the trial Philox streams, got {seed}"
            )
        if not 0 <= trial_offset < _SPACE or trials < 0 or trial_offset + trials > _SPACE:
            raise ConfigurationError(
                "trial counters must stay in [0, 2**64) to key the trial Philox "
                f"streams, got trial_offset={trial_offset}, trials={trials}"
            )
        self._seed = seed
        self._trial = np.uint64(trial_offset) + np.arange(trials, dtype=np.uint64)
        #: 64-bit words each row's stream has consumed.
        self._words = np.zeros(trials, dtype=np.int64)
        #: Whether a uint32 half is pending, and the high half a uint32 draw
        #: last buffered (kept once consumed): NumPy's ``has_uint32`` and
        #: ``uinteger``.
        self._has_half = np.zeros(trials, dtype=bool)
        self._uinteger = np.zeros(trials, dtype=np.int64)
        #: Each row's generator once materialised; it then owns the stream.
        self._generators: list[np.random.Generator | None] = [None] * trials
        #: Rows not yet materialised, whose cursors are their streams.
        self._cursor = np.ones(trials, dtype=bool)

    @classmethod
    def of(cls, generators: Sequence[np.random.Generator]) -> TrialStreams:
        """Streams whose rows are the given generators (every draw per row).

        The rows' trial counters run from 0, as in ``TrialStreams(seed, 0, B)``.
        """
        streams = cls(0, 0, len(generators))
        streams._generators = list(generators)
        streams._cursor[:] = False
        return streams

    def __len__(self) -> int:
        return len(self._generators)

    @property
    def seed(self) -> int:
        """The master seed, the first word of every row's Philox key."""
        return self._seed

    @property
    def trial_counters(self) -> np.ndarray:
        """Each row's global trial counter, the second word of its Philox key."""
        return self._trial

    def __getitem__(self, row: int) -> np.random.Generator:
        """Row ``row``'s generator, materialised at its cursor on first use.

        The generator jumps to the cursor instead of replaying the stream:
        ``advance`` skips the whole blocks before the current one and one
        ``random_raw`` of the remaining 1-4 words loads it, leaving counter,
        buffer and buffer position as a sequential walk would.  ``advance``
        clears the uint32 half state, so it is restored last.
        """
        generator = self._generators[row]
        if generator is None:
            generator = trial_generator(self._seed, int(self._trial[row]))
            bit_generator = generator.bit_generator
            words = int(self._words[row])
            if words:
                blocks = (words - 1) // 4
                bit_generator.advance(blocks)
                bit_generator.random_raw(words - 4 * blocks)
            has_half, uinteger = bool(self._has_half[row]), int(self._uinteger[row])
            if has_half or uinteger:
                state = bit_generator.state
                state["has_uint32"], state["uinteger"] = int(has_half), uinteger
                bit_generator.state = state
            self._generators[row] = generator
            self._cursor[row] = False
        return generator

    def claim_raw(self, row: int, words: int) -> tuple[int, int, int] | None:
        """Claim cursor row ``row``'s next ``words`` raw 64-bit outputs.

        For a draw made outside the row's generator, exactly as
        ``streams[row].bit_generator.random_raw(words)`` would make it:
        returns the row's Philox key ``(seed, trial counter)`` and the index
        of the first claimed word in its stream (word ``w`` is lane
        ``w % 4`` of the block with counter ``w // 4 + 1``), and moves the
        cursor past the claimed words.  A pending uint32 half stays pending,
        as under ``random_raw``.  Returns ``None`` for a materialised row,
        whose generator owns its stream.
        """
        if not self._cursor[row]:
            return None
        first = int(self._words[row])
        self._words[row] = first + words
        return self._seed, int(self._trial[row]), first

    def take(self, rows: np.ndarray) -> TrialStreams:
        """The streams of ``rows`` (batch compaction); their draws continue there."""
        taken = TrialStreams.__new__(TrialStreams)
        taken._seed = self._seed
        taken._trial = self._trial[rows]
        taken._words = self._words[rows]
        taken._has_half = self._has_half[rows]
        taken._uinteger = self._uinteger[rows]
        taken._generators = [self._generators[row] for row in rows]
        taken._cursor = self._cursor[rows]
        return taken

    def draw_bits(self, counts: np.ndarray) -> np.ndarray:
        """Row ``b``'s next ``counts[b]`` fair bits (int8 0/1), concatenated in row order.

        Equal to concatenating ``streams[b].integers(0, 2, size=counts[b])``
        over the rows, and consumes the streams the same way.  The drawing
        rows still on cursors draw in one native call when the native draws
        built (path ``native``); else in one vectorised Philox pass when at
        least :data:`VECTOR_MIN_ROWS` of them draw (``vector``), or through
        their generators (``generator``).  Materialised rows draw one
        ``integers`` call each on every path.
        """
        counts = np.array(counts, dtype=np.int64)  # a writable copy the native call can view
        drawing = np.flatnonzero(counts)
        is_cursor = self._cursor[drawing]
        cursor = drawing[is_cursor]
        kernel = native.kernel() if len(cursor) else None
        if kernel is not None:
            path = "native"
        else:
            path = "vector" if len(cursor) >= VECTOR_MIN_ROWS else "generator"
        with current_tracer().span("engine.draw.bits", running=len(drawing), path=path):
            if path == "generator":
                draws = [
                    self[row].integers(0, 2, size=count)
                    for row, count in zip(drawing.tolist(), counts[drawing].tolist())
                ]
                bits = np.concatenate(draws) if draws else np.zeros(0, dtype=np.int64)
                return bits.astype(np.int8)
            bits = np.empty(int(counts.sum()), dtype=np.int8)
            starts = np.cumsum(counts) - counts
            if kernel is not None:
                kernel.cursor_bits(
                    self._seed, self._trial, self._words, self._has_half, self._uinteger,
                    counts, starts, cursor, bits,
                )
            else:
                totals = np.cumsum(counts[cursor])
                edges = np.searchsorted(
                    totals, np.arange(_PASS_SHARES, totals[-1], _PASS_SHARES)
                )
                for rows in np.split(cursor, edges):
                    if len(rows):
                        self._draw_cursor_bits(rows, counts[rows], starts[rows], bits)
            per_row = drawing[~is_cursor]
            for row, start, count in zip(
                per_row.tolist(), starts[per_row].tolist(), counts[per_row].tolist()
            ):
                bits[start : start + count] = self[row].integers(0, 2, size=count)
        return bits

    def _draw_cursor_bits(
        self, rows: np.ndarray, counts: np.ndarray, starts: np.ndarray, out: np.ndarray
    ) -> None:
        """Draw ``counts`` top bits for cursor ``rows`` into ``out[starts...]``."""
        words = self._words[rows]
        pending = self._has_half[rows]
        # A pending half serves the row's first draw; the rest take fresh
        # uint32 halves, low then high, from the next words.
        out[starts[pending]] = self._uinteger[rows][pending] >> 31
        fresh = counts - pending
        new_words = (fresh + 1) >> 1
        first_block = words >> 2
        blocks = np.where(new_words > 0, ((words + new_words - 1) >> 2) - first_block + 1, 0)
        block_row = np.repeat(np.arange(len(rows)), blocks)
        block_start = np.cumsum(blocks) - blocks
        block_index = first_block[block_row] + np.arange(len(block_row)) - block_start[block_row]
        stream = philox_blocks(
            self._seed, self._trial[rows][block_row], block_index + 1
        ).reshape(-1)
        # Row r's word w sits at stream[base[r] + w].
        base = 4 * (block_start - first_block)
        fresh_row = np.repeat(np.arange(len(rows)), fresh)
        fresh_start = np.cumsum(fresh) - fresh
        index = np.arange(len(fresh_row)) - fresh_start[fresh_row]
        word = stream[(base + words)[fresh_row] + (index >> 1)]
        shift = (31 + 32 * (index & 1)).astype(np.uint64)
        out[(starts + pending)[fresh_row] + index] = (word >> shift) & np.uint64(1)
        # The last fresh word's high half is buffered; it stays pending after
        # an odd number of fresh halves and is consumed after an even number.
        # Rows with no fresh halves keep their last buffered half.
        drew = fresh > 0
        self._uinteger[rows[drew]] = (
            stream[(base + words + new_words - 1)[drew]] >> _SHIFT32
        ).astype(np.int64)
        self._has_half[rows] = (fresh & 1).astype(bool)
        self._words[rows] = words + new_words
