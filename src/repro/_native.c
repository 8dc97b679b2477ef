/*
 * The compiled Philox4x64-10 draws: one philox_block serves two entry
 * points, which repro.native builds from this file and binds through ctypes.
 *
 * - repro_loss_words is the fused loss-draw kernel: one pass per trial plane
 *   of Philox raw draws, the raw-threshold compare and the packing into
 *   recipient-major words.  repro.topology.loss calls it in place of its
 *   NumPy kernel, which it reproduces word for word.  Entry [j, i] of a
 *   plane (sender j, recipient i) takes the stream's next raw output in
 *   row-major order.  It is kept when that output is at least `threshold`
 *   and the adjacency (if any) has the edge; the diagonal is always kept.
 * - repro_cursor_bits draws the coin-share bits of TrialStreams cursor rows
 *   (repro.simulator.draws) in place of the NumPy Philox pass, bit for bit.
 *
 * The loss planes' stream position is NumPy's Philox state as six words,
 * read and written back: {counter, pos, buffer[4]}.  `counter` is counter
 * word 0 (words 1-3 must be zero and stay zero), `buffer` the block of that
 * counter and `pos` the lanes of it already consumed (4: none left).  With
 * `refill` set the buffer is computed from the counter first, for a
 * position that carries none.
 *
 * repro_loss_words returns 0, or -1 when its row buffers (about 9n bytes,
 * on the heap) cannot be allocated; n must be at least 1.
 */
#include <stdint.h>
#include <stdlib.h>

#ifndef __SIZEOF_INT128__
#error "the native Philox draws need unsigned __int128 for the 64x64->128-bit Philox products"
#endif

typedef unsigned __int128 u128;

typedef struct {
    uint64_t counter, pos, buffer[4];
} stream_t;

/* Block `counter` of the Philox4x64-10 stream keyed (key0, key1). */
static inline void philox_block(uint64_t key0, uint64_t key1, uint64_t counter, uint64_t *out)
{
    uint64_t x0 = counter, x1 = 0, x2 = 0, x3 = 0;
    for (int round = 0; round < 10; round++) {
        if (round) {
            key0 += 0x9E3779B97F4A7C15ULL;
            key1 += 0xBB67AE8584CAA73BULL;
        }
        u128 p0 = (u128)0xD2E7470EE14C6C93ULL * x0;
        u128 p1 = (u128)0xCA5A826395121157ULL * x2;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ key0;
        x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ key1;
        x3 = (uint64_t)p0;
    }
    out[0] = x0;
    out[1] = x1;
    out[2] = x2;
    out[3] = x3;
}

static stream_t load(const uint64_t *state, int refill, uint64_t key0, uint64_t key1)
{
    stream_t s = {state[0], state[1], {state[2], state[3], state[4], state[5]}};
    if (refill && s.pos < 4)
        philox_block(key0, key1, s.counter, s.buffer);
    return s;
}

static void store(uint64_t *state, const stream_t *s)
{
    state[0] = s->counter;
    state[1] = s->pos;
    for (int lane = 0; lane < 4; lane++)
        state[2 + lane] = s->buffer[lane];
}

/*
 * The stream's next `count` raw outputs into raw[]: what is left of the
 * buffered block, then whole blocks written in place (two per step, so
 * their rounds overlap), then a last block through the buffer.
 */
static void fill(stream_t *s, uint64_t key0, uint64_t key1, uint64_t *raw, int64_t count)
{
    int64_t i = 0;
    while (i < count && s->pos < 4)
        raw[i++] = s->buffer[s->pos++];
    if (i == count)
        return;
    for (; i + 8 <= count; i += 8, s->counter += 2) {
        philox_block(key0, key1, s->counter + 1, raw + i);
        philox_block(key0, key1, s->counter + 2, raw + i + 4);
    }
    if (i + 4 <= count) {
        philox_block(key0, key1, ++s->counter, raw + i);
        i += 4;
    }
    if (i < count) {
        philox_block(key0, key1, ++s->counter, s->buffer);
        for (s->pos = 0; i < count;)
            raw[i++] = s->buffer[s->pos++];
    } else {
        for (int lane = 0; lane < 4; lane++)
            s->buffer[lane] = raw[count - 4 + lane];
        s->pos = 4;
    }
}

/*
 * Bit b of the result is entry b of raw[0..count) kept: raw[b] >= threshold
 * and, when edges is given, edges[b].  count is at most 64.  Eight entries
 * at a time are set as the bytes of one word, and a multiply gathers bit 0
 * of each byte into one byte.
 */
static inline uint64_t pack_kept(const uint64_t *raw, const uint8_t *edges, int64_t count,
                                 uint64_t threshold)
{
    uint64_t word = 0;
    for (int64_t b = 0; b < count; b += 8) {
        const int64_t size = count - b < 8 ? count - b : 8;
        uint64_t flags = 0;
        if (edges) {
            for (int64_t k = 0; k < size; k++)
                flags |= (uint64_t)((raw[b + k] >= threshold) & edges[b + k]) << (8 * k);
        } else {
            for (int64_t k = 0; k < size; k++)
                flags |= (uint64_t)(raw[b + k] >= threshold) << (8 * k);
        }
        word |= ((flags * 0x0102040810204080ULL) >> 56) << b;
    }
    return word;
}

/*
 * Transpose of an 8x8 bit matrix held one row per byte: bit k of byte r
 * moves to bit r of byte k.
 */
static inline uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x ^= t ^ (t << 28);
    return x;
}

/*
 * Recipient-major packed words: row i (row_bytes apart) lists the senders
 * that reach recipient i, sender j in byte j / 8 at bit 7 - j % 8, as
 * np.packbits lays them out.  Only the first ceil(n / 8) bytes of a row are
 * written.  Eight sender rows at a time are packed along the recipients,
 * then turned into the recipients' bytes by 8x8 bit transposes.
 */
int repro_loss_words(uint64_t key0, uint64_t key1, uint64_t *state, int refill, int64_t n,
                     uint64_t threshold, const uint8_t *adjacency, uint8_t *out,
                     int64_t row_bytes)
{
    const int64_t width = (n + 63) / 64;
    uint64_t *raw = malloc((size_t)(n + 8 * width) * sizeof *raw);
    if (!raw)
        return -1;
    /* bits[r * width + w], bit b: entry [j0 + r, 64 w + b] of the current group. */
    uint64_t *bits = raw + n;
    stream_t s = load(state, refill, key0, key1);
    for (int64_t j0 = 0; j0 < n; j0 += 8) {
        for (int64_t r = 0; r < 8; r++) {
            uint64_t *row = bits + r * width;
            const int64_t j = j0 + r;
            if (j >= n) {
                for (int64_t w = 0; w < width; w++)
                    row[w] = 0;
                continue;
            }
            fill(&s, key0, key1, raw, n);
            const uint8_t *edges = adjacency ? adjacency + j * n : 0;
            for (int64_t w = 0; w < width; w++) {
                const int64_t base = 64 * w;
                row[w] = pack_kept(raw + base, edges ? edges + base : 0,
                                   n - base < 64 ? n - base : 64, threshold);
            }
            row[j >> 6] |= 1ULL << (j & 63);
        }
        uint8_t *column = out + (j0 >> 3);
        for (int64_t i0 = 0; i0 < n; i0 += 8) {
            /* Sender j0 + r goes to byte 7 - r, so the transpose leaves it
               at bit 7 - r of each recipient's byte. */
            uint64_t x = 0;
            for (int r = 0; r < 8; r++)
                x |= ((bits[r * width + (i0 >> 6)] >> (i0 & 63)) & 0xFF) << (8 * (7 - r));
            x = transpose8(x);
            const int64_t count = n - i0 < 8 ? n - i0 : 8;
            for (int64_t k = 0; k < count; k++)
                column[(i0 + k) * row_bytes] = (uint8_t)(x >> (8 * k));
        }
    }
    store(state, &s);
    free(raw);
    return 0;
}

/*
 * Row r = rows[i]'s next counts[r] fair bits into out[starts[r]...], exactly
 * as Generator.integers(0, 2, size=counts[r]) draws them from NumPy's Philox:
 * Lemire's method on next_uint32 with range 2 never rejects, so each bit is
 * the top bit of the stream's next uint32.  A pending half (has_half[r], its
 * value in uinteger[r]) serves first; then each fresh word serves its low
 * half, then its high half.  Word w of a row is lane w % 4 of the block with
 * counter w / 4 + 1 under the key (key0, key1[r]), and words[r] counts the
 * words the row has used.  The last fresh word's high half is left in
 * uinteger[r], pending after an odd number of fresh halves, consumed after
 * an even number; a row that draws no fresh half keeps its uinteger[r].
 *
 * The row-indexed arrays hold `size` entries and out holds `out_size`.
 * Returns 0, or -1, drawing nothing, when a row, count or start would reach
 * outside them.
 */
int repro_cursor_bits(uint64_t key0, int64_t size, const uint64_t *key1, int64_t *words,
                      uint8_t *has_half, int64_t *uinteger, const int64_t *counts,
                      const int64_t *starts, const int64_t *rows, int64_t count_rows,
                      int8_t *out, int64_t out_size)
{
    for (int64_t i = 0; i < count_rows; i++) {
        const int64_t r = rows[i];
        if (r < 0 || r >= size || counts[r] < 0 || starts[r] < 0
            || counts[r] > out_size - starts[r])
            return -1;
    }
    for (int64_t i = 0; i < count_rows; i++) {
        const int64_t r = rows[i];
        int64_t left = counts[r];
        int8_t *bit = out + starts[r];
        if (left > 0 && has_half[r]) {
            *bit++ = (int8_t)((uint64_t)uinteger[r] >> 31);
            has_half[r] = 0;
            left--;
        }
        if (left == 0)
            continue;
        uint64_t w = (uint64_t)words[r], block[4], word = 0;
        if (w & 3)
            philox_block(key0, key1[r], (w >> 2) + 1, block);
        for (;;) {
            if (!(w & 3))
                philox_block(key0, key1[r], (w >> 2) + 1, block);
            word = block[w++ & 3];
            *bit++ = (int8_t)((word >> 31) & 1);
            if (--left == 0) {
                has_half[r] = 1;
                break;
            }
            *bit++ = (int8_t)(word >> 63);
            if (--left == 0)
                break;
        }
        uinteger[r] = (int64_t)(word >> 32);
        words[r] = (int64_t)w;
    }
    return 0;
}
