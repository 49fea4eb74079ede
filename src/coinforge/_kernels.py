"""Hot counting kernel for exhaustive combinatorial verification.

Both verifiers ask one question: given row masks (committees or receiver
adjacency rows) and every size-subset B of the same universe, is there a B
that cap or more rows meet in at least `quota` members? The quota is an
integer (`params.overload_quota`), so sizes are compared as integers, never
cast to float.

Sets are uint64 bitsets over positions 0..width-1 of their universe, one row
of `words = ceil(width/64)` words per set (bit p lives in word p // 64).
Intersection sizes are popcounts of ANDed words (`np.bitwise_count`,
numpy >= 2.0).

`suffix_table(width, k)` lists every k-subset of range(width) as masks in
lexicographic order (Knuth, TAOCP vol. 4A, §7.2.1.3). The subsets whose
minimum is at least j form a suffix of that order, so every B is a prefix
ORed onto a tail slice of the table, and |B ∩ row| = |prefix ∩ row| +
|tail ∩ row|. The scan takes the second term for every row and table entry
once (`intersection_sizes`); per prefix it is left with one threshold
compare per (row, tail) pair (`rows_meeting_threshold`).

numpy loads at the first kernel call, not at import, so a command that runs
no exhaustive scan never loads it; later calls find it in `sys.modules`.
"""

from __future__ import annotations

import functools
import math


def words_for(width: int) -> int:
    """uint64 words per mask over a universe of `width` positions."""
    return max(1, -(-width // 64))


def membership_matrix(row_bits, width: int) -> np.ndarray:
    """(len(row_bits), words) uint64 masks from per-row Python int masks over [0, width)."""
    import numpy as np

    words = words_for(width)
    data = b"".join(bits.to_bytes(8 * words, "little") for bits in row_bits)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(len(row_bits), words)


def mask_positions(mask: np.ndarray) -> tuple[int, ...]:
    """Sorted positions of the set bits of one (words,) mask."""
    bits = sum(int(word) << (64 * w) for w, word in enumerate(mask))
    return tuple(p for p in range(bits.bit_length()) if bits >> p & 1)


@functools.lru_cache(maxsize=64)
def suffix_table(width: int, k: int) -> np.ndarray:
    """All k-subsets of range(width) as (C(width, k), words) masks, in lex order.

    Built from the (k-1)-table: the subsets with minimum f are bit f ORed onto
    the tail of the (k-1)-table whose minimum exceeds f. Read-only, cached.
    """
    import numpy as np

    if k == 0:
        table = np.zeros((1, words_for(width)), dtype=np.uint64)
    else:
        sub = suffix_table(width, k - 1)
        parts = []
        for f in range(width - k + 1):
            part = sub[len(sub) - math.comb(width - f - 1, k - 1):].copy()
            part[:, f >> 6] |= np.uint64(1 << (f & 63))
            parts.append(part)
        table = np.concatenate(parts)
    table.flags.writeable = False
    return table


def intersection_sizes(member: np.ndarray, b_sets: np.ndarray, block_words: int) -> np.ndarray:
    """(rows, m) uint8: |row ∩ B| for every row mask and every candidate mask B.

    member: (rows, words) uint64; b_sets: (m, words) uint64 over the same
    universe, whose sizes stay below 256 (suffix-table masks hold k bits). Rows
    go in blocks, so that no uint64 temporary holds more than block_words
    words (or m, if that is more).
    """
    import numpy as np

    rows, words = member.shape
    out = np.empty((rows, len(b_sets)), dtype=np.uint8)
    step = max(1, block_words // max(1, len(b_sets)))
    for i in range(0, rows, step):
        block, sizes = member[i:i + step], out[i:i + step]
        np.bitwise_count(block[:, None, 0] & b_sets[:, 0], out=sizes)
        for w in range(1, words):
            sizes += np.bitwise_count(block[:, None, w] & b_sets[:, w])
    return out


def rows_meeting_threshold(needs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each candidate B, the number of rows r with sizes[B, r] >= needs[r].

    needs: (rows,) integer thresholds; sizes: (m, rows) intersection sizes, such
    as the transpose of a slice of `intersection_sizes`. Counts are summed in
    the narrowest unsigned type that holds the row count.
    """
    import numpy as np

    return (sizes >= needs).sum(axis=1, dtype=np.min_scalar_type(len(needs)))
