"""Hot counting kernel for exhaustive combinatorial verification.

Both verifiers reduce to one primitive: given row masks (committees or
receiver adjacency rows) and a batch of candidate fault-set masks B over the
same universe, count for each B how many rows have at least `threshold`
members inside B. The threshold is an integer quota (`params.overload_quota`),
so the popcounts are compared as integers, never cast to float.

Sets are uint64 bitsets over positions 0..width-1 of their universe, one row
of `words = ceil(width/64)` words per set (bit p lives in word p // 64).
Intersection sizes are popcounts of ANDed words (`np.bitwise_count`,
numpy >= 2.0).

`suffix_table(width, k)` lists every k-subset of range(width) as masks in
lexicographic order (Knuth, TAOCP vol. 4A, §7.2.1.3). The subsets whose
minimum is at least j form a suffix of that order, which is what lets the
verifiers build every fault set as a cached tail slice ORed with a prefix.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def words_for(width: int) -> int:
    """uint64 words per mask over a universe of `width` positions."""
    return max(1, -(-width // 64))


def set_words(positions, words: int) -> list[int]:
    """The mask of a set of positions as `words` uint64 values, low word first."""
    bits = 0
    for p in positions:
        bits |= 1 << p
    return [(bits >> (64 * w)) & 0xFFFF_FFFF_FFFF_FFFF for w in range(words)]


def membership_matrix(rows, width: int) -> np.ndarray:
    """(len(rows), words) uint64 masks from per-row position lists in [0, width)."""
    words = words_for(width)
    return np.array([set_words(ids, words) for ids in rows], dtype=np.uint64).reshape(len(rows), words)


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


def rows_meeting_threshold(member: np.ndarray, b_sets: np.ndarray, threshold: int) -> np.ndarray:
    """For each candidate mask B, the number of row masks with >= threshold bits in B.

    member: (rows, words) uint64; b_sets: (m, words) uint64 over the same universe.
    """
    words = b_sets.shape[1]
    out = np.zeros(len(b_sets), dtype=np.int32)  # a count never exceeds the row count
    for row in member:
        inter = np.bitwise_count(b_sets[:, 0] & row[0])
        if words > 1:
            inter = inter.astype(np.int64)  # a uint8 popcount sum could wrap past 255
            for w in range(1, words):
                inter += np.bitwise_count(b_sets[:, w] & row[w])
        out += inter >= threshold
    return out
