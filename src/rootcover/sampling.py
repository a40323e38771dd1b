"""Seeded random triples of basis indices for the sampled Jacobi check.

The triples are read in bulk: each getrandbits call returns 4,096 32-bit
words, and the top 3 b bits of a word (b the bits of dim - 1) are one draw of
three indices, rejected unless they are distinct and below dim.  The words
are the outputs that one getrandbits(3 b) call per draw would take, in the
same order, so a draw is uniform over the unordered triples and the sequence
is fixed by the seed.  Of the commands, only a sampled ``verify`` imports it.
"""

from __future__ import annotations

import random
import struct
from itertools import compress, islice
from typing import Iterator, List, Optional, Tuple

# 32-bit words per getrandbits call: 16 KB a chunk
WORDS = 4096


def _draw_columns(chunk: int, words: int, b: int, n: int
                  ) -> Tuple[bytes, List[Tuple[int, ...]]]:
    """The draws of one getrandbits(32 ``words``) ``chunk``.

    MT19937 serves getrandbits(32 m) as m 32-bit outputs, the first the least
    significant word, and getrandbits(k), k <= 32, as the top k bits of one
    output.  So word t of the chunk is draw t: its top 3 b bits x are what
    getrandbits(3 b) would have returned, with indices x & lane, x >> b & lane
    and x >> 2 b, lane = 2^b - 1.  Returns a selector, byte t nonzero exactly
    when draw t's indices are distinct and below n, and the three index
    columns.  Both are computed on all words at once, as integers whose 32-bit
    lanes are the words, and read back through little-endian bytes, so the
    host's byte order plays no part.  Needs b <= 10 (3 b bits in one word).
    """
    ones = int.from_bytes(b"\1\0\0\0" * words, "little")
    lanes, high = ones * ((1 << b) - 1), ones << 31
    shift = 32 - 3 * b
    i, j, k = [chunk >> (shift + t * b) & lanes for t in range(3)]
    # a lane value below 2^10 never carries out of its lane: v + 2^31 - 1 has
    # bit 31 set iff v != 0, and v + 2^31 - n iff v >= n
    below, over = high - ones, high - n * ones
    ok = ((i ^ j) + below & (j ^ k) + below & (i ^ k) + below
          & ~((i + over) | (j + over) | (k + over)) & high)
    column = f"<{words}I"
    return (ok.to_bytes(4 * words, "little")[3::4],
            [struct.unpack(column, c.to_bytes(4 * words, "little")) for c in (i, j, k)])


def sampled_triples(n: int, count: int, seed: Optional[int]
                    ) -> Iterator[Iterator[Tuple[int, int, int]]]:
    """``count`` draws of three distinct indices below n, the sequence
    determined by ``seed``, yielded one chunk of draws at a time.

    A draw is the top 3 b bits of one 32-bit word, b the bits of n - 1, cut
    into three indices as in _draw_columns and drawn again unless they are
    distinct and below n: every ordered triple of distinct indices is equally
    likely, so every unordered one, its sorted form, is.  The chunks hold
    exactly ``count`` accepted draws in all, in the order of one
    getrandbits(3 b) call per draw.
    """
    # rank <= 16 bounds n by 496 (D16), so b <= 9
    draw, b = random.Random(seed).getrandbits, (n - 1).bit_length()
    while count:
        accepted, columns = _draw_columns(draw(32 * WORDS), WORDS, b, n)
        take = min(count, WORDS - accepted.count(0))
        count -= take
        yield islice(compress(zip(*columns), accepted), take)
