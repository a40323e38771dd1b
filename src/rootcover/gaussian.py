"""Unit monomial matrices over Z[i] and sparse linear algebra, in integers
and ``Fraction`` only.

Monomial matrices (one nonzero entry per row) have every entry in
{1, i, -1, -i} and are stored as a column permutation and one phase mod 4
per row, so a product costs O(n) integer operations; a unit i**k is the
phase k, or the integer pair ``UNITS[k]`` where its real and imaginary parts
are written out; the exhaustive checks multiply rows packed into bytes with
``bytes.translate``.  ``trace_gram_failure`` checks the trace Gram matrix of unit
monomials in Gaussian integers.  The sparse echelon of ``sparse_rank`` ranks
the quartic probe's ``Fraction`` rows.  No linear system over Z[i] is solved:
the representation is certified by traces and by exhibited witnesses.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

# i**k as an integer pair (re, im), k = 0..3
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# the translate table of negation on packed rows: phase + 2 flips bit 1
NEGATE = bytes(x ^ 2 for x in range(256))


class MonoMat:
    """Monomial matrix with entries in {1, i, -1, -i}.

    Row r has its unique nonzero entry i**phase[r] at column col[r].  ``col``
    is a permutation of range(n) and every phase lies in 0..3, so equal
    matrices have equal fields.  A product composes the permutations and adds
    phases mod 4; negation adds 2 to every phase; the transpose inverts the
    permutation and keeps each entry.

    For loops over many products, ``code`` packs row r into the byte 4 * col[r]
    + phase[r] (so n <= 64) and T = ``B.right_table()``, 256 bytes, multiplies
    by B on the right: ``A.code().translate(T) == (A * B).code()``, one C pass
    however many rows are packed together; ``NEGATE`` negates, x ^ 2.
    """

    def __init__(self, n: int, col: Tuple[int, ...], phase: Tuple[int, ...]):
        self.n = n
        self.col = col
        self.phase = phase
        if len(self.col) != self.n or sorted(self.col) != list(range(self.n)):
            raise ValueError("col must be a permutation of range(n)")
        if len(self.phase) != self.n or any(p not in (0, 1, 2, 3) for p in self.phase):
            raise ValueError("phases must be n values in 0..3")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.col, self.phase) == (other.n, other.col, other.phase)

    @staticmethod
    def identity(n: int) -> "MonoMat":
        return MonoMat(n, tuple(range(n)), (0,) * n)

    def __mul__(self, other: "MonoMat") -> "MonoMat":
        oc, op = other.col, other.phase
        return MonoMat(self.n, tuple(oc[c] for c in self.col),
                       tuple((p + op[c]) & 3 for p, c in zip(self.phase, self.col)))

    def __neg__(self) -> "MonoMat":
        return MonoMat(self.n, self.col, tuple((p + 2) & 3 for p in self.phase))

    def transpose(self) -> "MonoMat":
        """The transpose: row col[r] has the entry i**phase[r] at column r."""
        col, phase = [0] * self.n, [0] * self.n
        for r, (c, p) in enumerate(zip(self.col, self.phase)):
            col[c], phase[c] = r, p
        return MonoMat(self.n, tuple(col), tuple(phase))

    def scalar_value(self) -> Optional[int]:
        """The phase k when the matrix equals i**k * identity, else None."""
        if any(c != r for r, c in enumerate(self.col)):
            return None
        p = self.phase[0]
        return p if all(q == p for q in self.phase) else None

    def code(self) -> bytes:
        """Row r packed as the byte 4 * col[r] + phase[r]."""
        if self.n > 64:
            raise ValueError(f"{self.n} rows do not pack into bytes (at most 64)")
        return bytes(4 * c + p for c, p in zip(self.col, self.phase))

    def right_table(self) -> bytes:
        """T with A.code().translate(T) == (A * self).code(), 0 from byte 4n on."""
        return bytes(4 * c + ((p + q) & 3) for c, q in zip(self.col, self.phase)
                     for p in range(4)).ljust(256, b"\0")


def trace_gram_failure(mats: Sequence[MonoMat]) -> Optional[Tuple[Tuple[int, int],
                                                                    Tuple[int, int]]]:
    """The first entry ((a, b), (re, im)), a <= b in row order, at which the
    Hermitian trace Gram matrix G_ab = tr(U_a* U_b) of the unit monomials
    differs from n * identity; None when G = n * identity.

    (U_a* U_b)[c, c] sums conj(U_a[r, c]) U_b[r, c] over r, so G_ab is the
    sum of i**(p_b - p_a) over the rows r where U_a and U_b share their column,
    p_a and p_b being the phases of those rows: a Gaussian integer.
    """
    n = mats[0].n
    codes = [m.code() for m in mats]
    for a, ca in enumerate(codes):
        for b in range(a, len(codes)):
            count = [0, 0, 0, 0]         # rows by phase difference mod 4
            for x, y in zip(ca, codes[b]):
                if x >> 2 == y >> 2:
                    count[(y - x) & 3] += 1
            value = (count[0] - count[2], count[1] - count[3])
            if value != ((n, 0) if a == b else (0, 0)):
                return (a, b), value
    return None


def add_terms(acc: Dict[Any, Any], terms: Iterable[Tuple[Any, Any]]) -> Dict[Any, Any]:
    """acc[k] += v for every term (k, v), dropping keys whose sum is zero.

    Serves integer and ``Fraction`` sparse vectors alike; returns acc.
    """
    for k, v in terms:
        if k in acc:
            v = acc[k] + v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


class _SparseEchelon:
    """Incremental sparse row reduction over a field, here ``Fraction``, for
    the quartic Macaulay matrix."""

    def __init__(self) -> None:
        self.pivots: Dict[int, Dict[int, Any]] = {}

    def insert(self, row: Dict[int, Any]) -> bool:
        """Reduce a row against the pivots; returns True when rank grew."""
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                scale = row[lead]
                self.pivots[lead] = {c: v / scale for c, v in row.items()}
                return True
            neg = -row[lead]
            add_terms(row, ((c, neg * v) for c, v in piv.items()))
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def sparse_rank(rows: Iterable[Dict[int, Any]]) -> int:
    """Exact rank of sparse rows over a field (``Fraction`` in src)."""
    ech = _SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech.rank
