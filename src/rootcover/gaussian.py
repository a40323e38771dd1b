"""Exact Gaussian-rational scalars, unit monomial matrices, and sparse linear algebra.

Scalars are a + b*i with a, b rational; equality is exact.  Monomial matrices
(one nonzero entry per row) have every entry in {1, i, -1, -i} and are
stored as a column permutation and one phase mod 4 per row, so a product
costs O(n) integer operations.  Gaussian rationals are used where matrices
meet field arithmetic: traces, sparse solves and small dense determinants
(through intmat.field_eliminate).  The commutant and invariant-form systems
have equations of two phase terms; ``phase_rows`` normalizes and
deduplicates them in integers, so only the distinct rows reach
``sparse_nullspace``.  The sparse echelon works over any
field; ``sparse_rank`` also ranks the quartic probe's ``Fraction`` rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class GQ:
    """A Gaussian rational re + im*i."""

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __add__(self, other: "GQ") -> "GQ":
        return GQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GQ") -> "GQ":
        return GQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, other: "GQ") -> "GQ":
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GQ") -> "GQ":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self


def gq(re=0, im=0) -> GQ:
    return GQ(Fraction(re), Fraction(im))


ZERO = gq(0)
ONE = gq(1)
I = gq(0, 1)
MINUS_ONE = gq(-1)


# i**k as an integer pair (re, im) and as a Gaussian rational, k = 0..3
_UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))
_POWERS_OF_I = (ONE, I, MINUS_ONE, -I)


class MonoMat:
    """Monomial matrix with entries in {1, i, -1, -i}.

    Row r has its unique nonzero entry i**phase[r] at column col[r].  ``col``
    is a permutation of range(n) and every phase lies in 0..3, so equal
    matrices have equal fields.  A product composes the permutations and adds
    phases mod 4; negation adds 2 to every phase.  Gaussian rationals appear
    only where a matrix meets field arithmetic: ``entries``, ``trace`` and
    ``scalar_value``.

    For loops over many products, ``code`` packs row r as 4 * col[r] +
    phase[r] and ``right_table`` is the 4n-entry lookup table of right
    multiplication, so that the rows of A * B are
    ``tuple(map(B.right_table().__getitem__, A.code()))``.
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

    def trace(self) -> GQ:
        re = im = 0
        for r, c in enumerate(self.col):
            if r == c:
                a, b = _UNIT[self.phase[r]]
                re += a
                im += b
        return gq(re, im)

    def scalar_value(self) -> Optional[GQ]:
        """The scalar s when the matrix equals s * identity, else None."""
        if any(c != r for r, c in enumerate(self.col)):
            return None
        p = self.phase[0]
        return _POWERS_OF_I[p] if all(q == p for q in self.phase) else None

    def entries(self) -> Iterable[Tuple[int, int, GQ]]:
        for r, c in enumerate(self.col):
            yield r, c, _POWERS_OF_I[self.phase[r]]

    def code(self) -> Tuple[int, ...]:
        """Row r packed as 4 * col[r] + phase[r]."""
        return tuple(4 * c + p for c, p in zip(self.col, self.phase))

    def right_table(self) -> Tuple[int, ...]:
        """T with (A * self).code()[r] = T[A.code()[r]] for every A of size n."""
        return tuple(4 * c + ((p + q) & 3)
                     for c, q in zip(self.col, self.phase) for p in range(4))


def add_terms(acc: Dict[Any, Any], terms: Iterable[Tuple[Any, Any]]) -> Dict[Any, Any]:
    """acc[k] += v for every term (k, v), dropping keys whose sum is zero.

    Serves integer and Gaussian-rational sparse vectors alike; returns acc.
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
    """Incremental sparse row reduction over a field: Gaussian rationals for
    the representation's systems, ``Fraction`` for the quartic Macaulay
    matrix."""

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

    def reduced(self) -> Dict[int, Dict[int, Any]]:
        """The pivot rows by lead, each reduced to zero at every other pivot
        column.  A pivot row has no entry left of its lead, so clearing the
        larger leads first brings no cleared entry back."""
        reduced: Dict[int, Dict[int, Any]] = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for other_lead, other in reduced.items():
                if other_lead in row:
                    neg = -row[other_lead]
                    add_terms(row, ((c, neg * v) for c, v in other.items()))
            reduced[lead] = row
        return reduced

    def nullspace(self, ncols: int) -> List[Dict[int, GQ]]:
        """Basis of the solution space of (rows) x = 0, one vector per free
        column, by back-substitution into the reduced rows."""
        reduced = self.reduced()
        basis = []
        for f_col in range(ncols):
            if f_col in reduced:
                continue
            vec: Dict[int, GQ] = {f_col: ONE}
            for lead, row in reduced.items():
                if f_col in row:
                    vec[lead] = -row[f_col]
            basis.append(vec)
        return basis


def sparse_nullspace(rows: Iterable[Dict[int, GQ]], ncols: int) -> List[Dict[int, GQ]]:
    ech = _SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech.nullspace(ncols)


PhaseTerm = Tuple[int, int]  # (u, p): the term i**p * x_u


def phase_rows(equations: Iterable[Sequence[PhaseTerm]]) -> List[Dict[int, GQ]]:
    """The distinct rows of homogeneous equations sum i**p x_u = 0 with at
    most two terms each; ``sparse_nullspace`` of them is the solution space
    of the equations.

    Each equation becomes, in integers, a normal form with 1 on its lowest
    unknown: two terms on one unknown cancel (opposite phases; the equation
    is dropped) or force x_u = 0; two on distinct unknowns u < v become
    x_u + i**k x_v.  Equal normal forms are unit multiples of each other, so
    each is converted to a Gaussian-rational row once.
    """
    distinct: Dict[Tuple[int, ...], None] = {}
    for eq in equations:
        if len(eq) > 2:
            raise ValueError("a phase equation has at most two terms")
        if not eq:
            continue
        if len(eq) == 1:
            distinct[(eq[0][0],)] = None
            continue
        (u, p), (v, q) = eq
        if u == v:
            if (p - q) & 3 != 2:
                distinct[(u,)] = None
        elif u < v:
            distinct[(u, v, (q - p) & 3)] = None
        else:
            distinct[(v, u, (p - q) & 3)] = None
    return [{key[0]: ONE} if len(key) == 1
            else {key[0]: ONE, key[1]: _POWERS_OF_I[key[2]]} for key in distinct]


def sparse_rank(rows: Iterable[Dict[int, Any]]) -> int:
    """Exact rank of sparse rows over any field (``GQ`` or ``Fraction``)."""
    ech = _SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech.rank
