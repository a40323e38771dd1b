"""Exact integer and rational matrix utilities (no floating point anywhere).

Integer determinants are fraction-free (Bareiss); every other elimination
over a field, rational or Gaussian rational, goes through field_eliminate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, List, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*[tuple(row) for row in m])) if m else ()


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_invariant_factors(m: Sequence[Sequence[int]]) -> List[int]:
    """Nontrivial invariant factors (> 1) of an integer matrix."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors: List[int] = []
    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        # clear the pivot row and column by Euclid steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(rows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        piv = a[t][t]
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % piv:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            for j in range(cols):
                a[t][j] += a[culprit][j]
            continue
        factors.append(abs(piv))
        t += 1
    return [f for f in factors if f != 1]


def integer_kernel(rows: Sequence[Sequence[int]], n: int) -> List[Tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^n : row . x = 0 for all rows}.

    Column reduction with a unimodular transform, so the result is a basis of
    the saturated kernel lattice.
    """
    m = len(rows)
    a_cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    u_cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    active = list(range(n))
    for r in range(m):
        live = [c for c in active if a_cols[c][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(a_cols[c][r]))
            base = live[0]
            for c in live[1:]:
                q = a_cols[c][r] // a_cols[base][r]
                for i in range(m):
                    a_cols[c][i] -= q * a_cols[base][i]
                for i in range(n):
                    u_cols[c][i] -= q * u_cols[base][i]
            live = [c for c in live if a_cols[c][r] != 0]
        if live:
            active.remove(live[0])
    return [tuple(u_cols[c]) for c in active]


def row_lattice_index(vectors: Sequence[Sequence[int]], n: int) -> int:
    """Index in Z^n of the lattice generated by the given row vectors.

    Returns 0 when the rows do not span a finite-index sublattice.
    """
    basis: dict[int, List[int]] = {}  # leading column -> echelon row
    for vec in vectors:
        v = list(vec)
        while True:
            lead = next((i for i, x in enumerate(v) if x != 0), None)
            if lead is None:
                break
            if lead not in basis:
                basis[lead] = v
                break
            b = basis[lead]
            q = v[lead] // b[lead]
            v = [x - q * y for x, y in zip(v, b)]
            if v[lead]:
                basis[lead], v = v, b
    if len(basis) < n:
        return 0
    det = 1
    for lead, b in basis.items():
        det *= b[lead]
    return abs(det)


def field_eliminate(rows: Sequence[Sequence[Any]], one: Any,
                    full: bool = False) -> Tuple[Any, List[List[Any]]]:
    """Exact Gaussian elimination over a field: Fraction or gaussian.GQ.

    Row-reduces a copy of the n-row matrix ``rows`` (n or more columns) until
    its leading n x n block is upper unitriangular, or with ``full`` the
    identity.  Returns (determinant of that block, reduced rows); at the first
    column without a pivot it stops and returns a zero determinant.  ``one``
    is the field's unit; entries test for zero by truth value.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return one - one, a
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = one / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(0 if full else col + 1, n):
            f = a[r][col]
            if r != col and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, a


def rational_inverse(m: Sequence[Sequence[int]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix, entries as Fractions."""
    n = len(m)
    augmented = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
                 for i, row in enumerate(m)]
    det, reduced = field_eliminate(augmented, Fraction(1), full=True)
    if not det:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in reduced)


def ldlt(gram: Sequence[Sequence[int]]) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """Decompose a symmetric matrix as Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.

    Raises ValueError when the matrix is not positive definite.
    """
    n = len(gram)
    d: List[Fraction] = [Fraction(0)] * n
    u: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = Fraction(gram[i][i])
        for k in range(i):
            di -= d[k] * u[k][i] * u[k][i]
        if di <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = di
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            val = Fraction(gram[i][j])
            for k in range(i):
                val -= d[k] * u[k][i] * u[k][j]
            u[i][j] = val / di
    return d, u


def is_positive_definite(gram: Sequence[Sequence[int]]) -> bool:
    try:
        ldlt(gram)
    except ValueError:
        return False
    return True
