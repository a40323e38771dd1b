"""Exact integer and rational matrix utilities (no floating point anywhere).

Determinants are fraction-free (Bareiss), taken block by block over the
connected blocks of the off-diagonal pattern, and ldlt gives the rational
LDL^T that root enumeration bounds from; src inverts no matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

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
    """Fraction-free determinant of a square integer matrix: the product of
    the Bareiss determinants of the connected blocks of its nonzero
    off-diagonal pattern, which one permutation of rows and columns makes
    block diagonal (an index with no off-diagonal entry is a 1-block)."""
    n = len(m)
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] or m[j][i]:
                root[find(j)] = find(i)
    blocks: dict[int, List[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    det = 1
    for block in blocks.values():
        det *= _bareiss([[m[i][j] for j in block] for i in block])
    return det


def _bareiss(a: List[List[int]]) -> int:
    """Fraction-free determinant of a square integer matrix, in place."""
    n = len(a)
    if n == 0:
        return 1
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

