"""Bit-packed linear algebra over F2.

Vectors are ints used as bitmasks, matrices are tuples of row bitmasks.  The
module houses strictly alternating pairings together with their quadratic
refinements, whose upper-triangular bit rows are also the cocycle of the
double cover (see extension), Arf invariants and refinement counting.

Nothing changes after construction and everything is exact; dimensions are
capped at 16 so that exhaustive loops over all vectors or all refinements stay
cheap.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

MAX_DIM = 16


class F2Error(ValueError):
    """Raised on dimension mismatches, degenerate pairings, bad involutions."""


def parity(x: int) -> int:
    return x.bit_count() & 1


def mul_vec(rows: Sequence[int], v: int) -> int:
    """The matrix with bit rows ``rows`` times the column vector ``v``."""
    out = 0
    for i, row in enumerate(rows):
        if parity(row & v):
            out |= 1 << i
    return out


def mod2_bits(coords: Sequence[int]) -> int:
    """Reduce an integer vector mod 2 to the bitmask of its odd coordinates."""
    bits = 0
    for i, c in enumerate(coords):
        if c & 1:
            bits |= 1 << i
    return bits


def bilinear_eval(rows: Sequence[int], u: int, v: int) -> int:
    """u^T S v over F2 for the matrix S with bit rows ``rows``."""
    acc = 0
    t = u
    while t:
        i = (t & -t).bit_length() - 1
        t &= t - 1
        acc ^= parity(rows[i] & v)
    return acc


def quadform_eval(rows: Sequence[int], v: int) -> int:
    """Evaluate sum_i S_ii v_i + sum_{i<j} S_ij v_i v_j for bit rows S."""
    acc = 0
    t = v
    while t:
        i = (t & -t).bit_length() - 1
        t &= t - 1
        acc ^= parity(rows[i] & v & ~((1 << i) - 1))
    return acc


def f2_echelon(rows: Sequence[int], ncols: int) -> List[Tuple[int, int]]:
    """Gauss-Jordan elimination over F2 on the low ``ncols`` bits of each row.

    Returns the nonzero reduced rows as (pivot column, row) pairs in column
    order; each pivot bit is set in its own row only.  Bits at or above
    ``ncols`` are carried along but never pivoted on, so a row tagged there
    records which input rows were added into it.
    """
    pending = list(rows)
    reduced: List[Tuple[int, int]] = []
    for col in range(ncols):
        bit = 1 << col
        idx = next((i for i, r in enumerate(pending) if r & bit), None)
        if idx is None:
            continue
        piv = pending.pop(idx)
        pending = [r ^ piv if r & bit else r for r in pending]
        reduced = [(c, r ^ piv if r & bit else r) for c, r in reduced]
        reduced.append((col, piv))
    return reduced


def f2_rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over F2 of the row bitmasks."""
    return len(f2_echelon(rows, ncols))


def f2_solve(basis: Sequence[int], target: int, ncols: int) -> Optional[int]:
    """Coefficient bitmask c with target = sum of basis[i] over the bits i of
    c, or None when target lies outside the span.  Unique when the basis
    vectors are independent."""
    tagged = [b | (1 << (ncols + i)) for i, b in enumerate(basis)]
    vec = target
    for col, row in f2_echelon(tagged, ncols):
        if (vec >> col) & 1:
            vec ^= row
    if vec & ((1 << ncols) - 1):
        return None
    return vec >> ncols


class F2QuadraticSpace:
    """An F2 space with a strictly alternating pairing and a quadratic refinement.

    ``gram`` holds the bit rows of the pairing and ``qbits`` the values of the
    refinement on the standard basis; all other values are reconstructed
    through the polarization identity q(v + w) = q(v) + q(w) + <v, w>.

    The same data is the double cover's cocycle (see extension): ``beta``,
    on the bit rows ``upper_rows``, has beta(v, v) = q(v) and
    beta(u, v) + beta(v, u) = <u, v>.
    """

    def __init__(self, dim: int, gram: Tuple[int, ...], qbits: int):
        self.dim = dim
        self.gram = gram
        self.qbits = qbits
        if not 0 <= self.dim <= MAX_DIM:
            raise F2Error(f"dimension {self.dim} outside [0, {MAX_DIM}]")
        if len(self.gram) != self.dim:
            raise F2Error("gram shape mismatch")
        if any(row >> self.dim for row in self.gram) or self.qbits >> self.dim:
            raise F2Error("set bits beyond the declared dimension")
        for i, row in enumerate(self.gram):
            if (row >> i) & 1 or any(((self.gram[j] >> i) ^ (row >> j)) & 1
                                     for j in range(i)):
                raise F2Error("pairing must be symmetric with zero diagonal")

    @cached_property
    def upper_rows(self) -> Tuple[int, ...]:
        """Bit rows with q_i on the diagonal and the pairing strictly above it."""
        return tuple((row & ~((2 << i) - 1)) | (self.qbits & (1 << i))
                     for i, row in enumerate(self.gram))

    def pairing(self, u: int, v: int) -> int:
        return bilinear_eval(self.gram, u, v)

    def beta(self, u: int, v: int) -> int:
        """The cover's cocycle u^T B v, B the ``upper_rows``."""
        return bilinear_eval(self.upper_rows, u, v)

    def q(self, v: int) -> int:
        """q(v) = sum_i q_i v_i + sum_{i<j} gram_ij v_i v_j."""
        return quadform_eval(self.upper_rows, v)


def standard_symplectic_space(g: int, qbits: int = 0) -> F2QuadraticSpace:
    """The 2g-dim space with hyperbolic pairs (e_{2k}, e_{2k+1})."""
    dim = 2 * g
    rows = []
    for i in range(dim):
        rows.append(1 << (i ^ 1))
    return F2QuadraticSpace(dim, tuple(rows), qbits)


def symplectic_decomposition(space: F2QuadraticSpace) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Greedy hyperbolic-pair peeling.

    Returns (pairs, radical): a list of hyperbolic pairs (v, w) with
    <v, w> = 1 and a basis of the radical, jointly a basis of the space.
    """
    remaining = [1 << i for i in range(space.dim)]
    pairs: List[Tuple[int, int]] = []
    radical: List[int] = []
    while remaining:
        v = remaining.pop(0)
        partner = None
        for idx, u in enumerate(remaining):
            if space.pairing(v, u):
                partner = idx
                break
        if partner is None:
            radical.append(v)
            continue
        w = remaining.pop(partner)
        reduced = []
        for u in remaining:
            if space.pairing(u, w):
                u ^= v
            if space.pairing(u, v):
                u ^= w
            reduced.append(u)
        remaining = reduced
        pairs.append((v, w))
    return pairs, radical


def arf(space: F2QuadraticSpace) -> int:
    """Arf invariant sum q(e_i) q(eps_i) over a computed symplectic basis."""
    if space.dim % 2:
        raise F2Error("odd dimension")
    pairs, radical = symplectic_decomposition(space)
    if radical:
        raise F2Error("degenerate pairing")
    a = 0
    for v, w in pairs:
        a ^= space.q(v) & space.q(w)
    return a


def count_refinements_by_arf(g: int) -> Tuple[int, int]:
    """Brute-force all 2^(2g) refinements of the standard symplectic space.

    Returns (count with Arf 0, count with Arf 1).  The Arf invariant of each
    refinement is read off directly from its basis values on the standard
    hyperbolic pairs, independent of the generic ``arf`` routine.
    """
    if not 1 <= g <= 4:
        raise F2Error("g outside [1, 4] (combinatorial explosion guard)")
    even_mask = sum(1 << (2 * k) for k in range(g))
    count0 = count1 = 0
    for qb in range(1 << (2 * g)):
        a = parity(qb & (qb >> 1) & even_mask)
        if a:
            count1 += 1
        else:
            count0 += 1
    return count0, count1
