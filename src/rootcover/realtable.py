"""The real 2-descent orbit table over the type E6 datum.

Each involution class of the Weyl group determines: g = 3 - rank((1 + w) mod
2), the group size #J(R)/2J(R) = 2^g, the orbit count (the zeros of q on a
2g-dimensional Arf-0 space, checked against 2^(g-1) (2^g + 1)), and the
number of invariant odd refinements of the mod-2 space (the real bitangent
count).  A real genus-3 curve with n(C) >= 1 real components has
#J(R)/2J(R) = 2^(n(C) - 1), and 2^(n(C) + 1) - 4 + 4 a(C) real bitangents,
a(C) = 0 when C(R) divides C(C) (Gross and Harris, Ann. Sci. ENS 14, 1981):
so n(C) and a(C) are computed.

Only w mod 2 enters.  Its columns are the classes of the roots that the
representative permutation sends the simple roots to, so w v is the sum of
the columns at the set bits of v; the mod-2 space is built once per table.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .f2 import F2QuadraticSpace, f2_rank, standard_symplectic_space, vec_mat
from .lattice import RootDatum, WeylInvolutionClass, mod2_space


class RealTableError(ValueError):
    pass


EXPECTED_COLUMNS: Dict[str, Tuple[int, int, int]] = {
    # label: (real bitangents, #J(R)/2J(R), orbit count)
    "1": (28, 8, 36),
    "s1": (16, 4, 10),
    "s1s2": (8, 2, 3),
    "s1s2s3": (4, 1, 1),
    "tau": (4, 2, 3),
}


class TableRow:
    """A row, with n(C) = 1 + log2 #J(R)/2J(R) and a(C) computed: a(C) = 1 at
    2^(n(C) + 1) real bitangents, 0 at 2^(n(C) + 1) - 4, and any other count
    raises."""

    def __init__(self, label: str, real_bitangents: int, j_mod_2j_size: int,
                 orbit_count: int):
        self.label = label
        self.real_bitangents = real_bitangents
        self.j_mod_2j_size = j_mod_2j_size
        self.orbit_count = orbit_count
        if self.orbit_count != orbit_count_from_size(self.j_mod_2j_size):
            raise RealTableError("orbit count inconsistent with group size")
        self.n_c = j_mod_2j_size.bit_length()       # the size is a power of 2
        top = 1 << (self.n_c + 1)
        if real_bitangents not in (top, top - 4):
            raise RealTableError(f"row {label}: {real_bitangents} real bitangents "
                                 f"fit no real curve with n(C) = {self.n_c}")
        self.a_c = int(real_bitangents == top)

    def to_json_dict(self) -> dict:
        return {
            "class": self.label,
            "n": self.n_c,
            "a": self.a_c,
            "real_bitangents": self.real_bitangents,
            "j_mod_2j": self.j_mod_2j_size,
            "orbits": self.orbit_count,
        }


def orbit_count_from_size(size: int) -> int:
    return size * (size + 1) // 2


def invariant_odd_refinements(space: F2QuadraticSpace,
                              w_columns: Sequence[int]) -> int:
    """Count refinements q' with q' o w = q' and Arf(q') = 1.

    Each refinement is q'(v) = q(v) + <a, v> = q(v + a) + q(a) for one a, so
    its Arf invariant, the majority value, is Arf(q) + q(a).  Given q o w = q,
    checked here on every vector, q' is w-invariant exactly when w a = a, once
    |zeros - ones| = 2^(dim / 2) shows the pairing nondegenerate.  So the
    count is #{a : w a = a, q(a) != Arf(q)}, from one pass over the vectors.
    ``w_columns`` are the images of the basis vectors: w v sums those at the
    set bits of v.
    """
    n = space.dim
    ones = fixed = fixed_ones = 0
    for v in range(1 << n):
        wv = vec_mat(w_columns, v)
        qv = space.q(v)
        if space.q(wv) != qv:
            raise RealTableError("base refinement is not invariant under w")
        ones += qv
        if wv == v:
            fixed += 1
            fixed_ones += qv
    zeros = (1 << n) - ones
    if (zeros - ones) ** 2 != 1 << n:
        raise RealTableError("the pairing of the mod-2 space is degenerate")
    return fixed - fixed_ones if ones > zeros else fixed_ones


def row_for_involution(space: F2QuadraticSpace, w_columns: Sequence[int],
                       label: str) -> TableRow:
    """Compute a table row from an involution w mod 2, given by its columns."""
    # the columns of 1 + w span its image; (1 + w)^2 = 2 (1 + w) = 0 mod 2, so
    # its mod-2 rank is <= 6 / 2 and g >= 0
    g = 3 - f2_rank([c ^ (1 << i) for i, c in enumerate(w_columns)], space.dim)
    bitangents = invariant_odd_refinements(space, w_columns)
    return TableRow(label, bitangents, 1 << g, orbit_count(g))


def emit_table(datum: RootDatum,
               classes: Sequence[WeylInvolutionClass]) -> Tuple[TableRow, ...]:
    """Compute the row of each involution class, asserting the expected
    column values exactly."""
    if datum.type_name != "E6":
        raise RealTableError("the table is defined over the E6 datum")
    space = mod2_space(datum)
    rows = []
    for cls in classes:
        row = row_for_involution(space, datum.mod2_columns(cls.representative),
                                 label=cls.label)
        expected = EXPECTED_COLUMNS[cls.label]
        got = (row.real_bitangents, row.j_mod_2j_size, row.orbit_count)
        if got != expected:
            raise RealTableError(
                f"row {cls.label}: computed {got}, expected {expected}")
        rows.append(row)
    return tuple(rows)


def orbit_count(g: int) -> int:
    """Count q^{-1}(0) on a 2g-dimensional Arf-0 space by brute force
    (TableRow checks the count against the closed formula)."""
    if not 0 <= g <= 3:
        raise RealTableError("g outside [0, 3]")
    space = standard_symplectic_space(g, qbits=0)
    return sum(1 for v in range(1 << (2 * g)) if space.q(v) == 0)
