"""The real 2-descent orbit table over the type E6 datum.

Each involution class of the Weyl group determines: g = 3 - rank((1 + w) mod
2), the group size 2^g, the orbit count (the zeros of q on a 2g-dimensional
Arf-0 space, checked against 2^(g-1) (2^g + 1)), and the number of invariant
odd refinements of the mod-2 space (the real bitangent count).  The
curve topology columns n(C) and a(C) are carried metadata, not computed.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .f2 import (F2QuadraticSpace, arf, mod2_bits, mul_vec, parity,
                 standard_symplectic_space)
from .intmat import IntMatrix, matmul, identity
from .lattice import (RootDatum, WeylInvolutionClass, mod2_rank_one_plus,
                      mod2_space)


class RealTableError(ValueError):
    pass


CARRIED_TOPOLOGY: Dict[str, Tuple[int, int]] = {
    "1": (4, 0),
    "s1": (3, 1),
    "s1s2": (2, 1),
    "s1s2s3": (1, 1),
    "tau": (2, 0),
}

EXPECTED_COLUMNS: Dict[str, Tuple[int, int, int]] = {
    # label: (real bitangents, #J(R)/2J(R), orbit count)
    "1": (28, 8, 36),
    "s1": (16, 4, 10),
    "s1s2": (8, 2, 3),
    "s1s2s3": (4, 1, 1),
    "tau": (4, 2, 3),
}


class TableRow:
    def __init__(self, label: str, n_c: int, a_c: int, real_bitangents: int,
                 j_mod_2j_size: int, orbit_count: int):
        self.label = label
        self.n_c = n_c
        self.a_c = a_c
        self.real_bitangents = real_bitangents
        self.j_mod_2j_size = j_mod_2j_size
        self.orbit_count = orbit_count
        if self.orbit_count != orbit_count_from_size(self.j_mod_2j_size):
            raise RealTableError("orbit count inconsistent with group size")

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
                              w_mod2_rows: Sequence[int]) -> int:
    """Count refinements q' with q' o w = q' and Arf(q') = 1.

    Every refinement of the fixed pairing is q0 + f for a functional f; the
    base q0 (from the lattice) is itself w-invariant, which is asserted.
    """
    n = space.dim
    for v in range(1 << n):
        if space.q(mul_vec(w_mod2_rows, v)) != space.q(v):
            raise RealTableError("base refinement is not invariant under w")
    columns = [mul_vec(w_mod2_rows, 1 << i) for i in range(n)]
    count = 0
    for f in range(1 << n):
        if any(parity(f & col) != (f >> i) & 1 for i, col in enumerate(columns)):
            continue
        shifted = F2QuadraticSpace(n, space.gram, space.qbits ^ f)
        if arf(shifted) == 1:
            count += 1
    return count


def row_for_involution(w: IntMatrix, datum: RootDatum, label: str) -> TableRow:
    """Compute a table row from an involution given as an integer matrix."""
    if datum.type_name != "E6":
        raise RealTableError("the table is defined over the E6 datum")
    n = datum.rank
    if matmul(w, w) != identity(n):
        raise RealTableError("matrix is not an involution")
    r = mod2_rank_one_plus(w)
    g = 3 - r
    if g < 0:
        raise RealTableError("mod-2 rank exceeds 3")
    size = 1 << g
    space = mod2_space(datum)
    bitangents = invariant_odd_refinements(space, [mod2_bits(row) for row in w])
    n_c, a_c = CARRIED_TOPOLOGY[label]
    return TableRow(label, n_c, a_c, bitangents, size, orbit_count(g))


def emit_table(datum: RootDatum,
               classes: Sequence[WeylInvolutionClass]) -> Tuple[TableRow, ...]:
    """Compute the row of each involution class, asserting the expected
    column values exactly."""
    rows = []
    for cls in classes:
        row = row_for_involution(cls.representative, datum, label=cls.label)
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
