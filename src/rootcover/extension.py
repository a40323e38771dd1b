"""The double cover of V by {+-1} whose squares realize the quadratic form.

The group is pairs (sign, v) multiplied through an explicit bilinear
cocycle beta: upper-triangular bit rows whose diagonal carries the
refinement values on the basis and whose strict upper part carries the
pairing.  Then (s, v)(t, w) = (st * (-1)^beta(v, w), v + w), every element
squares to ((-1)^q(v), 0), and commutators descend to (-1)^<v, w>.  This
module holds the cocycle, which is all the commands use of the group.
"""

from __future__ import annotations

from typing import Tuple

from .f2 import F2QuadraticSpace, bilinear_eval, quadform_eval


class ExtensionError(ValueError):
    pass


class Cocycle:
    """Bilinear F2 cocycle beta, stored as bit rows (lower part zero)."""

    def __init__(self, dim: int, rows: Tuple[int, ...]):
        self.dim = dim
        self.rows = rows
        if len(self.rows) != self.dim:
            raise ExtensionError("row count mismatch")
        for i, row in enumerate(self.rows):
            if row & ((1 << i) - 1):
                raise ExtensionError("beta must vanish below the diagonal")
            if row >> self.dim:
                raise ExtensionError("beta bits beyond the dimension")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.rows) == (other.dim, other.rows)

    def beta(self, u: int, v: int) -> int:
        return bilinear_eval(self.rows, u, v)

    def q(self, v: int) -> int:
        return quadform_eval(self.rows, v)

    def pairing(self, u: int, v: int) -> int:
        return self.beta(u, v) ^ self.beta(v, u)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "beta": [[(row >> j) & 1 for j in range(self.dim)] for row in self.rows],
        }


def build_extension(space: F2QuadraticSpace) -> Cocycle:
    """Take beta to be the space's upper-triangular rows: the q values on the
    diagonal, the pairing strictly above it.

    The resulting group of order 2^(dim+1) has squares (-1)^q(v) and
    commutators (-1)^<v, w>.  The check here is exact for every v: the
    cocycle's q is a quadratic function whose polarization is its pairing,
    so matching q on the basis and the pairing on all basis pairs forces
    q(v) to match on all 2^dim vectors.
    """
    coc = Cocycle(space.dim, space.upper_rows)
    for i in range(space.dim):
        if coc.q(1 << i) != (space.qbits >> i) & 1:
            raise ExtensionError("cocycle fails to reproduce the refinement")
        for j in range(space.dim):
            if coc.pairing(1 << i, 1 << j) != space.pairing(1 << i, 1 << j):
                raise ExtensionError("cocycle fails to reproduce the pairing")
    return coc
