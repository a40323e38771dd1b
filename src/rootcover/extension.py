"""The double cover of V by {+-1} whose squares realize the quadratic form.

The group is modelled concretely as pairs (sign, v) multiplied through an
explicit bilinear cocycle beta: upper-triangular bit rows whose diagonal
carries the refinement values on the basis and whose strict upper part
carries the pairing.  Then (s, v)(t, w) = (st * (-1)^beta(v, w), v + w),
every element squares to ((-1)^q(v), 0), and commutators descend to
(-1)^<v, w>.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

from .f2 import (BitMatrix, BitVec, F2QuadraticSpace, bilinear_eval, mod2_bits,
                 parity, quadform_eval)


class ExtensionError(ValueError):
    pass


class ExtElement:
    """An element (sign, v) of the double cover."""

    def __init__(self, sign: int, v: int):
        self.sign = sign
        self.v = v
        if self.sign not in (1, -1):
            raise ExtensionError("sign must be +1 or -1")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sign, self.v) == (other.sign, other.v)

    def __hash__(self) -> int:
        return hash((self.sign, self.v))

    def __neg__(self) -> "ExtElement":
        return ExtElement(-self.sign, self.v)


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

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def beta(self, u: int, v: int) -> int:
        return bilinear_eval(self.rows, u, v)

    def q(self, v: int) -> int:
        return quadform_eval(self.rows, v)

    def pairing(self, u: int, v: int) -> int:
        return self.beta(u, v) ^ self.beta(v, u)

    @property
    def order(self) -> int:
        return 1 << (self.dim + 1)

    def identity(self) -> ExtElement:
        return ExtElement(1, 0)

    def mul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        sign = x.sign * y.sign
        if self.beta(x.v, y.v):
            sign = -sign
        return ExtElement(sign, x.v ^ y.v)

    def inv(self, x: ExtElement) -> ExtElement:
        sign = x.sign
        if self.q(x.v):
            sign = -sign
        return ExtElement(sign, x.v)

    def commutator(self, x: ExtElement, y: ExtElement) -> ExtElement:
        z = self.mul(self.mul(x, y), self.mul(self.inv(x), self.inv(y)))
        return z

    def canonical_lift(self, v: int) -> ExtElement:
        return ExtElement(1, v)

    def elements(self) -> Iterator[ExtElement]:
        for v in range(1 << self.dim):
            yield ExtElement(1, v)
            yield ExtElement(-1, v)

    def center(self) -> List[ExtElement]:
        out = []
        for x in self.elements():
            if all(self.pairing(x.v, w) == 0 for w in range(1 << self.dim)):
                out.append(x)
        return out

    def to_space(self) -> F2QuadraticSpace:
        """The pairing beta + beta^T (zero diagonal) with q_i = beta_ii."""
        n = self.dim
        beta = BitMatrix(n, n, self.rows)
        qbits = sum(row & (1 << i) for i, row in enumerate(self.rows))
        return F2QuadraticSpace(n, beta.add(beta.transpose()), BitVec(n, qbits))

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
        if coc.q(1 << i) != (space.qbasis.bits >> i) & 1:
            raise ExtensionError("cocycle fails to reproduce the refinement")
        for j in range(space.dim):
            if coc.pairing(1 << i, 1 << j) != space.pairing(1 << i, 1 << j):
                raise ExtensionError("cocycle fails to reproduce the pairing")
    return coc


class RootLift:
    """A root vector paired with a compatible cover element (fiber condition)."""

    def __init__(self, lam: Tuple[int, ...], ext: ExtElement):
        self.lam = lam
        self.ext = ext
        if mod2_bits(self.lam) != self.ext.v:
            raise ExtensionError("cover element does not lie over the root mod 2")


def canonical_root_lift(cocycle: Cocycle, coords: Sequence[int]) -> RootLift:
    return RootLift(tuple(coords), cocycle.canonical_lift(mod2_bits(coords)))


class ExtAutomorphism:
    """(sign, v) -> (sign * (-1)^s(v), w(v)) for a quadratic sign function s."""

    def __init__(self, cocycle: Cocycle, w_rows: Tuple[int, ...],
                 sigma_rows: Tuple[int, ...]):
        self.cocycle = cocycle
        self.w_rows = w_rows
        self.sigma_rows = sigma_rows

    @cached_property
    def w(self) -> BitMatrix:
        return BitMatrix(len(self.w_rows), self.cocycle.dim, self.w_rows)

    def on_v(self, v: int) -> int:
        return self.w.mul_vec(v)

    def s(self, v: int) -> int:
        return quadform_eval(self.sigma_rows, v)

    def apply(self, x: ExtElement) -> ExtElement:
        sign = x.sign
        if self.s(x.v):
            sign = -sign
        return ExtElement(sign, self.on_v(x.v))

    def is_homomorphism(self) -> bool:
        coc = self.cocycle
        n = 1 << coc.dim
        for u in range(n):
            fu = self.apply(ExtElement(1, u))
            for v in range(n):
                fv = self.apply(ExtElement(1, v))
                if coc.mul(fu, fv) != self.apply(coc.mul(ExtElement(1, u), ExtElement(1, v))):
                    return False
        return True

    def action_table(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((self.apply(ExtElement(1, v)).sign, self.on_v(v))
                     for v in range(1 << self.cocycle.dim))


def character_automorphism(cocycle: Cocycle, f: int) -> ExtAutomorphism:
    """The automorphism (sign, v) -> (sign * (-1)^{f . v}, v) for a functional f."""
    if f >> cocycle.dim:
        raise ExtensionError("functional bits beyond the dimension")
    n = cocycle.dim
    ident = tuple(1 << i for i in range(n))
    sigma = tuple((1 << i) if (f >> i) & 1 else 0 for i in range(n))
    return ExtAutomorphism(cocycle, ident, sigma)


def transport_automorphism(cocycle: Cocycle, w_rows: Sequence[int]) -> ExtAutomorphism:
    """Lift a pairing-preserving map w of V to the cover.

    Solves for s with s(u) + s(v) + s(u + v) = beta(u, v) + beta(wu, wv); the
    discrepancy is symmetric bilinear with zero diagonal exactly when w
    preserves both the pairing and the quadratic form, so
    s(v) = sum_{i<j} delta(e_i, e_j) v_i v_j works.
    """
    n = cocycle.dim
    w_rows = tuple(w_rows)
    aut = ExtAutomorphism(cocycle, w_rows, (0,) * n)
    images = [aut.on_v(1 << i) for i in range(n)]
    for i in range(n):
        if cocycle.q(images[i]) != cocycle.q(1 << i):
            raise ExtensionError("w does not preserve the pairing mod 2")
        for j in range(n):
            if cocycle.pairing(images[i], images[j]) != cocycle.pairing(1 << i, 1 << j):
                raise ExtensionError("w does not preserve the pairing mod 2")
    sigma = []
    for i in range(n):
        row = 0
        for j in range(i + 1, n):
            d = cocycle.beta(1 << i, 1 << j) ^ cocycle.beta(images[i], images[j])
            if d:
                row |= 1 << j
        sigma.append(row)
    lifted = ExtAutomorphism(cocycle, w_rows, tuple(sigma))
    if not lifted.is_homomorphism():
        raise ExtensionError("transported lift failed the homomorphism check")
    return lifted


def lift_difference_functional(a: ExtAutomorphism, b: ExtAutomorphism) -> int:
    """For two lifts of the same map on V, the functional by which they differ.

    Raises when the difference of sign functions is not linear.
    """
    if a.w_rows != b.w_rows:
        raise ExtensionError("automorphisms do not cover the same map")
    n = a.cocycle.dim
    f = 0
    for i in range(n):
        if a.s(1 << i) ^ b.s(1 << i):
            f |= 1 << i
    for v in range(1 << n):
        if (a.s(v) ^ b.s(v)) != parity(f & v):
            raise ExtensionError("lift difference is not a character")
    return f


def automorphisms_fixing_v(cocycle: Cocycle) -> List[ExtAutomorphism]:
    """Brute-force Aut(cover; V): all sign maps fixing {+-1} and inducing id on V.

    Exhaustive over all functions on V; guarded to dim <= 3.
    """
    if cocycle.dim > 3:
        raise ExtensionError("brute-force automorphism search capped at dim 3")
    n = 1 << cocycle.dim
    ident_rows = tuple(1 << i for i in range(cocycle.dim))
    out = []
    for mask in range(1 << (n - 1)):
        table = [0] + [(mask >> (v - 1)) & 1 for v in range(1, n)]
        ok = True
        for u in range(n):
            for v in range(n):
                if table[u] ^ table[v] ^ table[u ^ v]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        sigma = tuple((1 << i) if table[1 << i] else 0 for i in range(cocycle.dim))
        out.append(ExtAutomorphism(cocycle, ident_rows, sigma))
    return out
