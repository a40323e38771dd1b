import json
import random
from typing import Iterator, List, Sequence, Tuple

import pytest
from conftest import f2_kernel

from rootcover import cli, lattice
from rootcover.f2 import (F2QuadraticSpace, mod2_bits, mul_vec, parity,
                          quadform_eval, standard_symplectic_space)

# -- the cover's group law and its automorphisms, as a model of the cocycle ---


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


class CoverGroup(F2QuadraticSpace):
    """The group of pairs (sign, v) that the space's cocycle beta multiplies."""

    @classmethod
    def of(cls, space: F2QuadraticSpace) -> "CoverGroup":
        return cls(space.dim, space.gram, space.qbits)

    @property
    def order(self) -> int:
        return 1 << (self.dim + 1)

    def identity(self) -> ExtElement:
        return ExtElement(1, 0)

    def mul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        sign = x.sign * y.sign
        if parity(self.beta(x.v) & y.v):
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


class RootLift:
    """A root vector paired with a compatible cover element (fiber condition)."""

    def __init__(self, lam: Tuple[int, ...], ext: ExtElement):
        self.lam = lam
        self.ext = ext
        if mod2_bits(self.lam) != self.ext.v:
            raise ExtensionError("cover element does not lie over the root mod 2")


def canonical_root_lift(cocycle: CoverGroup, coords: Sequence[int]) -> RootLift:
    return RootLift(tuple(coords), cocycle.canonical_lift(mod2_bits(coords)))


class ExtAutomorphism:
    """(sign, v) -> (sign * (-1)^s(v), w(v)) for a quadratic sign function s."""

    def __init__(self, cocycle: CoverGroup, w_rows: Tuple[int, ...],
                 sigma_rows: Tuple[int, ...]):
        self.cocycle = cocycle
        self.w_rows = w_rows
        self.sigma_rows = sigma_rows

    def on_v(self, v: int) -> int:
        return mul_vec(self.w_rows, v)

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


def character_automorphism(cocycle: CoverGroup, f: int) -> ExtAutomorphism:
    """The automorphism (sign, v) -> (sign * (-1)^{f . v}, v) for a functional f."""
    if f >> cocycle.dim:
        raise ExtensionError("functional bits beyond the dimension")
    n = cocycle.dim
    ident = tuple(1 << i for i in range(n))
    sigma = tuple((1 << i) if (f >> i) & 1 else 0 for i in range(n))
    return ExtAutomorphism(cocycle, ident, sigma)


def transport_automorphism(cocycle: CoverGroup, w_rows: Sequence[int]) -> ExtAutomorphism:
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
            d = (parity(cocycle.beta(1 << i) & (1 << j))
                 ^ parity(cocycle.beta(images[i]) & images[j]))
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


def automorphisms_fixing_v(cocycle: CoverGroup) -> List[ExtAutomorphism]:
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


def _e6_cocycle():
    datum = lattice.root_datum("E6")
    return datum, CoverGroup.of(lattice.mod2_space(datum))


def test_group_order():
    _, coc = _e6_cocycle()
    assert coc.order == 128
    assert len(list(coc.elements())) == 128


def test_identity_and_inverse_laws():
    _, coc = _e6_cocycle()
    ident = coc.identity()
    for x in coc.elements():
        assert coc.mul(ident, x) == x
        assert coc.mul(x, ident) == x
        assert coc.mul(x, coc.inv(x)) == ident
        assert coc.mul(coc.inv(x), x) == ident


def test_squares_realize_the_quadratic_form():
    _, coc = _e6_cocycle()
    for x in coc.elements():
        sq = coc.mul(x, x)
        assert sq.v == 0
        assert sq.sign == (-1 if coc.q(x.v) else 1)


def test_root_lift_squares_are_minus_one():
    datum, coc = _e6_cocycle()
    for i in range(len(datum.roots)):
        lift = canonical_root_lift(coc, datum.roots[i])
        sq = coc.mul(lift.ext, lift.ext)
        assert sq == ExtElement(-1, 0)
        # inverse of a root-class lift is minus itself
        assert coc.inv(lift.ext) == -lift.ext


def test_commutators_descend_to_the_pairing():
    for name in ("A2", "E6", "E7"):
        datum = lattice.root_datum(name)
        coc = CoverGroup.of(lattice.mod2_space(datum))
        n = 1 << coc.dim
        for u in range(n):
            x = ExtElement(1, u)
            for v in range(n):
                y = ExtElement(1, v)
                comm = coc.commutator(x, y)
                assert comm.v == 0
                assert comm.sign == (-1 if coc.pairing(u, v) else 1)


def test_cocycle_condition_exhaustively():
    # beta(v, w) + beta(u, v + w) == beta(u, v) + beta(u + v, w) over all triples,
    # checked 128 w-values at a time through bit rows
    _, coc = _e6_cocycle()
    n = 1 << coc.dim
    rows = []
    for u in range(n):
        bits = 0
        for w in range(n):
            if parity(coc.beta(u) & w):
                bits |= 1 << w
        rows.append(bits)
    ones = (1 << n) - 1

    def xor_shift(r, v):
        # bit w of the result is bit (w xor v) of r
        for k in range(coc.dim):
            if (v >> k) & 1:
                step = 1 << k
                mask = 0
                for w in range(n):
                    if not (w >> k) & 1:
                        mask |= 1 << w
                r = ((r & mask) << step) | ((r >> step) & mask)
        return r

    for u in range(n):
        for v in range(n):
            lhs = rows[v] ^ xor_shift(rows[u], v)
            rhs = (ones if parity(coc.beta(u) & v) else 0) ^ rows[u ^ v]
            assert lhs == rhs


def test_centers():
    datum6, coc6 = _e6_cocycle()
    center6 = coc6.center()
    assert sorted((x.sign, x.v) for x in center6) == [(-1, 0), (1, 0)]

    datum7 = lattice.root_datum("E7")
    m2 = lattice.mod2_space(datum7)
    coc7 = CoverGroup.of(m2)
    center7 = coc7.center()
    assert len(center7) == 4
    r, = f2_kernel(m2.gram, m2.dim)
    assert {x.v for x in center7} == {0, r}
    # q on the radical generator decides the center structure: here order 4
    assert coc7.q(r) == 1
    lift = ExtElement(1, r)
    assert coc7.mul(lift, lift) == ExtElement(-1, 0)


def test_root_lift_fiber_condition():
    datum, coc = _e6_cocycle()
    with pytest.raises(ExtensionError):
        RootLift(datum.roots[0], ExtElement(1, 0b111111))


def test_character_automorphisms():
    _, coc = _e6_cocycle()
    ident = character_automorphism(coc, 0)
    for x in coc.elements():
        assert ident.apply(x) == x
    f1, f2 = 0b101, 0b011000
    a1 = character_automorphism(coc, f1)
    a2 = character_automorphism(coc, f2)
    a12 = character_automorphism(coc, f1 ^ f2)
    for x in coc.elements():
        assert a1.apply(a2.apply(x)) == a12.apply(x)
    assert a1.is_homomorphism()


def test_automorphism_group_fixing_v_has_order_dim_of_dual():
    space = standard_symplectic_space(1, qbits=0)
    coc = CoverGroup.of(space)
    auts = automorphisms_fixing_v(coc)
    assert len(auts) == 4
    tables = {a.action_table() for a in auts}
    assert len(tables) == 4


def test_transport_identity():
    _, coc = _e6_cocycle()
    ident_rows = tuple(1 << i for i in range(coc.dim))
    aut = transport_automorphism(coc, ident_rows)
    assert all(aut.s(v) == 0 for v in range(1 << coc.dim))


def _mod2_rows(matrix):
    n = len(matrix)
    rows = []
    for i in range(n):
        bits = 0
        for j in range(n):
            if matrix[i][j] & 1:
                bits |= 1 << j
        rows.append(bits)
    return tuple(rows)


def test_transport_of_simple_reflections(e6_stack, e6_weyl):
    datum = e6_stack.datum
    coc = CoverGroup.of(e6_stack.cocycle)
    for si in datum.simple:
        perm = datum.reflection_perm(si)
        w = _mod2_rows(e6_weyl.matrix(perm))
        aut = transport_automorphism(coc, w)
        assert aut.is_homomorphism()
        # composing the lift with itself covers the identity: a character map
        diff = 0
        for i in range(coc.dim):
            x = aut.apply(aut.apply(ExtElement(1, 1 << i)))
            assert x.v == 1 << i
            if x.sign == -1:
                diff |= 1 << i
        for v in range(1 << coc.dim):
            x = aut.apply(aut.apply(ExtElement(1, v)))
            assert x.v == v
            assert x.sign == (-1 if parity(diff & v) else 1)


def test_two_lifts_differ_by_a_functional(e6_stack):
    coc = CoverGroup.of(e6_stack.cocycle)
    ident_rows = tuple(1 << i for i in range(coc.dim))
    base = transport_automorphism(coc, ident_rows)
    f = 0b100101
    twisted = ExtAutomorphism(coc, ident_rows,
                              tuple(row ^ ((1 << i) if (f >> i) & 1 else 0)
                                    for i, row in enumerate(base.sigma_rows)))
    assert twisted.is_homomorphism()
    assert lift_difference_functional(base, twisted) == f


def test_transport_composition_differs_by_character(e6_stack, e6_weyl, e6_elements):
    datum = e6_stack.datum
    coc = CoverGroup.of(e6_stack.cocycle)
    rng = random.Random(11)
    size = len(datum.roots)
    for _ in range(50):
        p1 = e6_elements[rng.randrange(len(e6_elements))]
        p2 = e6_elements[rng.randrange(len(e6_elements))]
        w1 = _mod2_rows(e6_weyl.matrix(p1))
        w2 = _mod2_rows(e6_weyl.matrix(p2))
        p12 = bytes(p1[p2[i]] for i in range(size))
        w12 = _mod2_rows(e6_weyl.matrix(p12))
        t1 = transport_automorphism(coc, w1)
        t2 = transport_automorphism(coc, w2)
        t12 = transport_automorphism(coc, w12)
        f = 0
        for i in range(coc.dim):
            via = t1.apply(t2.apply(ExtElement(1, 1 << i)))
            direct = t12.apply(ExtElement(1, 1 << i))
            assert via.v == direct.v
            if via.sign != direct.sign:
                f |= 1 << i
        for v in range(1 << coc.dim):
            via = t1.apply(t2.apply(ExtElement(1, v)))
            direct = t12.apply(ExtElement(1, v))
            assert via.v == direct.v
            assert (via.sign == direct.sign) == (parity(f & v) == 0)


def test_transport_rejects_non_symplectic():
    _, coc = _e6_cocycle()
    bad = tuple(1 << 0 for _ in range(coc.dim))  # rank-1 map
    with pytest.raises(ExtensionError):
        transport_automorphism(coc, bad)


def test_beta_json_dump(tmp_path):
    # build writes beta as the 0/1 matrix of the cover's cocycle
    _, coc = _e6_cocycle()
    out = tmp_path / "e6.json"
    assert cli.main(["build", "--type", "E6", "--out", str(out)]) == 0
    d = json.loads(out.read_text())["cover"]
    assert d["dim"] == 6 and len(d["beta"]) == 6
    assert d["beta"] == [[(coc.beta(1 << i) >> j) & 1 for j in range(6)]
                         for i in range(6)]
