"""Positive-definite integral lattices and their root combinatorics.

Covers exact root enumeration (recursive coordinate bounding off an LDL^T
decomposition, in integers), discriminant groups, the Weyl group held by its
order (the product of the degrees read off the root heights) and its
involutions (products of reflections in orthogonal roots), conjugacy
classification of Weyl involutions, the rank-8 blow-up lattice of a
degree-2 surface with its 56 exceptional classes, and reduction mod 2 to a
quadratic F2 space.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul, sub
from typing import Dict, List, Sequence, Tuple

from .f2 import F2QuadraticSpace, f2_rank, mod2_bits
from . import intmat
from .intmat import IntMatrix

Coords = Tuple[int, ...]


class LatticeError(ValueError):
    pass


def parse_type(name: str) -> Tuple[str, int]:
    """(family letter, rank) of a simply laced type name, without building
    anything; raises LatticeError unless it is A<n> (n >= 1), D<n> (n >= 3),
    E6, E7 or E8."""
    kind, digits = name[:1].upper(), name[1:]
    rank = int(digits) if digits.isascii() and digits.isdigit() else 0
    if not ((kind == "A" and rank >= 1) or (kind == "D" and rank >= 3)
            or (kind == "E" and rank in (6, 7, 8))):
        raise LatticeError(f"unsupported lattice type {name!r}")
    return kind, rank


def cartan_gram(name: str) -> IntMatrix:
    """Gram matrix of a simply laced root lattice in a simple-root basis.

    Supported names: see parse_type.
    """
    kind, rank = parse_type(name)
    if kind == "A":
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif kind == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    else:
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        edges.append((1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return tuple(tuple(row) for row in gram)


class IntLattice:
    """A finite free Z-module with an integer symmetric bilinear form."""

    def __init__(self, gram: IntMatrix):
        self.gram = gram
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise LatticeError("gram matrix must be square")
        if intmat.transpose(self.gram) != self.gram:
            raise LatticeError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(xi * sum(map(mul, row, y))
                   for xi, row in zip(x, self.gram) if xi)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


def short_vectors(gram: IntMatrix, target: int) -> List[Coords]:
    """All integer vectors of norm exactly ``target``, by exact recursive
    bounding (Fincke and Pohst, Math. Comp. 44, 1985) in integers; raises
    LatticeError unless ``gram`` is positive definite.

    LDL^T writes the norm as sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.  With
    m_i the lcm of the denominators of row i of u, and one scale D that makes
    every c_i = D d_i / m_i^2 an integer, level i spends
    c_i (m_i x_i + sum_{j>i} m_i u_ij x_j)^2 of the integer budget D target.
    Each level runs its x_i outward from -sum_{j>i} u_ij x_j, first down,
    then up, so the vectors come in the order of the rational descent.
    """
    n = len(gram)
    try:
        d, u = intmat.ldlt(gram)
    except ValueError:
        raise LatticeError("lattice is not positive definite") from None
    m = [math.lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    mu = [[int(u[i][j] * m[i]) for j in range(i + 1, n)] for i in range(n)]
    scale = math.lcm(*((d[i] / (m[i] * m[i])).denominator for i in range(n)))
    c = [int(d[i] * scale / (m[i] * m[i])) for i in range(n)]
    out: List[Coords] = []
    x = [0] * n

    def descend(i: int, budget: int) -> None:
        if i < 0:
            if budget == 0:
                out.append(tuple(x))
            return
        mi, ci = m[i], c[i]
        s = sum(a * b for a, b in zip(mu[i], x[i + 1:]))
        # c_i t^2 <= budget for the integer t = m_i x_i + s exactly when
        # |t| <= isqrt(budget // c_i)
        r = math.isqrt(budget // ci)
        k0 = -s // mi
        for k in range(k0, -((r + s) // mi) - 1, -1):
            x[i] = k
            descend(i - 1, budget - ci * (mi * k + s) ** 2)
        for k in range(k0 + 1, (r - s) // mi + 1):
            x[i] = k
            descend(i - 1, budget - ci * (mi * k + s) ** 2)
        x[i] = 0

    descend(n - 1, scale * target)
    return out


class RootDatum:
    """A root lattice presented in a simple-root basis with its enumerated roots.

    ``roots`` are coordinate vectors with respect to the simple roots, in the
    canonical order (height, then lexicographic).  ``simple`` holds the root
    indices of the simple roots themselves (the standard basis vectors).
    """

    def __init__(self, lattice: IntLattice, roots: Tuple[Coords, ...],
                 simple: Tuple[int, ...]):
        self.lattice = lattice
        self.roots = roots
        self.simple = simple
        g = self.lattice
        for c in self.roots:
            if g.inner(c, c) != 2:
                raise LatticeError("listed root of norm != 2")
        for c in self.roots:
            if tuple(-x for x in c) not in self.index:
                raise LatticeError("roots not closed under negation")
        for k, ri in enumerate(self.simple):
            expected = tuple(1 if j == k else 0 for j in range(g.rank))
            if self.roots[ri] != expected:
                raise LatticeError("simple roots must be the standard basis vectors")

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @cached_property
    def index(self) -> Dict[Coords, int]:
        return {c: i for i, c in enumerate(self.roots)}

    @cached_property
    def negation(self) -> Tuple[int, ...]:
        return tuple(self.index[tuple(-x for x in c)] for c in self.roots)

    @cached_property
    def positive(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.roots) if sum(c) > 0)

    @cached_property
    def packed(self) -> Tuple[int, ...]:
        """Each root as one integer: its coordinates as the digits, in order,
        of base 4M + 1, M the largest root coordinate size.

        Packing is linear and sends no nonzero vector with coordinates in
        [-4M, 4M] to 0, so two sums of two weights, or a sum of three weights
        and a root, pack equal only when they are equal.  The Cartan weight 0
        packs to 0.
        """
        base = 4 * max(abs(c) for r in self.roots for c in r) + 1
        return tuple(sum(c * base ** t for t, c in enumerate(r)) for r in self.roots)

    @cached_property
    def root_classes(self) -> Tuple[int, ...]:
        """Each root reduced mod 2, as the bitmask of its odd coordinates."""
        return tuple(mod2_bits(c) for c in self.roots)

    @cached_property
    def simple_reflections(self) -> Tuple[bytes, ...]:
        """The reflections in the simple roots, as root permutations."""
        return tuple(self.reflection_perm(si) for si in self.simple)

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        return self.lattice.inner(x, y)

    def reflect(self, coords: Coords, root_index: int) -> Coords:
        gamma = self.roots[root_index]
        c = self.inner(coords, gamma)
        return tuple(x - c * g for x, g in zip(coords, gamma))

    def reflection_perm(self, root_index: int) -> bytes:
        _perm_size(self)
        return bytes(self.index[self.reflect(c, root_index)] for c in self.roots)

    @cached_property
    def type_name(self) -> str:
        n, m = self.rank, len(self.roots)
        if (n, m) == (6, 72):
            return "E6"
        if (n, m) == (7, 126):
            return "E7"
        if (n, m) == (8, 240):
            return "E8"
        if m == n * (n + 1):
            return f"A{n}"
        if m == 2 * n * (n - 1):
            return f"D{n}"
        return f"rank{n}-roots{m}"

    def root_class_bits(self, root_index: int) -> int:
        return self.root_classes[root_index]

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_name,
            "rank": self.rank,
            "gram": [list(row) for row in self.lattice.gram],
            "roots": [list(c) for c in self.roots],
            "simple": list(self.simple),
        }


def enumerate_roots(lattice: IntLattice) -> RootDatum:
    """Enumerate all norm-2 vectors, find the simple roots and every root's
    simple coordinates in one ascending pass, canonicalize.

    The lexicographically positive roots form a positive system, and each
    one that is not simple is a simple root plus a smaller positive root
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.1-10.2).  So, in ascending order, a positive root is simple exactly
    when subtracting no simple root found so far leaves a positive root;
    otherwise its coordinates are those of the smaller root plus one unit.
    Every root then lies in the Z-span of the simple roots S, and the roots
    generate the lattice exactly when there are n of them and |det S| = 1.

    Raises when the lattice is not an even positive-definite lattice generated
    by its roots.
    """
    if not lattice.is_even():
        raise LatticeError("lattice is not even")
    n = lattice.rank
    zero = (0,) * n
    positives = sorted(c for c in short_vectors(lattice.gram, 2) if c > zero)
    simple: List[Coords] = []
    coords: Dict[Coords, Coords] = {}
    for c in positives:
        for k, s in enumerate(simple):
            smaller = coords.get(tuple(map(sub, c, s)))
            if smaller is not None:
                coords[c] = tuple(x + (j == k) for j, x in enumerate(smaller))
                break
        else:
            coords[c] = tuple(int(j == len(simple)) for j in range(n))
            simple.append(c)
    if len(simple) != n or abs(intmat.bareiss_det(simple)) != 1:
        raise LatticeError("roots do not generate the lattice")

    new_gram = tuple(tuple(lattice.inner(a, b) for b in simple) for a in simple)
    pos = list(coords.values())
    ordered = tuple(sorted(pos + [tuple(-x for x in c) for c in pos],
                           key=lambda c: (sum(c), c)))
    idx = {c: i for i, c in enumerate(ordered)}
    simple_indices = tuple(idx[coords[s]] for s in simple)
    return RootDatum(IntLattice(new_gram), ordered, simple_indices)


def root_datum(name: str) -> RootDatum:
    return enumerate_roots(IntLattice(cartan_gram(name)))


def discriminant_group(lattice: IntLattice) -> List[int]:
    """Invariant factors of the discriminant group (Smith form of the gram matrix)."""
    if intmat.bareiss_det(lattice.gram) == 0:
        raise LatticeError("gram matrix is singular")
    return intmat.smith_invariant_factors(lattice.gram)


# root permutations are stored as bytes, one root index per byte
MAX_PERM_ROOTS = 256


def _perm_size(datum: RootDatum) -> int:
    """The number of roots; raises LatticeError when bytes cannot index them."""
    size = len(datum.roots)
    if size > MAX_PERM_ROOTS:
        raise LatticeError(
            f"{datum.type_name} has {size} roots; root permutations are stored "
            f"as bytes and support at most {MAX_PERM_ROOTS}")
    return size


_BYTE_RANGE = bytes(range(256))
# p.translate(q + _BYTE_RANGE[size:]) is r -> q[p[r]]: q padded by the identity


class WeylGroup:
    """The reflection group, held by its order and its involutions alone."""

    def __init__(self, datum: RootDatum, order: int, involutions: List[bytes]):
        self.datum = datum
        self.order = order
        self.involutions = involutions

    def __len__(self) -> int:
        return self.order

    def matrix(self, perm: bytes) -> IntMatrix:
        images = [self.datum.roots[perm[si]] for si in self.datum.simple]
        n = self.datum.rank
        return tuple(tuple(images[j][i] for j in range(n)) for i in range(n))

    def trace(self, perm: bytes) -> int:
        return sum(self.datum.roots[perm[si]][j]
                   for j, si in enumerate(self.datum.simple))


def weyl_degrees(datum: RootDatum) -> List[int]:
    """The degrees of the Weyl group, read off the root heights (Kostant,
    Amer. J. Math. 81, 1959; Humphreys, Reflection Groups and Coxeter Groups,
    3.9 and 3.20): with n_h positive roots of height h, n_m - n_(m+1) of the
    exponents equal m, each exponent m gives the degree m + 1, and |W| is
    their product.  The premises are checked first: the positive roots are
    half the roots, every height is at least 1, n_1 is the rank and n_h
    never increases; raises LatticeError when one fails."""
    counts: Dict[int, int] = {}
    for r in datum.positive:
        h = sum(datum.roots[r])
        if h < 1:
            raise LatticeError(f"positive root of height {h}")
        counts[h] = counts.get(h, 0) + 1
    if 2 * len(datum.positive) != len(datum.roots):
        raise LatticeError(f"{len(datum.positive)} positive roots are not "
                           f"half of the {len(datum.roots)} roots")
    n = [counts.get(h, 0) for h in range(max(counts, default=0) + 2)]
    if n[1] != datum.rank:
        raise LatticeError(f"{n[1]} roots of height 1, not the rank {datum.rank}")
    for h in range(2, len(n)):
        if n[h] > n[h - 1]:
            raise LatticeError(f"{n[h]} roots of height {h} but {n[h - 1]} "
                               f"of height {h - 1}")
    return [m + 1 for m in range(1, len(n) - 1) for _ in range(n[m] - n[m + 1])]


def weyl_enumerate(datum: RootDatum) -> WeylGroup:
    """The order, as the product of the degrees, and the involutions, up to
    rank 6 (a cap on time).  Every involution of a Weyl group is a product
    of reflections in mutually orthogonal roots (Richardson, Bull. Austral.
    Math. Soc. 26, 1982), so each nonempty orthogonal set of positive roots
    gives one, kept in the order first met (E6: 981 sets, 891 involutions)."""
    size = _perm_size(datum)
    if datum.rank > 6:
        raise LatticeError(f"Weyl enumeration is limited to rank 6, not {datum.rank}")
    order = math.prod(weyl_degrees(datum))
    pad = _BYTE_RANGE[size:]
    # a positive root b that is not simple has a simple s_i with s_i(b) = c
    # a lower root, and s_b = s_i s_c s_i; the roots come in height order
    refl = dict(zip(datum.simple, datum.simple_reflections))
    for b in datum.positive:
        if b not in refl:
            g = next(g for g in datum.simple_reflections if g[b] < b)
            refl[b] = g.translate(refl[g[b]] + pad).translate(g + pad)
    found: Dict[bytes, None] = {}

    def extend(prod: bytes, candidates: List[int]) -> None:
        # b and c are orthogonal exactly when s_b fixes c
        for k, b in enumerate(candidates):
            s = refl[b]
            p = prod.translate(s + pad)
            found[p] = None
            extend(p, [c for c in candidates[k + 1:] if s[c] == c])

    extend(_BYTE_RANGE[:size], list(datum.positive))
    return WeylGroup(datum, order, list(found))


INVOLUTION_LABELS_E6 = {6: "1", 4: "s1", 2: "s1s2", 0: "s1s2s3", -2: "tau"}


class WeylInvolutionClass:
    def __init__(self, label: str, representative: IntMatrix):
        self.label = label
        self.representative = representative
        n = len(self.representative)
        if intmat.matmul(self.representative, self.representative) != intmat.identity(n):
            raise LatticeError("representative does not square to the identity")


def mod2_rank_one_plus(matrix: IntMatrix) -> int:
    """Rank of (1 + matrix) mod 2."""
    rows = [mod2_bits(row) ^ (1 << i) for i, row in enumerate(matrix)]
    return f2_rank(rows, len(matrix))


def _conjugacy_orbit(datum: RootDatum, start: bytes) -> set:
    pad = _BYTE_RANGE[len(datum.roots):]
    gens = [(g, g + pad) for g in datum.simple_reflections]
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            pt = p + pad
            for g, gt in gens:
                q = g.translate(pt).translate(gt)
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    return orbit


def classify_involutions(datum: RootDatum, weyl: WeylGroup) -> List[WeylInvolutionClass]:
    """Partition the involutions of W (plus the identity) into conjugacy classes.

    Only implemented for type E6, where the trace alone labels the classes:
    the involutions are grouped by trace, and each group must be the
    conjugacy orbit of its first member.
    """
    if datum.type_name != "E6":
        raise LatticeError("involution classification is implemented for E6 only")
    groups: Dict[int, List[bytes]] = {}
    for p in weyl.involutions:
        groups.setdefault(weyl.trace(p), []).append(p)
    if len(groups) != 4:
        raise LatticeError(f"expected 4 traces of involutions, got {len(groups)}")
    classes = [WeylInvolutionClass("1", intmat.identity(datum.rank))]
    for tr, members in sorted(groups.items(), reverse=True):
        label = INVOLUTION_LABELS_E6.get(tr)
        if label is None or label == "1":
            raise LatticeError(f"unexpected involution trace {tr}")
        orbit = _conjugacy_orbit(datum, members[0])
        if orbit != set(members):
            raise LatticeError(f"involutions of trace {tr}: {len(members)} "
                               f"listed, conjugacy orbit {len(orbit)}")
        classes.append(WeylInvolutionClass(label, weyl.matrix(members[0])))
    return classes


def mod2_space(datum: RootDatum) -> F2QuadraticSpace:
    """Reduction of the lattice mod 2: pairing, refinement from half-norms."""
    n = datum.rank
    gram = datum.lattice.gram
    qbits = mod2_bits([gram[i][i] // 2 for i in range(n)])
    return F2QuadraticSpace(n, tuple(mod2_bits(row) for row in gram), qbits)


# ---------------------------------------------------------------------------
# The rank-8 blow-up lattice of a degree-2 surface


class DelPezzoPicard:
    """Z^{1,7} with basis (h, e1..e7) and canonical class -3h + e1 + ... + e7."""

    def __init__(self, gram: IntMatrix, canonical: Coords):
        self.gram = gram
        self.canonical = canonical
        if self.inner(self.canonical, self.canonical) != 2:
            raise LatticeError("canonical class must have self-intersection 2")

    @staticmethod
    def standard() -> "DelPezzoPicard":
        gram = tuple(tuple((1 if i == j == 0 else -1 if i == j else 0)
                           for j in range(8)) for i in range(8))
        return DelPezzoPicard(gram, (-3, 1, 1, 1, 1, 1, 1, 1))

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))

    def is_line_class(self, d: Sequence[int]) -> bool:
        return self.inner(d, d) == -1 and self.inner(d, self.canonical) == -1


def lines() -> Tuple[Coords, ...]:
    """All classes with D^2 = D.K = -1, by bounded enumeration.

    Cauchy-Schwarz on (sum b_i)^2 <= 7 sum b_i^2 confines the h-coefficient
    to {0, 1, 2, 3}.
    """
    pic = DelPezzoPicard.standard()
    out: List[Coords] = []
    for a in range(0, 4):
        square_sum = a * a + 1
        coeff_sum = 1 - 3 * a
        partial: List[int] = []

        def fill(i: int, rem_sq: int, rem_sum: int) -> None:
            if i == 7:
                if rem_sq == 0 and rem_sum == 0:
                    out.append((a, *partial))
                return
            slots = 7 - i
            bound = math.isqrt(rem_sq)
            for b in range(-bound, bound + 1):
                left = rem_sq - b * b
                if abs(rem_sum - b) > (slots - 1) * math.isqrt(left):
                    continue
                partial.append(b)
                fill(i + 1, left, rem_sum - b)
                partial.pop()

        fill(0, square_sum, coeff_sum)
    out = [d for d in out if pic.is_line_class(d)]
    return tuple(sorted(out))


def lines_meeting(e: Sequence[int]) -> Tuple[Coords, ...]:
    """Line classes D with D.e = 1 and D.f = 0, where f = -K - e."""
    pic = DelPezzoPicard.standard()
    if not pic.is_line_class(e):
        raise LatticeError("e is not a line class")
    f = tuple(-k - x for k, x in zip(pic.canonical, e))
    return tuple(d for d in lines()
                 if pic.inner(d, e) == 1 and pic.inner(d, f) == 0)


def _sublattice_datum(pic: DelPezzoPicard, orthogonal_to: Sequence[Coords],
                      expected_rank: int) -> RootDatum:
    rows = [tuple(sum(pic.gram[i][j] * v[i] for i in range(8)) for j in range(8))
            for v in orthogonal_to]
    basis = intmat.integer_kernel(rows, 8)
    if len(basis) != expected_rank:
        raise LatticeError("unexpected orthogonal complement rank")
    gram = tuple(tuple(-pic.inner(a, b) for b in basis) for a in basis)
    return enumerate_roots(IntLattice(gram))


def delpezzo_k_perp() -> RootDatum:
    """The orthogonal complement of the canonical class, sign-flipped to positive."""
    pic = DelPezzoPicard.standard()
    datum = _sublattice_datum(pic, [pic.canonical], 7)
    if datum.type_name != "E7":
        raise LatticeError(f"K-perp is not E7 (got {datum.type_name})")
    return datum


def bitangent_complement(e: Sequence[int]) -> RootDatum:
    """The complement of a line class pair {e, -K-e} inside K-perp."""
    pic = DelPezzoPicard.standard()
    if not pic.is_line_class(e):
        raise LatticeError("e is not a line class")
    f = tuple(-k - x for k, x in zip(pic.canonical, e))
    if pic.inner(e, f) != 2:
        raise LatticeError("line pair does not meet doubly")
    datum = _sublattice_datum(pic, [tuple(e), f], 6)
    if datum.type_name != "E6":
        raise LatticeError(f"complement is not E6 (got {datum.type_name})")
    return datum

