"""Integral Lie algebras from root data and double covers.

The algebra has basis h_1..h_r (the coweight basis dual to the simple roots)
together with one generator X_gamma per root, taken relative to canonical
lifts (+1, gamma mod 2).  Structure constants come from four rules: the
Cartan part is abelian, [h, X_gamma] = <h, gamma> X_gamma, root sums pick up
the cocycle sign, and opposite roots bracket to minus the coroot.  The
involution negates the Cartan part and swaps X_gamma with X_{-gamma} up to a
sign read off from cover inverses; its fixed subalgebra is spanned by
Z_gamma = X_gamma + X_{-gamma} over the positive roots.

Nothing here is trusted by construction: Jacobi, the automorphism property,
and the representation homomorphism all have exhaustive checkers.  One
kernel computes the Killing form of either algebra, every entry of it, so no
zero of the form is assumed.

Every algebra keeps its brackets in one flat table, built once at
construction: ``flat[i * dim + j]`` is [e_i, e_j] for every ordered pair, so a
bracket is one list index.  The Jacobi check, exhaustive or sampled, first
checks the weight grading, so a triple whose summed weight is neither 0 nor a
root has a zero Jacobi sum.  For a root weight w every bracket of the sum lies
on the one basis element of weight w, so the sum is one integer; a sum of
weight 0 goes through the general kernel.  The exhaustive check evaluates the
live triples of weight 0 or a positive root (138,496 of E8's 273,736): the
involution, verified as an automorphism, maps those of positive weight onto
those of negative weight, failing triples onto failing ones.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import intmat
from .f2 import F2QuadraticSpace
from .gaussian import (GQ, MonoMat, ONE, ZERO, add_terms, gq, phase_rows,
                       sparse_nullspace, sparse_rank)
from .heisrep import HeisRep
from .lattice import RootDatum

Entry = Tuple[int, int]          # (basis index, integer coefficient)
Table = Dict[Tuple[int, int], Tuple[Entry, ...]]


class LieError(ValueError):
    pass


class SparseLieAlgebra:
    """Sparse integer structure constants over a basis e_0 .. e_{dim-1}.

    Built from ``table``, whose entry (i, j) for i < j lists the (k, c) with
    [e_i, e_j] = sum c e_k (absent pairs bracket to zero), into the flat
    table: ``flat[i * dim + j]`` is [e_i, e_j] for every ordered pair, the
    (j, i) entry the negated (i, j) one and the diagonal empty.  ``flat`` is
    the only stored table and must not change after construction.
    """

    def __init__(self, dim: int, table: Table):
        self.dim = dim
        flat: List[Tuple[Entry, ...]] = [()] * (dim * dim)
        # equal entries share one negated tuple
        negated: Dict[Tuple[Entry, ...], Tuple[Entry, ...]] = {}
        for (i, j), entries in table.items():
            flat[i * dim + j] = entries
            neg = negated.get(entries)
            if neg is None:
                neg = negated[entries] = tuple((k, -c) for k, c in entries)
            flat[j * dim + i] = neg
        self.flat = flat

    @property
    def table(self) -> Table:
        """The nonzero brackets [e_i, e_j] with i < j, in (i, j) order."""
        n, flat = self.dim, self.flat
        return {(i, j): entries for i in range(n) for j in range(i + 1, n)
                if (entries := flat[i * n + j])}

    def bracket_basis(self, i: int, j: int) -> Tuple[Entry, ...]:
        return self.flat[i * self.dim + j]

    def bracket(self, x: Dict[int, int], y: Dict[int, int]) -> Dict[int, int]:
        return add_terms({}, [(k, ci * cj * c) for i, ci in x.items()
                              for j, cj in y.items()
                              for k, c in self.bracket_basis(i, j)])


class IntegralLieAlgebra(SparseLieAlgebra):
    """The Lie algebra of a root datum and cover, on the basis (h, X_gamma)."""

    def __init__(self, datum: RootDatum, cocycle: F2QuadraticSpace, table: Table):
        super().__init__(datum.rank + len(datum.roots), table)
        self.datum = datum
        self.cocycle = cocycle
        self.n_cartan = datum.rank
        self.labels = tuple(f"h{i + 1}" for i in range(datum.rank)) + tuple(
            "x[" + ",".join(map(str, c)) + "]" for c in datum.roots)

    def basis_of_root(self, root_index: int) -> int:
        return self.n_cartan + root_index

    def weight(self, i: int) -> Tuple[int, ...]:
        # perfbench/tracer.py counts the weight-live triples through this
        if i < self.n_cartan:
            return (0,) * self.n_cartan
        return self.datum.roots[i - self.n_cartan]

    def to_json_dict(self) -> dict:
        brackets = [[i, j, [[k, c] for k, c in entries]]
                    for (i, j), entries in self.table.items()]
        return {
            "type": self.datum.type_name,
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": brackets,
        }


def _packed_roots(datum: RootDatum) -> List[int]:
    """Each root as one integer: its coordinates as the digits, in order, of
    base 4M + 1, M the largest root coordinate size.

    Packing is linear and sends no nonzero vector with coordinates in
    [-4M, 4M] to 0, so two sums of two weights, or a sum of three weights and
    a root, pack equal only when they are equal.  The Cartan weight 0 packs
    to 0.
    """
    base = 4 * max(abs(c) for r in datum.roots for c in r) + 1
    return [sum(c * base ** t for t, c in enumerate(r)) for r in datum.roots]


def build_lie(datum: RootDatum, cocycle: F2QuadraticSpace) -> IntegralLieAlgebra:
    """Assemble the bracket table; raises on lattice/cover mismatch."""
    n = datum.rank
    if cocycle.dim != n:
        raise LieError("cover dimension does not match the lattice rank")
    gram = datum.lattice.gram
    for i in range(n):
        for j in range(n):
            expected = gram[i][j] & 1 if i != j else 0
            if cocycle.pairing(1 << i, 1 << j) != expected:
                raise LieError("cover pairing does not reduce the lattice form")
        if cocycle.q(1 << i) != (gram[i][i] // 2) & 1:
            raise LieError("cover squares do not reduce the lattice norms")

    roots = datum.roots
    nc = n
    table: Table = {}

    for i in range(n):
        for ri, gamma in enumerate(roots):
            if gamma[i]:
                table[(i, nc + ri)] = ((nc + ri, gamma[i]),)

    packed = _packed_roots(datum)
    root_of = {p: ri for ri, p in enumerate(packed)}
    bits = [datum.root_class_bits(ri) for ri in range(len(roots))]
    for ri, pi in enumerate(packed):
        for rj in range(ri + 1, len(roots)):
            total = pi + packed[rj]
            if total == 0:
                sign = -1 if cocycle.beta(bits[ri], bits[rj]) else 1
                coroot = tuple(sum(g * c for g, c in zip(row, roots[ri])) for row in gram)
                entries = tuple((k, sign * c) for k, c in enumerate(coroot) if c)
                table[(nc + ri, nc + rj)] = entries
            elif total in root_of:
                sign = -1 if cocycle.beta(bits[ri], bits[rj]) else 1
                table[(nc + ri, nc + rj)] = ((nc + root_of[total], sign),)
    return IntegralLieAlgebra(datum, cocycle, table)


class JacobiReport:
    """Outcome of a Jacobi check on basis triples i < j < k.

    An exhaustive check covers all ``checked_unordered`` = C(dim, 3) unordered
    triples, and through them all ``covered_ordered`` = dim^3 ordered ones; a
    sampled one its ``checked_unordered`` draws.  Of the ``live`` triples,
    summed weight a root or 0, the check computes the Jacobi sum of the
    ``evaluated`` ones; the ``mirrored`` ones (exhaustive only) are the images
    of evaluated ones under the verified involution.  The sum of every other
    triple is zero by the checked weight grading (``zero_by_grading``).
    """
    def __init__(self, checked_unordered: int, covered_ordered: int,
                 evaluated: int, failures: List[Tuple[int, int, int]],
                 mirrored: int = 0, sampled: bool = False):
        self.checked_unordered = checked_unordered
        self.covered_ordered = covered_ordered
        self.evaluated = evaluated
        self.failures = failures
        self.mirrored = mirrored
        self.sampled = sampled

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def live(self) -> int:
        return self.evaluated + self.mirrored

    @property
    def zero_by_grading(self) -> int:
        return self.checked_unordered - self.live


def _jacobi_fails(flat: Sequence[Tuple[Entry, ...]], n: int,
                  i: int, j: int, k: int) -> bool:
    """Whether [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is
    nonzero, read from the flat table of an algebra of dimension n."""
    # inline and unrolled, not add_terms: the Jacobi scan calls this per triple
    acc: Dict[int, int] = {}
    get = acc.get
    for m, c in flat[i * n + j]:
        for t, c2 in flat[m * n + k]:
            acc[t] = get(t, 0) + c * c2
    for m, c in flat[j * n + k]:
        for t, c2 in flat[m * n + i]:
            acc[t] = get(t, 0) + c * c2
    for m, c in flat[k * n + i]:
        for t, c2 in flat[m * n + j]:
            acc[t] = get(t, 0) + c * c2
    return any(acc.values())


def _pair_failures(flat: Sequence[Tuple[Entry, ...]], coef: Sequence[int],
                   packed: Sequence[int], i: int, j: int, ks: Sequence[int],
                   failures: List[Tuple[int, int, int]]) -> int:
    """Append to ``failures`` each (i, j, k), k in ``ks``, whose Jacobi sum is
    nonzero; return how many of these triples have summed weight 0.

    Each summed weight must be 0 or a root, the table checked weight graded,
    ``packed`` the packed basis weights and coef[x] the summed coefficients
    of flat[x].  For a weight w other than 0, each term c e_m of [e_i, e_j]
    brackets with e_k onto the one basis element of weight w, as coef[m n + k]
    times it, and so on cyclically: the sum is one integer times that element.
    A sum of weight 0 lies in the Cartan part and goes to _jacobi_fails.
    """
    n = len(packed)
    pij = packed[i] + packed[j]
    ij = [(m * n, c) for m, c in flat[i * n + j]]
    jn = j * n
    zero = 0
    for k in ks:
        if not pij + packed[k]:
            zero += 1
            if _jacobi_fails(flat, n, i, j, k):
                failures.append((i, j, k))
            continue
        # inline, not a call per triple: 135,240 of them on exhaustive E8
        s = 0
        for mn, c in ij:
            s += c * coef[mn + k]
        for m, c in flat[jn + k]:
            s += c * coef[m * n + i]
        for m, c in flat[k * n + i]:
            s += c * coef[m * n + j]
        if s:
            failures.append((i, j, k))
    return zero


def _graded_scan(L: IntegralLieAlgebra, theta: Involution,
                 packed: Sequence[int], coef: Sequence[int]
                 ) -> Tuple[int, int, List[Tuple[int, int, int]]]:
    """Evaluate the triples i < j < k whose summed weight is 0 or a positive
    root, and mirror the failures among them through ``theta``.

    ``theta`` must be build_theta(L), checked to be an automorphism of
    ``flat``: e_i -> s_i e_{t_i} negates every weight, and J(e_ti, e_tj, e_tk)
    = s_i s_j s_k theta(J(e_i, e_j, e_k)), so a triple fails exactly when its
    image does.  The live triples of negative root weight are the images of
    those of positive root weight.  Returns the number evaluated, the number
    mirrored, and every failing live triple in lexicographic order.
    """
    n = L.dim
    # packing is linear, so theta maps a positive packed weight to a negative one
    targets = [0] + [p for p in packed[L.n_cartan:] if p > 0]
    # partners[s] lists, ascending, the k with s + packed[k] a target; grown
    # as tuples, not lists, to keep the index small
    partners: Dict[int, Tuple[int, ...]] = {}
    for k, pk in enumerate(packed):
        for t in targets:
            s = t - pk
            partners[s] = partners.get(s, ()) + (k,)

    flat = L.flat
    evaluated = weight_zero = 0
    failures: List[Tuple[int, int, int]] = []
    for i in range(n):
        pi = packed[i]
        for j in range(i + 1, n):
            ks = partners.get(pi + packed[j])
            if ks is None:
                continue
            live = ks[bisect_right(ks, j):]
            if live:
                evaluated += len(live)
                weight_zero += _pair_failures(flat, coef, packed, i, j, live,
                                              failures)
    image = [theta.apply_basis(i)[0] for i in range(n)]
    failures += [tuple(sorted((image[i], image[j], image[k])))
                 for i, j, k in failures if packed[i] + packed[j] + packed[k]]
    return evaluated, evaluated - weight_zero, sorted(failures)


def _random_triples(n: int, count: int,
                    seed: Optional[int]) -> Iterator[Tuple[int, int, int]]:
    """``count`` triples i < j < k < n, each uniform over the C(n, 3) such
    triples, the sequence determined by ``seed``.

    A draw is one getrandbits(3 b), b the bits of n - 1, cut into three b-bit
    indices and drawn again unless they are distinct and below n: every
    ordered triple of distinct indices is equally likely, so every unordered
    one, its sorted form, is.
    """
    draw = random.Random(seed).getrandbits
    b = (n - 1).bit_length()
    bits, b2, mask = 3 * b, 2 * b, (1 << b) - 1
    while count:
        x = draw(bits)
        i, j, k = x & mask, x >> b & mask, x >> b2
        if i > j:
            i, j = j, i
        if j > k:
            j, k = k, j
            if i > j:
                i, j = j, i
        if i < j < k < n:
            count -= 1
            yield i, j, k


def verify_jacobi(L: IntegralLieAlgebra, *, theta: Involution,
                  sample: Optional[int] = None,
                  seed: Optional[int] = None) -> JacobiReport:
    """Check [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 on basis triples.

    Exhaustive over unordered triples i < j < k by default; repeated indices
    and permutations carry no extra content because the evaluator is
    antisymmetric by construction, so this covers all dim^3 ordered triples.
    With ``sample`` set, checks that many seeded random triples instead.
    Either depth first verifies that the table is weight graded (raising
    LieError if not), counts a triple whose summed weight is neither a root
    nor 0 as zero, and sends the others through _pair_failures.  Exhaustive
    runs evaluate those of weight 0 or a positive root and list the failures
    of negative root weight as their images under ``theta``, which must be
    build_theta(L): its automorphism check on this ``flat`` is the premise of
    that step (see _graded_scan), so any other ``theta`` raises LieError.
    """
    if theta.verified_on is not L.flat:
        raise LieError("theta was not verified on this bracket table")
    assert_weight_graded(L)
    n, flat = L.dim, L.flat
    packed = [0] * L.n_cartan + _packed_roots(L.datum)
    coef = [0] * (n * n)
    # only the nonempty entries: three quarters of E8's flat table is empty
    for x in compress(range(n * n), flat):
        for _, c in flat[x]:
            coef[x] += c
    if sample is None:
        evaluated, mirrored, failures = _graded_scan(L, theta, packed, coef)
        return JacobiReport(checked_unordered=comb(n, 3),
                            covered_ordered=n ** 3, evaluated=evaluated,
                            mirrored=mirrored, failures=failures)
    live = set(packed)      # 0 and every root
    evaluated = 0
    failures = []
    for i, j, k in _random_triples(n, sample, seed):
        if packed[i] + packed[j] + packed[k] in live:
            evaluated += 1
            _pair_failures(flat, coef, packed, i, j, (k,), failures)
    return JacobiReport(checked_unordered=sample, covered_ordered=0,
                        evaluated=evaluated, failures=failures, sampled=True)


def assert_weight_graded(L: IntegralLieAlgebra) -> None:
    """Raise LieError unless every bracket entry lands at the summed weight."""
    if not _is_weight_graded(L):
        raise LieError("bracket table is not weight graded")


def _is_weight_graded(L: IntegralLieAlgebra) -> bool:
    """Whether every entry of [e_i, e_j], i < j, read from ``flat``, lies at
    weight w_i + w_j (the (j, i) entries are their negations)."""
    n, flat = L.dim, L.flat
    packed = [0] * L.n_cartan + _packed_roots(L.datum)
    for i, pi in enumerate(packed):
        for pj, entries in zip(packed[i + 1:], flat[i * n + i + 1:i * n + n]):
            for k, _ in entries:
                if packed[k] != pi + pj:
                    return False
    return True


class KillingForm:
    def __init__(self, matrix: Tuple[Tuple[int, ...], ...], determinant: int):
        self.matrix = matrix
        self.determinant = determinant

    @property
    def nondegenerate(self) -> bool:
        return self.determinant != 0


def killing_form(alg: SparseLieAlgebra) -> KillingForm:
    """K(a, b) = tr(ad a . ad b) = sum over k, m of [e_a, e_k]_m [e_b, e_m]_k,
    every entry computed from ``flat``, so no zero is assumed.

    ``index[m * dim + k]`` lists the (b, d) with d = [e_b, e_m]_k; each term
    c e_m of [e_a, e_k] then adds c d to row a at column b.
    """
    n, flat = alg.dim, alg.flat
    # equal entries share one tuple: E8 has 16,022 nonempty, 1,368 distinct
    index: List[Tuple[Entry, ...]] = [()] * (n * n)
    shared: Dict[Tuple[Entry, ...], Tuple[Entry, ...]] = {}
    for b in range(n):
        for m, entries in enumerate(flat[b * n:b * n + n]):
            for k, d in entries:
                val = index[m * n + k] + ((b, d),)
                index[m * n + k] = shared.setdefault(val, val)
    rows = []
    for a in range(n):
        row = [0] * n
        for k, entries in enumerate(flat[a * n:a * n + n]):
            for m, c in entries:
                for b, d in index[m * n + k]:
                    row[b] += c * d
        rows.append(tuple(row))
    del index, shared
    matrix = tuple(rows)
    return KillingForm(matrix, intmat.bareiss_det(matrix))


class Involution:
    """Signed basis map: h -> -h on the Cartan part, X_gamma -> s * X_{-gamma}.

    ``verified_on`` is the ``flat`` table on which build_theta checked the
    map to be an automorphism; verify_jacobi mirrors through no other."""

    def __init__(self, n_cartan: int, root_map: Tuple[Tuple[int, int], ...],
                 verified_on: Sequence):
        self.n_cartan = n_cartan
        self.root_map = root_map  # root index -> (image root index, sign)
        self.verified_on = verified_on

    def apply_basis(self, i: int) -> Tuple[int, int]:
        if i < self.n_cartan:
            return i, -1
        target, sign = self.root_map[i - self.n_cartan]
        return self.n_cartan + target, sign

    def apply(self, x: Dict[int, int]) -> Dict[int, int]:
        terms = []
        for i, c in x.items():
            j, s = self.apply_basis(i)
            terms.append((j, s * c))
        return add_terms({}, terms)

    def trace(self) -> int:
        tr = -self.n_cartan
        for ri, (target, sign) in enumerate(self.root_map):
            if target == ri:
                tr += sign
        return tr


def _automorphism_failures(alg: SparseLieAlgebra,
                           image: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The pairs i < j, in order, at which the signed basis map e_i -> s_i
    e_{t_i}, image[i] = (t_i, s_i), does not send [e_i, e_j] to s_i s_j
    [e_{t_i}, e_{t_j}].  A pair with both brackets empty holds trivially."""
    n, flat = alg.dim, alg.flat
    failures = []
    for i, (ti, si) in enumerate(image):
        for j in range(i + 1, n):
            tj, sj = image[j]
            ent, ent_t = flat[i * n + j], flat[ti * n + tj]
            if not (ent or ent_t):
                continue
            lhs = add_terms({}, [(image[k][0], image[k][1] * c) for k, c in ent])
            if lhs != add_terms({}, [(k, si * sj * c) for k, c in ent_t]):
                failures.append((i, j))
    return failures


def build_theta(L: IntegralLieAlgebra) -> Involution:
    """The stable involution; verified to be an automorphism with trace -rank."""
    datum = L.datum
    coc = L.cocycle
    root_map = []
    for ri in range(len(datum.roots)):
        neg = datum.negation[ri]
        sign = 1 if coc.q(datum.root_class_bits(ri)) else -1
        root_map.append((neg, sign))
    # returned only once every check below has passed on L.flat
    theta = Involution(L.n_cartan, tuple(root_map), L.flat)

    image = [theta.apply_basis(i) for i in range(L.dim)]
    for i, (j, s) in enumerate(image):
        j2, s2 = image[j]
        if j2 != i or s * s2 != 1:
            raise LieError("involution does not square to the identity")
    if theta.trace() != -L.n_cartan:
        raise LieError("involution trace is not -rank")
    failures = _automorphism_failures(L, image)
    if failures:
        raise LieError(f"involution fails the automorphism check at {failures[0]}")
    return theta


class FixedSubalgebra(SparseLieAlgebra):
    """Span of Z_gamma = X_gamma + theta(X_gamma) over the positive roots."""

    def __init__(self, L: IntegralLieAlgebra, theta: Involution):
        self.L = L
        self.theta = theta
        self.pos = L.datum.positive
        self.labels = tuple("z[" + ",".join(map(str, L.datum.roots[ri])) + "]"
                            for ri in self.pos)
        super().__init__(len(self.pos), self._table())

    def ambient(self, i: int) -> Dict[int, int]:
        x = {self.L.basis_of_root(self.pos[i]): 1}
        return add_terms(x, self.theta.apply(x).items())

    def _table(self) -> Table:
        L = self.L
        nc = L.n_cartan
        neg = L.datum.negation
        pos_index = {ri: i for i, ri in enumerate(self.pos)}
        ambient = [self.ambient(i) for i in range(len(self.pos))]
        table: Table = {}
        for i, zi in enumerate(ambient):
            for j in range(i + 1, len(ambient)):
                res = L.bracket(zi, ambient[j])
                entries: Dict[int, int] = {}
                for k, c in res.items():
                    if k < nc:
                        raise LieError("fixed-subalgebra bracket has a Cartan component")
                    ri = k - nc
                    if ri in pos_index:
                        other = L.basis_of_root(neg[ri])
                        if res.get(other, 0) != c:
                            raise LieError("fixed-subalgebra bracket is not theta-symmetric")
                        entries[pos_index[ri]] = c
                if entries:
                    table[(i, j)] = tuple(sorted(entries.items()))
        return table


def fixed_subalgebra(L: IntegralLieAlgebra, theta: Involution) -> FixedSubalgebra:
    return FixedSubalgebra(L, theta)


class RMap:
    """The induced action of the fixed subalgebra on the cover representation.

    R(Z_gamma) is half the image of the canonical lift of gamma mod 2, so
    every R matrix is 1/2 times a monomial matrix with entries in {1, i, -1, -i}.
    """

    def __init__(self, fixed: FixedSubalgebra, rep: HeisRep):
        if rep.cocycle is not fixed.L.cocycle:
            raise LieError("representation was built from a different cover")
        self.fixed = fixed
        self.rep = rep
        half = gq(Fraction(1, 2))
        datum = fixed.L.datum
        self.mats: Tuple[MonoMat, ...] = tuple(
            rep.rho_bits(datum.root_class_bits(ri)).times(half) for ri in fixed.pos)


def build_R(fixed: FixedSubalgebra, rep: HeisRep) -> RMap:
    return RMap(fixed, rep)


class RReport:
    def __init__(self, pairs_checked: int):
        self.pairs_checked = pairs_checked
        self.failures: List[Tuple[int, int]] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def _add_packed(acc: Dict[int, int], code: Tuple[int, ...], n: int, mult: int) -> None:
    """acc += mult * U, for U with packed rows ``code`` (see MonoMat.code).

    ``acc`` holds Gaussian integers by component: key 2 (r n + c) for the
    real part of entry (r, c), that key + 1 for the imaginary part.
    """
    # inline, not add_terms: a call per entry would slow verify_R's pair loop
    base = 0
    for x in code:
        # x = 4 c + k: i**k is +-1 for even k, +-i for odd k, negative for k >= 2
        key = base + 2 * (x >> 2) + (x & 1)
        val = acc.get(key, 0) + (-mult if x & 2 else mult)
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
        base += 2 * n


def verify_R(rmap: RMap) -> RReport:
    """Check R([a, b]) = [R(a), R(b)] for every pair of fixed-basis elements.

    All R matrices share one scale s = p/q times a phase-form matrix U_k.  The
    identity for the pair (i, j), sum_k c_k s U_k = s^2 (U_i U_j - U_j U_i),
    is checked as q sum_k c_k U_k = p (U_i U_j - U_j U_i) in Gaussian
    integers: 2 c_k against 1 for s = 1/2.
    """
    fixed = rmap.fixed
    n = fixed.dim
    report = RReport(pairs_checked=0)
    scales = {m.scale for m in rmap.mats}
    if len(scales) != 1:
        raise LieError("R matrices do not share one scale")
    scale = scales.pop()
    p, q = scale.numerator, scale.denominator
    w = rmap.rep.dim_w
    codes = [m.code() for m in rmap.mats]
    tables = [m.right_table() for m in rmap.mats]
    for i in range(n):
        ci = codes[i]
        for j in range(i + 1, n):
            lhs: Dict[int, int] = {}
            for k, c in fixed.bracket_basis(i, j):
                _add_packed(lhs, codes[k], w, q * c)
            rhs: Dict[int, int] = {}
            _add_packed(rhs, tuple(map(tables[j].__getitem__, ci)), w, p)
            _add_packed(rhs, tuple(map(tables[i].__getitem__, codes[j])), w, -p)
            if lhs != rhs:
                report.failures.append((i, j))
            report.pairs_checked += 1
    return report


class IdentificationRecord:
    def __init__(self, family: str, w_dim: int, fixed_dim: int):
        self.family = family  # "sl" or "sp"
        self.w_dim = w_dim
        self.fixed_dim = fixed_dim


def _form_unknowns(n: int, sym: int) -> List[Tuple[int, int]]:
    """The entries (a, b) of a form with B^T = sym * B that are unknowns:
    the upper triangle, strict for sym = -1."""
    return [(a, b) for a in range(n) for b in range(a if sym == 1 else a + 1, n)]


def invariant_form_space(mats: Sequence[MonoMat], sym: int) -> List[Dict[int, GQ]]:
    """Solve R^T B + B R = 0 over forms with B^T = sym * B.

    Unknowns are the upper-triangle entries (strict for sym = -1); returns a
    basis of the solution space as dicts over unknown indices.  Both terms of
    an equation carry the scale of R, which therefore factors out: each
    equation is two phase terms i**p x_u (see gaussian.phase_rows).
    """
    n = mats[0].n
    unknowns = _form_unknowns(n, sym)
    # B[a, b] = i**p x_u as ref[a, b] = (u, p); absent on the zero diagonal
    # of an antisymmetric form
    ref: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for u, (a, b) in enumerate(unknowns):
        ref[a, b] = (u, 0)
        if a != b:
            ref[b, a] = (u, 0 if sym == 1 else 2)

    def equations():
        for m in mats:
            colinv = [0] * n
            for r, c in enumerate(m.col):
                colinv[c] = r
            for a in range(n):
                k0 = colinv[a]
                for b in range(n):
                    # (R^T B + B R)[a, b] = R[k0, a] B[k0, b] + B[a, k1] R[k1, b]
                    k1 = colinv[b]
                    yield [(t[0], t[1] + m.phase[k])
                           for k, t in ((k0, ref.get((k0, b))), (k1, ref.get((a, k1))))
                           if t is not None]

    return sparse_nullspace(phase_rows(equations()), len(unknowns))


def form_from_solution(sol: Dict[int, GQ], n: int, sym: int) -> Tuple[Tuple[GQ, ...], ...]:
    unknowns = _form_unknowns(n, sym)
    mat = [[ZERO] * n for _ in range(n)]
    for idx, val in sol.items():
        a, b = unknowns[idx]
        mat[a][b] = mat[a][b] + val
        if a != b:
            mat[b][a] = mat[b][a] + (val if sym == 1 else -val)
    return tuple(tuple(row) for row in mat)


def identify_fixed(fixed: FixedSubalgebra, rmap: RMap) -> IdentificationRecord:
    """Certify the type of the fixed subalgebra through its representation.

    When dim g = (dim W)^2 - 1: R is injective onto the trace-zero matrices.
    When dim g = dim W (dim W + 1) / 2: the invariant bilinear forms are a
    single line spanned by a nondegenerate antisymmetric form.
    """
    n = rmap.rep.dim_w
    d = fixed.dim
    if d == n * n - 1:
        rows = []
        for m in rmap.mats:
            if not m.trace().is_zero():
                raise LieError("image matrix is not trace free")
            rows.append({r * n + c: v for r, c, v in m.entries()})
        rank = sparse_rank(rows)
        if rank != d:
            raise LieError(f"representation has a kernel (rank {rank} < {d})")
        return IdentificationRecord("sl", n, d)
    if d == n * (n + 1) // 2:
        anti = invariant_form_space(rmap.mats, sym=-1)
        symm = invariant_form_space(rmap.mats, sym=1)
        if len(anti) != 1 or len(symm) != 0:
            raise LieError(
                f"invariant form dimensions ({len(anti)}, {len(symm)}) do not certify sp")
        form = form_from_solution(anti[0], n, sym=-1)
        det, _ = intmat.field_eliminate(form, ONE)
        if det.is_zero():
            raise LieError("invariant antisymmetric form is degenerate")
        return IdentificationRecord("sp", n, d)
    raise LieError(f"no certification route for dim g = {d}, dim W = {n}")

