"""Integral Lie algebras from root data and double covers.

The algebra has basis h_1..h_r (the coweight basis dual to the simple roots)
together with one generator X_gamma per root, taken relative to canonical
lifts (+1, gamma mod 2).  Structure constants come from four rules: the
Cartan part is abelian, [h, X_gamma] = <h, gamma> X_gamma, root sums pick up
the cocycle sign, and opposite roots bracket to minus the coroot.  The
involution is the root negation: it negates the Cartan part and sends X_gamma
to X_{-gamma} with sign +1, since the canonical lifts have q(gamma) =
gamma.gamma / 2 = 1 on every root class (test_f2.py checks this in
test_root_classes_have_q_one).  Its fixed subalgebra is spanned by
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

The sampled check reads its triples from ``sampling``, in chunks of 4,096
32-bit words: a draw is still uniform over the unordered triples and the
sequence is still fixed by the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .f2 import F2QuadraticSpace, parity
from .gaussian import NEGATE, MonoMat, add_terms, trace_gram_failure
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

    def bracket_basis(self, i: int, j: int) -> Tuple[Entry, ...]:
        return self.flat[i * self.dim + j]


class IntegralLieAlgebra(SparseLieAlgebra):
    """The Lie algebra of a root datum and cover, on the basis (h, X_gamma)."""

    def __init__(self, datum: RootDatum, cocycle: F2QuadraticSpace, table: Table):
        super().__init__(datum.rank + len(datum.roots), table)
        self.datum = datum
        self.cocycle = cocycle
        self.n_cartan = datum.rank
        # the packed weight of each basis element (see RootDatum.packed)
        self.packed = (0,) * datum.rank + datum.packed
        self.labels = tuple(f"h{i + 1}" for i in range(datum.rank)) + tuple(
            "x[" + ",".join(map(str, c)) + "]" for c in datum.roots)

    def weight(self, i: int) -> Tuple[int, ...]:
        # perfbench/tracer.py counts the weight-live triples through this
        if i < self.n_cartan:
            return (0,) * self.n_cartan
        return self.datum.roots[i - self.n_cartan]

    def to_json_dict(self) -> dict:
        # the bracket table, over a million bytes of JSON on E8, renders itself
        return {
            "type": self.datum.type_name,
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": self.render_brackets,
        }

    def render_brackets(self, indent: str) -> str:
        """The rows [i, j, [[k, c], ...]] of the nonzero brackets, i < j in
        (i, j) order, read from the upper triangle of ``flat``, as the text of
        json.dumps(rows, indent=2) with ``indent`` after every newline: each
        row fills the % template of its number of entries."""
        n, flat = self.dim, self.flat
        templates: Dict[int, str] = {}
        rows = []
        for i in range(n):
            for j, entries in enumerate(flat[i * n + i + 1:i * n + n], i + 1):
                if not entries:
                    continue
                template = templates.get(len(entries))
                if template is None:
                    template = templates[len(entries)] = _bracket_row(indent + "  ",
                                                                      len(entries))
                rows.append(template % sum(entries, (i, j)))
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _bracket_row(indent: str, entries: int) -> str:
    """The % template of a bracket row with that many entries, as json.dumps
    with indent=2 lays it out when the row opens at ``indent``."""
    a, b, c = indent + "  ", indent + "    ", indent + "      "
    entry = f"{b}[\n{c}%d,\n{c}%d\n{b}]"
    return (f"{indent}[\n{a}%d,\n{a}%d,\n{a}[\n" + ",\n".join([entry] * entries)
            + f"\n{a}]\n{indent}]")


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

    packed = datum.packed
    root_of = {p: ri for ri, p in enumerate(packed)}
    bits = datum.root_classes
    for ri, pi in enumerate(packed):
        beta_i = cocycle.beta(bits[ri])     # beta(bits[ri], v) = parity(beta_i & v)
        for rj in range(ri + 1, len(roots)):
            total = pi + packed[rj]
            if total == 0:
                sign = -1 if parity(beta_i & bits[rj]) else 1
                coroot = tuple(sum(g * c for g, c in zip(row, roots[ri])) for row in gram)
                entries = tuple((k, sign * c) for k, c in enumerate(coroot) if c)
                table[(nc + ri, nc + rj)] = entries
            elif total in root_of:
                sign = -1 if parity(beta_i & bits[rj]) else 1
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
    ``flat``: e_i -> +-e_{t_i} (-1 on the Cartan part, +1 on the roots)
    negates every weight, and J(e_ti, e_tj, e_tk) = +-theta(J(e_i, e_j, e_k)),
    so a triple fails exactly when its image does.  The live triples of
    negative root weight are the images of those of positive root weight.
    Returns the number evaluated, the number mirrored, and every failing live
    triple in lexicographic order.
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
    packed = L.packed
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
    # imported here: with the draw code in liealg itself, the peak RSS of
    # verify --type E7 rose by 0.11 to 0.17 MB in alternating launches
    from .sampling import sampled_triples
    live = set(packed)      # 0 and every root
    evaluated, failures = 0, []
    for draws in sampled_triples(n, sample, seed):
        for i, j, k in draws:
            if packed[i] + packed[j] + packed[k] in live:
                evaluated += 1
                if i > j:
                    i, j = j, i
                if j > k:
                    j, k = k, j
                    if i > j:
                        i, j = j, i
                _pair_failures(flat, coef, packed, i, j, (k,), failures)
    return JacobiReport(checked_unordered=sample, covered_ordered=0,
                        evaluated=evaluated, failures=failures, sampled=True)


def assert_weight_graded(L: IntegralLieAlgebra) -> None:
    """Raise LieError unless every entry of [e_i, e_j], i < j, read from
    ``flat``, lies at weight w_i + w_j (the (j, i) entries are their
    negations)."""
    n, flat, packed = L.dim, L.flat, L.packed
    for i, pi in enumerate(packed):
        for pj, entries in zip(packed[i + 1:], flat[i * n + i + 1:i * n + n]):
            for k, _ in entries:
                if packed[k] != pi + pj:
                    raise LieError("bracket table is not weight graded")


def killing_form(alg: SparseLieAlgebra) -> Tuple[Tuple[int, ...], ...]:
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
    return tuple(rows)


class Involution:
    """The root negation as a signed basis map: h -> -h on the Cartan part,
    X_gamma -> X_{-gamma} on the roots.

    The sign on X_gamma is +1 because q(gamma) = 1 on every root class (see
    test_f2.py::test_root_classes_have_q_one).  ``negation`` maps each root
    index to that of its negative.  ``verified_on`` is the ``flat`` table on
    which build_theta checked the map to be an automorphism; verify_jacobi
    and FixedSubalgebra accept it on no other."""

    def __init__(self, n_cartan: int, negation: Tuple[int, ...], verified_on: Sequence):
        self.n_cartan = n_cartan
        self.negation = negation
        self.verified_on = verified_on

    def apply_basis(self, i: int) -> Tuple[int, int]:
        if i < self.n_cartan:
            return i, -1
        return self.n_cartan + self.negation[i - self.n_cartan], 1

    def trace(self) -> int:
        return -self.n_cartan + sum(t == ri for ri, t in enumerate(self.negation))


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
    # returned only once every check below has passed on L.flat
    theta = Involution(L.n_cartan, L.datum.negation, L.flat)

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
    """Span of Z_gamma = X_gamma + theta(X_gamma) over the positive roots.

    ``theta`` must be build_theta(L), verified on ``L.flat``: _table rests on
    that check, so any other theta raises LieError."""

    def __init__(self, L: IntegralLieAlgebra, theta: Involution):
        if theta.verified_on is not L.flat:
            raise LieError("theta was not verified on this bracket table")
        self.L = L
        self.theta = theta
        self.pos = L.datum.positive
        self.labels = tuple("z[" + ",".join(map(str, L.datum.roots[ri])) + "]"
                            for ri in self.pos)
        super().__init__(len(self.pos), self._table())

    def _table(self) -> Table:
        """[Z_a, Z_b] = (1 + theta)(y) for y = [X_a, X_b] + [X_a, X_-b]:
        theta is an automorphism that sends X_c to X_-c, so it maps y onto
        the other two terms of the bracket.  (1 + theta) kills the Cartan
        part and sends X_c and X_-c to Z_c for c > 0, so each pair reads two
        brackets of ``L.flat``."""
        L = self.L
        n, nc, flat = L.dim, L.n_cartan, L.flat
        neg = self.theta.negation
        pos_index = {ri: i for i, ri in enumerate(self.pos)}
        # basis index k -> fixed index of (1 + theta) X_k
        down = {nc + ri: pos_index[ri] if ri in pos_index else pos_index[target]
                for ri, target in enumerate(neg)}
        table: Table = {}
        for i, a in enumerate(self.pos):
            row = (nc + a) * n + nc
            for j in range(i + 1, len(self.pos)):
                b = self.pos[j]
                y = flat[row + b] + flat[row + neg[b]]
                entries = add_terms({}, [(down[k], c) for k, c in y if k >= nc])
                if entries:
                    table[(i, j)] = tuple(sorted(entries.items()))
        return table


def fixed_subalgebra(L: IntegralLieAlgebra, theta: Involution) -> FixedSubalgebra:
    return FixedSubalgebra(L, theta)


class RMap:
    """The induced action of the fixed subalgebra on the cover representation.

    ``mats`` holds rho of the canonical lift of gamma mod 2 for each positive
    root gamma; R(Z_gamma) is half of it, a monomial matrix with entries in
    (1/2) {1, i, -1, -i}.
    """

    def __init__(self, fixed: FixedSubalgebra, rep: HeisRep):
        if rep.cocycle is not fixed.L.cocycle:
            raise LieError("representation was built from a different cover")
        self.fixed = fixed
        self.rep = rep
        datum = fixed.L.datum
        self.mats: Tuple[MonoMat, ...] = tuple(
            rep.mats[datum.root_class_bits(ri)] for ri in fixed.pos)


class RReport:
    def __init__(self, pairs_checked: int):
        self.pairs_checked = pairs_checked
        self.failures: List[Tuple[int, int]] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_R(rmap: RMap) -> RReport:
    """Check R([a, b]) = [R(a), R(b)] for every pair of fixed-basis elements.

    ``rmap`` holds R(Z_k) = U_k / 2, U_k unit monomial (``rmap.mats``), and
    the brackets [Z_i, Z_j] = sum_k c_k Z_k (``rmap.fixed.bracket_basis``).
    The identity for (i, j) is 2 sum_k c_k U_k = P - Q in Gaussian integers,
    P = U_i U_j and Q = U_j U_i each one translate of packed rows.  Each
    entry of the left side is divisible by 2; a row of P - Q whose entries
    lie in different columns, or differ in phase by +-1, is not.  So the
    identity holds exactly when the bracket is empty and P = Q, or is one
    term (k, c), c = +-1, with P = c U_k = -Q.  A bracket of more terms fails;
    none arises, since [Z_a, Z_b] lies on the roots a + b and a - b, at most
    one of which is a root for simply laced a, b.
    """
    fixed = rmap.fixed
    n = fixed.dim
    report = RReport(pairs_checked=n * (n - 1) // 2)
    codes = [m.code() for m in rmap.mats]
    signed = {1: codes, -1: [code.translate(NEGATE) for code in codes]}
    tables = [m.right_table() for m in rmap.mats]
    for i in range(n):
        ci, ti = codes[i], tables[i]
        for j in range(i + 1, n):
            p, q = ci.translate(tables[j]), codes[j].translate(ti)
            terms = fixed.bracket_basis(i, j)
            if terms:
                (k, c), *more = terms
                ok = not more and c in signed and p == signed[c][k] == q.translate(NEGATE)
            else:
                ok = p == q
            if not ok:
                report.failures.append((i, j))
    return report


class IdentificationRecord:
    def __init__(self, family: str, w_dim: int, fixed_dim: int):
        self.family = family  # "sl" or "sp"
        self.w_dim = w_dim
        self.fixed_dim = fixed_dim


def _invariant_cover_form(rmap: RMap) -> Optional[int]:
    """The first class w whose matrix B = M_w has B^T = -B and U^T B = -B U
    for every image U, or None."""
    images = [(u.transpose(), u) for u in rmap.mats]
    for w, b in enumerate(rmap.rep.mats):
        if b.transpose() == -b and all(ut * b == -(b * u) for ut, u in images):
            return w
    return None


def identify_fixed(fixed: FixedSubalgebra, rmap: RMap) -> IdentificationRecord:
    """Certify the type of the fixed subalgebra through its representation,
    in integers.

    Either type first needs the trace Gram matrix of the images and the
    identity to be (dim W) * identity (a Heisenberg basis is trace
    orthogonal: Weil, Acta Math. 111, 1964): the images are then independent
    and trace free, so R is injective and its image has dimension dim g.
    When dim g = (dim W)^2 - 1, that image is sl(W).  When dim g =
    dim W (dim W + 1) / 2, a cover element B = M_w with B^T = -B and
    U^T B = -B U for every image U is exhibited: it has one unit entry in
    each row and column, so it is nondegenerate, the image lies in sp(W, B),
    and its dimension makes it all of sp(W, B).  So B spans the invariant
    bilinear forms and none is symmetric (Schur, sp(W, B) acting
    irreducibly).
    """
    n = rmap.rep.dim_w
    d = fixed.dim
    if d not in (n * n - 1, n * (n + 1) // 2):
        raise LieError(f"no certification route for dim g = {d}, dim W = {n}")
    failure = trace_gram_failure(rmap.mats + (MonoMat.identity(n),))
    if failure is not None:
        (a, b), (re, im) = failure
        raise LieError(f"trace Gram entry ({a}, {b}) is {re}{im:+d}i, not "
                       f"{n if a == b else 0}: the image matrices and the "
                       f"identity (index {d}) are not orthogonal")
    if d == n * n - 1:
        return IdentificationRecord("sl", n, d)
    if _invariant_cover_form(rmap) is None:
        raise LieError("no cover element is an invariant antisymmetric form "
                       "of the image matrices")
    return IdentificationRecord("sp", n, d)
