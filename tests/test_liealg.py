import copy
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Optional

import pytest

from rootcover import heisrep, intmat, lattice, liealg
from rootcover.f2 import parity
from rootcover.gaussian import (ONE, MonoMat, add_terms, gq, sparse_nullspace,
                                sparse_rank)
from rootcover.liealg import (IntegralLieAlgebra, KillingForm, LieError,
                              build_R, build_lie, build_theta,
                              fixed_subalgebra, form_from_solution,
                              identify_fixed, invariant_form_space,
                              killing_form, verify_R, verify_jacobi)

# -- models that the tests check liealg against -----------------------------


def killing_cartan_ratio(L: IntegralLieAlgebra, killing: KillingForm) -> Fraction:
    """Constant c with K|_Cartan = c * (coweight-basis dual pairing)."""
    dual = intmat.rational_inverse(L.datum.lattice.gram)
    nc = L.n_cartan
    ratio: Optional[Fraction] = None
    for i in range(nc):
        for j in range(nc):
            k_val = Fraction(killing.matrix[i][j])
            d_val = dual[i][j]
            if d_val == 0:
                if k_val != 0:
                    raise LieError("Cartan Killing block is not proportional to the dual form")
                continue
            r = k_val / d_val
            if ratio is None:
                ratio = r
            elif ratio != r:
                raise LieError("Cartan Killing block is not proportional to the dual form")
    if ratio is None:
        raise LieError("degenerate dual pairing")
    return ratio


def ad_nilpotency_degree(L: IntegralLieAlgebra, root_index: int, power: int = 4) -> bool:
    """Whether (ad X_gamma)^power kills every basis element."""
    xg = {L.basis_of_root(root_index): 1}
    for i in range(L.dim):
        vec = {i: 1}
        for _ in range(power):
            vec = L.bracket(xg, vec)
            if not vec:
                break
        if vec:
            return False
    return True


def recover_roots_from_ad(L: IntegralLieAlgebra) -> bool:
    """Simultaneous Cartan ad-eigenvalues on the X part recover the root set."""
    recovered = set()
    for ri in range(len(L.datum.roots)):
        xi = L.basis_of_root(ri)
        eig = []
        for i in range(L.n_cartan):
            res = L.bracket({i: 1}, {xi: 1})
            eig.append(res.get(xi, 0))
            if set(res) - {xi}:
                return False
        recovered.add(tuple(eig))
    return recovered == set(L.datum.roots)


def _lie(name):
    datum = lattice.root_datum(name)
    coc = lattice.mod2_space(datum)
    return build_lie(datum, coc)


def test_dimensions():
    assert _lie("A2").dim == 8
    assert _lie("A3").dim == 15
    assert _lie("D4").dim == 28
    assert _lie("E6").dim == 78
    assert _lie("E7").dim == 133


def test_cartan_rules(a2_stack):
    L = a2_stack.lie
    # [h, h'] = 0
    assert L.bracket_basis(0, 1) == ()
    # [h_i, X_gamma] = gamma_i X_gamma
    for ri, coords in enumerate(L.datum.roots):
        xi = L.basis_of_root(ri)
        for i in range(L.n_cartan):
            res = dict(L.bracket_basis(i, xi))
            expected = {xi: coords[i]} if coords[i] else {}
            assert res == expected


def test_opposite_roots_bracket_to_minus_coroot(e6_stack):
    L = e6_stack.lie
    datum = L.datum
    gram = datum.lattice.gram
    for ri in range(len(datum.roots)):
        rj = datum.negation[ri]
        if rj < ri:
            continue
        res = dict(L.bracket_basis(L.basis_of_root(ri), L.basis_of_root(rj)))
        coroot = tuple(sum(g * c for g, c in zip(row, datum.roots[ri]))
                       for row in gram)
        expected = {k: -c for k, c in enumerate(coroot) if c}
        assert res == expected


def test_structure_constants_are_small(e7_stack):
    # root-sum brackets carry only cocycle signs; opposite-root brackets carry
    # pairings against simple roots; the Cartan action carries the root
    # coordinates themselves, bounded by the largest highest-root coefficient
    L = e7_stack.lie
    nc = L.n_cartan
    max_coord = max(abs(x) for c in L.datum.roots for x in c)
    assert max_coord == 4
    for (i, j), entries in L.table.items():
        values = {c for _, c in entries}
        if i < nc:
            assert values <= set(range(-max_coord, max_coord + 1)) - {0}
        elif any(k < nc for k, _ in entries):
            assert values <= {-2, -1, 1, 2}
        else:
            assert values <= {-1, 1}


def _jacobi(L):
    """Exhaustive Jacobi on L, mirrored through the involution verified on L."""
    return verify_jacobi(L, theta=build_theta(L))


def test_jacobi_small_types_exhaustive():
    for name in ("A2", "A3", "D4"):
        L = _lie(name)
        report = _jacobi(L)
        assert report.ok
        n = L.dim
        assert report.covered_ordered == n ** 3
        assert report.checked_unordered == n * (n - 1) * (n - 2) // 6


def test_jacobi_evaluates_the_weight_live_triples(e7_stack):
    report7 = verify_jacobi(e7_stack.lie, theta=e7_stack.theta)
    assert report7.ok and (report7.evaluated, report7.mirrored) == (28553, 27405)
    assert report7.live == 55958
    assert report7.zero_by_grading == 383306 - 55958
    report8 = _jacobi(_lie("E8"))
    assert report8.ok and (report8.evaluated, report8.mirrored) == (138496, 135240)
    assert report8.live == 273736
    assert report8.checked_unordered == 2511496
    assert report8.covered_ordered == 248 ** 3


def _weight_live(L, i, j, k):
    total = tuple(map(sum, zip(L.weight(i), L.weight(j), L.weight(k))))
    return total in L.datum.index or not any(total)


def _jacobi_sum(L, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] from brackets."""
    b = L.bracket
    terms = [t for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
             for t in b(b({x: 1}, {y: 1}), {z: 1}).items()]
    return add_terms({}, terms)


def _live_triples(L):
    """The triples i < j < k whose summed weight is a root or 0, in order,
    found through coordinate tuples: for each pair, the k of a weight that
    completes the sum to a target."""
    weights = [L.weight(i) for i in range(L.dim)]
    targets = list(L.datum.roots) + [weights[0]]
    completing = {}
    for k, w in enumerate(weights):
        for t in targets:
            completing.setdefault(tuple(a - b for a, b in zip(t, w)), []).append(k)
    return [(i, j, k) for i in range(L.dim) for j in range(i + 1, L.dim)
            for k in completing.get(tuple(map(sum, zip(weights[i], weights[j]))), ())
            if k > j]


def _weight_upper(L, i, j, k):
    """Whether the triple's summed weight is 0 or a positive root."""
    total = tuple(map(sum, zip(L.weight(i), L.weight(j), L.weight(k))))
    return not any(total) or L.datum.index.get(total) in L.datum.positive


def _weight_zero(L, i, j, k):
    """Whether the triple's summed weight is 0."""
    return not any(map(sum, zip(L.weight(i), L.weight(j), L.weight(k))))


def _general_reference(L):
    """The failing triples of the general kernel alone, over every live one."""
    return [t for t in _live_triples(L) if liealg._jacobi_fails(L.flat, L.dim, *t)]


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "E6"])
def test_graded_scan_skips_only_zero_jacobi_sums(name, monkeypatch):
    L = _lie(name)
    triples = list(combinations(range(L.dim), 3))
    live = [t for t in triples if _weight_live(L, *t)]
    assert _live_triples(L) == live
    # the scan evaluates the live triples of weight 0 or a positive root and
    # mirrors the others; exactly the evaluated ones of weight 0, in order, go
    # to the general kernel ...
    upper = [t for t in live if _weight_upper(L, *t)]
    seen = []
    real = liealg._jacobi_fails

    def recording(flat, n, i, j, k):
        seen.append((i, j, k))
        return real(flat, n, i, j, k)

    monkeypatch.setattr(liealg, "_jacobi_fails", recording)
    report = _jacobi(L)
    assert report.ok and report.evaluated == len(upper)
    assert report.evaluated + report.mirrored == report.live == len(live)
    assert seen == [t for t in upper if _weight_zero(L, *t)]
    assert report.mirrored == len(upper) - len(seen)
    # ... and every triple it skips has a zero Jacobi sum
    for t in triples:
        if not _weight_live(L, *t):
            assert not _jacobi_sum(L, *t), t


def _theta_mutation(L, key, entries):
    """A copy of L with table[key] set to ``entries`` and the entry at its
    image under the involution theta to s_i s_j theta(entries), so that theta
    stays an automorphism."""
    image = [build_theta(L).apply_basis(i) for i in range(L.dim)]
    (ti, si), (tj, sj) = image[key[0]], image[key[1]]
    mirrored = tuple(sorted((image[k][0], si * sj * image[k][1] * c)
                            for k, c in entries))
    if ti > tj:
        ti, tj, mirrored = tj, ti, tuple((k, -c) for k, c in mirrored)
    assert (ti, tj) != key
    return IntegralLieAlgebra(L.datum, L.cocycle,
                              {**L.table, key: entries, (ti, tj): mirrored})


def _flip(L, key):
    """A copy of L with the sign of the first coefficient of table[key]
    flipped, and of its image under theta."""
    (k, c), *rest = L.table[key]
    return _theta_mutation(L, key, ((k, -c), *rest))


def _root_root_key(L):
    """The first table key of two non-opposite root vectors."""
    nc, neg = L.n_cartan, L.datum.negation
    return min(key for key in L.table
               if key[0] >= nc and neg[key[0] - nc] != key[1] - nc)


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "E6"])
@pytest.mark.parametrize("part", ["root-root", "cartan"])
def test_graded_scan_finds_every_failing_triple(name, part):
    L = _lie(name)
    key = _root_root_key(L) if part == "root-root" else min(L.table)
    bad = _flip(L, key)
    brute = [t for t in combinations(range(bad.dim), 3) if _jacobi_sum(bad, *t)]
    assert brute and _jacobi(bad).failures == brute


def test_jacobi_refuses_an_involution_verified_on_another_table():
    # theta is verified on L; mirroring the failures of a mutated copy
    # through it would rest on an unchecked premise
    L = _lie("A2")
    theta = build_theta(L)
    bad = _flip(L, _root_root_key(L))
    for sample in (None, 100):
        with pytest.raises(LieError, match="not verified on this bracket table"):
            verify_jacobi(bad, theta=theta, sample=sample)
    assert verify_jacobi(L, theta=theta).ok


@pytest.mark.parametrize("key, count", [((8, 135), 226), ((3, 34), 282)])
def test_scalar_path_agrees_with_the_general_kernel_on_e8(key, count):
    # a root-root entry and a Cartan-root one: the Cartan triples, and those
    # with an opposite pair, take the scalar path unless their weight is 0
    bad = _flip(_lie("E8"), key)
    full = _jacobi(bad)
    assert (full.evaluated, full.mirrored) == (138496, 135240)
    assert len(full.failures) == count
    assert full.failures == _general_reference(bad)


@pytest.mark.parametrize("entry", [lambda k, c: ((k, c), (k, c)),
                                   lambda k, c: ((k, 200),)],
                         ids=["two-terms", "coefficient-200"])
def test_scalar_path_reads_a_graded_entry_of_any_shape(entry):
    # a graded entry with two terms on one root vector, or a large
    # coefficient, is read through its summed coefficient
    L = _lie("D4")
    key = _root_root_key(L)
    (k, c), = L.table[key]
    bad = _theta_mutation(L, key, entry(k, c))
    report = _jacobi(bad)
    counts = (report.evaluated, report.mirrored)
    assert counts == (_jacobi(L).evaluated, _jacobi(L).mirrored) == (624, 540)
    brute = [t for t in combinations(range(bad.dim), 3) if _jacobi_sum(bad, *t)]
    assert brute and report.failures == brute == _general_reference(bad)


def test_bracket_basis_is_antisymmetric():
    # the lattice algebra and the fixed subalgebra share one constructor: the
    # derived table lists the upper triangle in (i, j) order and rebuilds flat
    L = _lie("D4")
    for alg in (L, fixed_subalgebra(L, build_theta(L))):
        n, table = alg.dim, alg.table
        assert list(table) == sorted(table) and all(i < j for i, j in table)
        assert liealg.SparseLieAlgebra(n, table).flat == alg.flat
        for i in range(n):
            assert alg.bracket_basis(i, i) == ()
            for j in range(n):
                assert alg.bracket_basis(j, i) == tuple(
                    (k, -c) for k, c in alg.bracket_basis(i, j))


@pytest.mark.parametrize("name", ["A2", "D4"])
def test_ungraded_table_is_rejected(name):
    L = _lie(name)
    # [h_1, x_a] = a_1 x_a moved onto x_b, the next root, of another weight,
    # and its theta-image likewise: theta stays an automorphism
    bad = _ungraded(L)
    # the moved entry breaks Jacobi on a triple the graded scan would skip
    assert any(_jacobi_sum(bad, *t) for t in combinations(range(bad.dim), 3)
               if not _weight_live(bad, *t))
    with pytest.raises(LieError, match="not weight graded"):
        _jacobi(bad)


def test_ungraded_table_fails_every_check_that_needs_the_grading():
    bad = _ungraded(_lie("A2"))
    theta = build_theta(bad)
    # both depths check the grading, and nothing is remembered: each call
    # scans and raises again
    for sample in (None, 100, None, 100):
        with pytest.raises(LieError, match="not weight graded"):
            verify_jacobi(bad, theta=theta, sample=sample)


def _ungraded(L):
    """L with [h_1, x_a] = a_1 x_a moved onto the next root vector, and its
    image under theta moved to match."""
    key = min(key for key in L.table if key[0] == 0)
    (k, c), = L.table[key]
    return _theta_mutation(L, key, ((k + 1, c),))


def test_jacobi_sampled_mode(e6_stack):
    report = verify_jacobi(e6_stack.lie, theta=e6_stack.theta, sample=5000, seed=7)
    assert report.ok and report.sampled
    assert report.checked_unordered == 5000 and report.mirrored == 0
    # the live draws are evaluated, the others are zero by the checked grading
    drawn = liealg._random_triples(e6_stack.lie.dim, 5000, 7)
    live = sum(_weight_live(e6_stack.lie, *t) for t in drawn)
    assert (report.evaluated, report.zero_by_grading) == (live, 5000 - live)


def test_sampled_triples_are_exactly_uniform(monkeypatch):
    # a generator that returns every value of getrandbits(3 b) once, in order:
    # each ordered triple of distinct indices below n is one value, so each
    # unordered triple is drawn exactly 3! = 6 times
    n, b = 5, 3

    class Every:
        def __init__(self, seed):
            self.values = iter(range(2 ** (3 * b)))

        def getrandbits(self, bits):
            assert bits == 3 * b
            return next(self.values)

    monkeypatch.setattr(liealg.random, "Random", Every)
    drawn = Counter(liealg._random_triples(n, 6 * 10, seed=None))
    assert drawn == {t: 6 for t in combinations(range(n), 3)}


def test_sampled_triples_are_determined_by_the_seed(e6_stack):
    first = list(liealg._random_triples(248, 2000, 3))
    assert first == list(liealg._random_triples(248, 2000, 3))
    assert first != list(liealg._random_triples(248, 2000, 4))
    assert all(0 <= i < j < k < 248 for i, j, k in first)
    # a broken table's sampled witnesses are the failing drawn triples
    bad = _flip(e6_stack.lie, _root_root_key(e6_stack.lie))
    report = verify_jacobi(bad, theta=build_theta(bad), sample=20000, seed=3)
    drawn = list(liealg._random_triples(bad.dim, 20000, 3))
    assert report.failures == [t for t in drawn if _jacobi_sum(bad, *t)]
    assert report.failures


def test_cover_lattice_mismatch_is_rejected():
    datum = lattice.root_datum("A2")
    other = lattice.mod2_space(lattice.root_datum("A3"))
    with pytest.raises(LieError):
        build_lie(datum, other)


def test_r_map_refuses_a_representation_of_another_cover(a2_stack, e6_stack):
    with pytest.raises(LieError, match="different cover"):
        build_R(a2_stack.fixed, e6_stack.rep)


def test_theta_traces_and_action(a2_stack, e6_stack, e7_stack):
    assert a2_stack.theta.trace() == -2
    assert e6_stack.theta.trace() == -6
    assert e7_stack.theta.trace() == -7
    # canonical lifts give X_gamma -> X_{-gamma} with sign +1
    L = e6_stack.lie
    for ri in range(len(L.datum.roots)):
        j, s = e6_stack.theta.apply_basis(L.basis_of_root(ri))
        assert j == L.basis_of_root(L.datum.negation[ri])
        assert s == 1


def test_theta_eigenspace_dimensions(e6_stack, e7_stack):
    # theta squares to the identity (build_theta checks it), so the +-1
    # eigenspaces have dimensions (dim +- trace) / 2
    for stack, dims in ((e6_stack, (36, 42)), (e7_stack, (63, 70))):
        dim, trace = stack.lie.dim, stack.theta.trace()
        assert ((dim + trace) // 2, (dim - trace) // 2) == dims


def test_fixed_subalgebra_dimensions(a2_stack, e6_stack, e7_stack):
    assert a2_stack.fixed.dim == 3
    assert e6_stack.fixed.dim == 36
    assert e7_stack.fixed.dim == 63


def test_killing_forms_nondegenerate_with_known_ratio(e7_stack):
    expected_ratio = {"A2": 6, "A3": 8, "D4": 12, "E6": 24}
    for name, ratio in expected_ratio.items():
        L = _lie(name)
        kf = killing_form(L)
        assert kf.nondegenerate
        assert killing_cartan_ratio(L, kf) == Fraction(ratio)
    kf7 = killing_form(e7_stack.lie)
    assert kf7.nondegenerate
    assert killing_cartan_ratio(e7_stack.lie, kf7) == Fraction(36)


def test_killing_grading_block(e6_stack):
    kf = killing_form(e6_stack.lie)
    L = e6_stack.lie
    nc = L.n_cartan
    for ri in range(len(L.datum.roots)):
        for i in range(nc):
            assert kf.matrix[i][nc + ri] == 0
        rj = L.datum.negation[ri]
        for rk in range(len(L.datum.roots)):
            if rk != rj:
                assert kf.matrix[nc + ri][nc + rk] == 0


def _dense_killing(alg):
    """tr(ad a . ad b) from dense ad matrices, ad(a)[m][k] = coefficient of
    e_m in [e_a, e_k], flattened row-major and column-major."""
    n = alg.dim
    flat, flat_t = [], []
    for a in range(n):
        ad = [[0] * n for _ in range(n)]
        for k in range(n):
            for m, c in alg.bracket_basis(a, k):
                ad[m][k] += c
        flat.append([x for row in ad for x in row])
        flat_t.append([ad[m][k] for k in range(n) for m in range(n)])
    return tuple(tuple(sum(map(mul, flat[a], flat_t[b])) for b in range(n))
                 for a in range(n))


@pytest.mark.parametrize("name", ["A2", "D4", "E6"])
def test_killing_forms_match_dense_traces(name):
    datum = lattice.root_datum(name)
    L = build_lie(datum, lattice.mod2_space(datum))
    # L: every entry, the zeros the grading forces included
    kf = killing_form(L)
    dense = _dense_killing(L)
    assert kf.matrix == dense
    assert kf.determinant == _unsplit_det(dense)
    # the fixed subalgebra, through the same kernel
    fixed = fixed_subalgebra(L, build_theta(L))
    gk = killing_form(fixed)
    assert gk.matrix == _dense_killing(fixed)
    assert gk.determinant == _unsplit_det(gk.matrix)
    # its Killing matrix is diagonal in the Z basis; in a basis where it is
    # not, both triangles are compared
    rebased = _rebased(fixed)
    rk = killing_form(rebased)
    assert rk.matrix == _dense_killing(rebased)
    assert rk.determinant == _unsplit_det(rk.matrix)
    assert rk.matrix[1][0] == gk.matrix[1][1] != 0


def _unsplit_det(matrix):
    return intmat._bareiss([list(row) for row in matrix])


def _rebased(fixed):
    """A copy of ``fixed`` with the table rewritten for the basis
    f_0 = Z_0 + Z_1, f_k = Z_k for k >= 1."""
    def up(a):
        return {0: 1, 1: 1} if a == 0 else {a: 1}

    def down(v):  # Z_0 = f_0 - f_1
        return add_terms(dict(v), [(1, -v[0])] if 0 in v else [])

    table = {}
    for a in range(fixed.dim):
        for b in range(a + 1, fixed.dim):
            res = down(fixed.bracket(up(a), up(b)))
            if res:
                table[(a, b)] = tuple(sorted(res.items()))
    out = copy.copy(fixed)
    liealg.SparseLieAlgebra.__init__(out, fixed.dim, table)
    return out


def test_fixed_killing_nondegenerate(e6_stack, e7_stack):
    assert killing_form(e6_stack.fixed).nondegenerate
    assert killing_form(e7_stack.fixed).nondegenerate


def test_killing_form_of_an_ungraded_table_matches_dense_traces():
    # the kernel assumes no zero, so a table that fails the grading check
    # still gets its full trace form
    bad = _ungraded(_lie("A2"))
    kf = killing_form(bad)
    assert kf.matrix == _dense_killing(bad) != killing_form(_lie("A2")).matrix
    assert kf.determinant == _unsplit_det(kf.matrix)


def test_r_homomorphism_small(a2_stack):
    report = verify_R(a2_stack.rmap)
    assert report.ok
    assert report.pairs_checked == 3


def test_build_r_is_half_the_root_lift_image(e6_stack, e7_stack):
    # the definition of R: 2 R(Z_gamma) = rho of the canonical lift of gamma
    for stack in (e6_stack, e7_stack):
        rmap = build_R(stack.fixed, stack.rep)
        datum = stack.datum
        assert len(rmap.mats) == len(stack.fixed.pos) == len(datum.roots) // 2
        for ri, m in zip(stack.fixed.pos, rmap.mats):
            assert m.times(gq(2)) == stack.rep.rho_bits(datum.root_class_bits(ri))


def test_r_scaling_identity(e6_stack):
    # (2 R(Z_gamma))^2 = -identity, forced by the order-4 lifts
    rmap = e6_stack.rmap
    minus_id = MonoMat.identity(rmap.rep.dim_w).times(gq(-1))
    for m in rmap.mats:
        doubled = m.times(gq(2))
        assert doubled * doubled == minus_id
        assert m.trace().is_zero()


def test_identify_fixed_requires_known_shape(a2_stack):
    # dim g = 3 with dim W = 2: the trace-zero route applies (sl2)
    rec = identify_fixed(a2_stack.fixed, a2_stack.rmap)
    assert rec.family == "sl" and rec.w_dim == 2 and rec.fixed_dim == 3


def test_identify_fixed_exceptional(e6_stack, e7_stack):
    rec7 = identify_fixed(e7_stack.fixed, e7_stack.rmap)
    assert rec7.family == "sl"
    # the facts identify_fixed checks, recomputed from the R images: the E7
    # image has rank 63, and E6's invariant forms are one antisymmetric line
    # with a nondegenerate generator
    assert sparse_rank([{r * 8 + c: v for r, c, v in m.entries()}
                        for m in e7_stack.rmap.mats]) == 63
    rec6 = identify_fixed(e6_stack.fixed, e6_stack.rmap)
    assert rec6.family == "sp"
    anti, = invariant_form_space(e6_stack.rmap.mats, sym=-1)
    assert invariant_form_space(e6_stack.rmap.mats, sym=1) == []
    form = form_from_solution(anti, 8, sym=-1)
    assert not intmat.field_eliminate(form, ONE)[0].is_zero()
    n = len(form)
    for i in range(n):
        for j in range(n):
            assert form[i][j] == -form[j][i]


def _generic_form_space(mats, sym):
    """R^T B + B R = 0 for B^T = sym * B, one Gaussian-rational row per
    matrix entry, scales included, all rows to the field elimination."""
    n = mats[0].n
    unknowns = {}
    for a in range(n):
        for b in range(a if sym == 1 else a + 1, n):
            unknowns[a, b] = len(unknowns)

    def entry(a, b):
        # B[a, b] as (unknown, sign), or None on an antisymmetric diagonal
        if (a, b) in unknowns:
            return unknowns[a, b], 1
        return (unknowns[b, a], sym) if (b, a) in unknowns else None

    rows = []
    for m in mats:
        dense = {(r, c): v for r, c, v in m.entries()}
        for a in range(n):
            for b in range(n):
                terms = []
                for k in range(n):
                    for coeff, ref in ((dense.get((k, a)), entry(k, b)),
                                       (dense.get((k, b)), entry(a, k))):
                        if coeff is not None and ref is not None:
                            terms.append((ref[0], coeff * gq(ref[1])))
                row = add_terms({}, terms)
                if row:
                    rows.append(row)
    return sparse_nullspace(rows, len(unknowns))


@pytest.mark.parametrize("flip, dims", [(None, (1, 0)), (0, (0, 0)), (5, (1, 0))],
                         ids=["unchanged", "matrix-0", "matrix-5"])
def test_invariant_forms_match_generic_rows(e6_stack, flip, dims):
    # one phase of one R image moved by +1 at row 3 changes the system; the
    # deduplicated phase equations must still give the generic solution
    mats = list(e6_stack.rmap.mats)
    if flip is not None:
        m = mats[flip]
        phase = m.phase[:3] + ((m.phase[3] + 1) & 3,) + m.phase[4:]
        mats[flip] = MonoMat(m.n, m.col, phase, m.scale)
    anti, symm = (invariant_form_space(mats, sym) for sym in (-1, 1))
    assert (len(anti), len(symm)) == dims
    assert anti == _generic_form_space(mats, -1)
    assert symm == _generic_form_space(mats, 1)


def test_representation_solves_send_distinct_rows(monkeypatch, e6_stack, e7_stack):
    # of the 2 x 2,304 form equations and the 6 x 64 / 7 x 64 commutant
    # equations, only the distinct normalized rows reach the elimination
    sizes = []

    def recording(rows, ncols):
        rows = list(rows)
        sizes.append(len(rows))
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(liealg, "sparse_nullspace", recording)
    monkeypatch.setattr(heisrep, "sparse_nullspace", recording)
    assert len(invariant_form_space(e6_stack.rmap.mats, -1)) == 1
    assert len(invariant_form_space(e6_stack.rmap.mats, 1)) == 0
    commutant = heisrep.commutant_dimension
    assert commutant(e6_stack.rep) == commutant(e7_stack.rep) == 1
    assert sizes == [102, 176, 176, 208]


def test_character_adjoint_action(e6_stack):
    # X_gamma -> (-1)^{f(gamma)} X_gamma, identity on the Cartan part, is an
    # automorphism commuting with theta: the adjoint action of the 2-torsion
    # point dual to f
    L, theta = e6_stack.lie, e6_stack.theta
    for f in (0, 0b1, 0b101010, 0b111111):
        image = _character_image(L, f)
        assert liealg._automorphism_failures(L, image) == []
        assert all(image[theta.apply_basis(i)[0]][1] == s for i, s in image)


def _signed_map_failures(alg, image):
    """The pairs i < j where e_i -> s_i e_{t_i} fails to preserve the
    bracket, from two brackets of sparse vectors per pair."""
    def phi(v):
        return add_terms({}, [(image[k][0], image[k][1] * c) for k, c in v.items()])
    return [(i, j) for i, j in combinations(range(alg.dim), 2)
            if phi(alg.bracket({i: 1}, {j: 1})) != alg.bracket(phi({i: 1}), phi({j: 1}))]


@pytest.mark.parametrize("mutation", ["sign", "moved", "added"])
def test_automorphism_checks_report_every_failing_pair_in_order(mutation):
    L = _lie("D4")
    theta = build_theta(L)
    nc, neg = L.n_cartan, L.datum.negation
    if mutation == "sign":  # [x_a, x_b] negated: theta fails, characters hold
        key = _root_root_key(L)
        entry = tuple((k, -c) for k, c in L.table[key])
    elif mutation == "moved":  # [h_1, x_a] moved onto the next root vector
        key = min(key for key in L.table if key[0] == 0)
        (k, c), = L.table[key]
        entry = ((k + 1, c),)
    else:  # [x_a, x_b] = h_1 where the bracket was zero and so is its image's
        key = next((i, j) for i in range(nc, L.dim) for j in range(i + 1, L.dim)
                   if (i, j) not in L.table and neg[i - nc] != j - nc)
        entry = ((0, 1),)
    bad = IntegralLieAlgebra(L.datum, L.cocycle, {**L.table, key: entry})
    image = [theta.apply_basis(i) for i in range(L.dim)]
    brute = _signed_map_failures(bad, image)
    assert brute and liealg._automorphism_failures(bad, image) == brute
    with pytest.raises(LieError, match=re.escape(f"automorphism check at {brute[0]}")):
        build_theta(bad)
    caught = 0
    for f in range(16):
        image = _character_image(bad, f)
        failures = liealg._automorphism_failures(bad, image)
        assert failures == _signed_map_failures(bad, image)
        caught += bool(failures)
    assert (caught == 0) == (mutation == "sign")


def _character_image(L, f):
    """The character f as a signed basis map: X_gamma -> -X_gamma exactly
    when f(gamma) = 1."""
    nc, bits = L.n_cartan, L.datum.root_class_bits
    return [(i, -1 if i >= nc and parity(f & bits(i - nc)) else 1)
            for i in range(L.dim)]


def test_ad_nilpotency(e6_stack):
    L = e6_stack.lie
    for ri in (0, 5, 33):
        assert ad_nilpotency_degree(L, ri, power=4)


def test_root_recovery_from_cartan_action(e6_stack):
    assert recover_roots_from_ad(e6_stack.lie)


def test_json_export_deterministic(a2_stack):
    import json
    a = json.dumps(a2_stack.lie.to_json_dict(), sort_keys=True)
    b = json.dumps(a2_stack.lie.to_json_dict(), sort_keys=True)
    assert a == b
    d = a2_stack.lie.to_json_dict()
    assert d["dim"] == 8 and d["type"] == "A2" and len(d["basis"]) == 8
