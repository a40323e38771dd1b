import copy
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Optional

import pytest
from conftest import (ONE, basis_of_root, bracket, dense_entries, field_eliminate,
                      form_from_solution, gq, gq_trace, gq_vectors, invariant_form_space,
                      rational_inverse, reference_build_payload, reference_fixed_table,
                      reference_r_failures, reference_random_triples, sparse_nullspace,
                      upper_table)

from rootcover import cli, intmat, lattice, liealg, sampling
from rootcover.cmd_pipeline import build_pipeline
from rootcover.f2 import parity
from rootcover.gaussian import MonoMat, add_terms, sparse_rank
from rootcover.liealg import (IntegralLieAlgebra, LieError, RMap, build_lie,
                              build_theta, fixed_subalgebra, identify_fixed,
                              killing_form, verify_R, verify_jacobi)

# -- models that the tests check liealg against -----------------------------


def killing_cartan_ratio(L: IntegralLieAlgebra, killing) -> Fraction:
    """Constant c with K|_Cartan = c * (coweight-basis dual pairing)."""
    dual = rational_inverse(L.datum.lattice.gram)
    nc = L.n_cartan
    ratio: Optional[Fraction] = None
    for i in range(nc):
        for j in range(nc):
            k_val = Fraction(killing[i][j])
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
    xg = {basis_of_root(L, root_index): 1}
    for i in range(L.dim):
        vec = {i: 1}
        for _ in range(power):
            vec = bracket(L, xg, vec)
            if not vec:
                break
        if vec:
            return False
    return True


def recover_roots_from_ad(L: IntegralLieAlgebra) -> bool:
    """Simultaneous Cartan ad-eigenvalues on the X part recover the root set."""
    recovered = set()
    for ri in range(len(L.datum.roots)):
        xi = basis_of_root(L, ri)
        eig = []
        for i in range(L.n_cartan):
            res = bracket(L, {i: 1}, {xi: 1})
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
        xi = basis_of_root(L, ri)
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
        res = dict(L.bracket_basis(basis_of_root(L, ri), basis_of_root(L, rj)))
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
    for (i, j), entries in upper_table(L).items():
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
    terms = [t for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
             for t in bracket(L, bracket(L, {x: 1}, {y: 1}), {z: 1}).items()]
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
                              {**upper_table(L), key: entries, (ti, tj): mirrored})


def _flip(L, key):
    """A copy of L with the sign of the first coefficient of table[key]
    flipped, and of its image under theta."""
    (k, c), *rest = upper_table(L)[key]
    return _theta_mutation(L, key, ((k, -c), *rest))


def _root_root_key(L):
    """The first table key of two non-opposite root vectors."""
    nc, neg = L.n_cartan, L.datum.negation
    return min(key for key in upper_table(L)
               if key[0] >= nc and neg[key[0] - nc] != key[1] - nc)


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "E6"])
@pytest.mark.parametrize("part", ["root-root", "cartan"])
def test_graded_scan_finds_every_failing_triple(name, part):
    L = _lie(name)
    key = _root_root_key(L) if part == "root-root" else min(upper_table(L))
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
    (k, c), = upper_table(L)[key]
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
        n, table = alg.dim, upper_table(alg)
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
    key = min(key for key in upper_table(L) if key[0] == 0)
    (k, c), = upper_table(L)[key]
    return _theta_mutation(L, key, ((k + 1, c),))


def test_jacobi_sampled_mode(e6_stack):
    report = verify_jacobi(e6_stack.lie, theta=e6_stack.theta, sample=5000, seed=7)
    assert report.ok and report.sampled
    assert report.checked_unordered == 5000 and report.mirrored == 0
    # the live draws are evaluated, the others are zero by the checked grading
    drawn = reference_random_triples(e6_stack.lie.dim, 5000, 7)
    live = sum(_weight_live(e6_stack.lie, *t) for t in drawn)
    assert (report.evaluated, report.zero_by_grading) == (live, 5000 - live)


def _drawn(n, count, seed):
    """The sampled scan's draws, each sorted, in order."""
    return [tuple(sorted(t)) for chunk in sampling.sampled_triples(n, count, seed)
            for t in chunk]


def test_sampled_triples_are_exactly_uniform(monkeypatch):
    # one chunk whose first 2^(3 b) words carry every value of getrandbits(3 b)
    # once, in order, in their top bits, the low bits set and the rest of the
    # chunk zero: each ordered triple of distinct indices below n is one
    # value, so each unordered triple is drawn exactly 3! = 6 times
    n, b = 5, 3
    shift = 32 - 3 * b
    chunk = sum((v << shift | (1 << shift) - 1) << 32 * v for v in range(2 ** (3 * b)))

    class Every:
        def __init__(self, seed):
            self.chunks = iter([chunk])

        def getrandbits(self, bits):
            assert bits == 32 * sampling.WORDS
            return next(self.chunks)

    monkeypatch.setattr(sampling.random, "Random", Every)
    drawn = Counter(_drawn(n, 6 * 10, seed=None))
    assert drawn == {t: 6 for t in combinations(range(n), 3)}


@pytest.mark.parametrize("kind", ["A2", "D4", "E6", "E7", "E8", "D16"])
def test_sampled_scan_evaluates_the_live_reference_triples(kind, monkeypatch):
    # index widths b = 3, 5, 7, 8, 8, 9; 6000 draws cross a chunk boundary
    pipe = build_pipeline(kind)
    L, real = pipe.lie, liealg._pair_failures
    assert len(list(sampling.sampled_triples(L.dim, 6000, 3))) > 1
    for count, seed in ((1, 0), (6000, 3)):
        reference = list(reference_random_triples(L.dim, count, seed))
        assert _drawn(L.dim, count, seed) == reference
        seen = []

        def spy(flat, coef, packed, i, j, ks, failures):
            seen.extend((i, j, k) for k in ks)
            return real(flat, coef, packed, i, j, ks, failures)

        monkeypatch.setattr(liealg, "_pair_failures", spy)
        report = verify_jacobi(L, theta=pipe.theta, sample=count, seed=seed)
        monkeypatch.undo()
        live = [t for t in reference if _weight_live(L, *t)]
        assert report.ok and seen == live
        assert (report.evaluated, report.zero_by_grading) == (len(live), count - len(live))


@pytest.mark.parametrize("n", [8, 28, 78, 133, 248, 496])
def test_draw_columns_follow_the_word_arithmetic(n):
    # the columns and the selector come out of each 32-bit word as one
    # getrandbits(3 b) would, whatever the host's byte order
    b = (n - 1).bit_length()
    shift, lane = 32 - 3 * b, (1 << b) - 1
    rng = random.Random(n)
    edges = [(0, 0, 0), (lane, lane, lane), (1, 1, 2), (2, 1, 1), (1, 2, 1),
             (n - 1, n - 2, 0), (0, n - 1, lane), (lane, 0, 1)]
    words = [(i | j << b | k << 2 * b) << shift | rng.getrandbits(shift)
             for i, j, k in edges]
    words += [rng.getrandbits(32) for _ in range(500)]
    chunk = sum(w << 32 * t for t, w in enumerate(words))
    accepted, columns = sampling._draw_columns(chunk, len(words), b, n)
    assert [len(accepted)] + [len(c) for c in columns] == [len(words)] * 4
    for t, w in enumerate(words):
        x = w >> shift
        i, j, k = x & lane, x >> b & lane, x >> 2 * b
        assert (columns[0][t], columns[1][t], columns[2][t]) == (i, j, k)
        assert bool(accepted[t]) == (len({i, j, k}) == 3 and max(i, j, k) < n)


def test_sampled_triples_are_determined_by_the_seed(e6_stack):
    first = list(reference_random_triples(248, 2000, 3))
    assert first == list(reference_random_triples(248, 2000, 3))
    assert first != list(reference_random_triples(248, 2000, 4))
    assert all(0 <= i < j < k < 248 for i, j, k in first)
    # a broken table's sampled witnesses are the failing drawn triples
    bad = _flip(e6_stack.lie, _root_root_key(e6_stack.lie))
    report = verify_jacobi(bad, theta=build_theta(bad), sample=20000, seed=3)
    drawn = list(reference_random_triples(bad.dim, 20000, 3))
    assert report.failures == [t for t in drawn if _jacobi_sum(bad, *t)]
    assert report.failures


def test_cover_lattice_mismatch_is_rejected():
    datum = lattice.root_datum("A2")
    other = lattice.mod2_space(lattice.root_datum("A3"))
    with pytest.raises(LieError):
        build_lie(datum, other)


def test_r_map_refuses_a_representation_of_another_cover(a2_stack, e6_stack):
    with pytest.raises(LieError, match="different cover"):
        RMap(a2_stack.fixed, e6_stack.rep)


def test_theta_traces_and_action(a2_stack, e6_stack, e7_stack):
    assert a2_stack.theta.trace() == -2
    assert e6_stack.theta.trace() == -6
    assert e7_stack.theta.trace() == -7
    # canonical lifts give X_gamma -> X_{-gamma} with sign +1
    L = e6_stack.lie
    for ri in range(len(L.datum.roots)):
        j, s = e6_stack.theta.apply_basis(basis_of_root(L, ri))
        assert j == basis_of_root(L, L.datum.negation[ri])
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


@pytest.mark.parametrize("name", [f"A{r}" for r in range(2, 9)]
                         + [f"D{r}" for r in range(4, 17)] + ["E6", "E7", "E8"])
def test_fixed_table_matches_the_ambient_brackets(name):
    # the closed form (1 + theta)(y) against each [Z_a, Z_b] bracketed in
    # full in L, with the reference's own checks that the bracket has no
    # Cartan component and is fixed by theta
    L = _lie(name)
    theta = build_theta(L)
    assert upper_table(fixed_subalgebra(L, theta)) == reference_fixed_table(L, theta)


@pytest.mark.parametrize("name", ["D4", "E6"])
def test_theta_twisted_by_a_character_is_an_automorphism(name):
    # theta composed with the character X_gamma -> (-1)^f(gamma) X_gamma,
    # sign -1 on the roots where f is 1: the automorphism check keeps its
    # signs for such maps, and for the Cartan part of theta itself
    L = _lie(name)
    nc, neg, bits = L.n_cartan, L.datum.negation, L.datum.root_class_bits
    for f in (0b1, 0b101):
        image = [(i, -1) for i in range(nc)] + [
            (nc + neg[ri], -1 if parity(f & bits(ri)) else 1)
            for ri in range(len(neg))]
        assert liealg._automorphism_failures(L, image) == []


def test_fixed_table_drops_a_cartan_part_of_a_root_bracket():
    # [x_a, x_-b] given a Cartan term, and its theta-image the mirrored one,
    # so that theta stays an automorphism: (1 + theta) kills that term, and
    # the full brackets cancel it
    L = _lie("D4")
    nc, neg = L.n_cartan, L.datum.negation
    a, b = L.datum.positive[:2]
    key = tuple(sorted((nc + a, nc + neg[b])))
    bad = _theta_mutation(L, key, ((0, 1),))
    theta = build_theta(bad)
    assert upper_table(fixed_subalgebra(bad, theta)) == reference_fixed_table(bad, theta)


def test_fixed_subalgebra_refuses_an_involution_verified_on_another_table():
    # the closed form rests on theta being an automorphism of L.flat: an
    # involution verified on another table, even an equal one, is refused
    L = _lie("A2")
    theta = build_theta(L)
    for other in (_flip(L, _root_root_key(L)),
                  IntegralLieAlgebra(L.datum, L.cocycle, upper_table(L))):
        with pytest.raises(LieError, match="not verified on this bracket table"):
            fixed_subalgebra(other, theta)
    assert fixed_subalgebra(L, theta).dim == 3


def test_killing_forms_nondegenerate_with_known_ratio(e7_stack):
    expected_ratio = {"A2": 6, "A3": 8, "D4": 12, "E6": 24}
    for name, ratio in expected_ratio.items():
        L = _lie(name)
        kf = killing_form(L)
        assert intmat.bareiss_det(kf) != 0
        assert killing_cartan_ratio(L, kf) == Fraction(ratio)
    kf7 = killing_form(e7_stack.lie)
    assert intmat.bareiss_det(kf7) != 0
    assert killing_cartan_ratio(e7_stack.lie, kf7) == Fraction(36)


def test_killing_grading_block(e6_stack):
    kf = killing_form(e6_stack.lie)
    L = e6_stack.lie
    nc = L.n_cartan
    for ri in range(len(L.datum.roots)):
        for i in range(nc):
            assert kf[i][nc + ri] == 0
        rj = L.datum.negation[ri]
        for rk in range(len(L.datum.roots)):
            if rk != rj:
                assert kf[nc + ri][nc + rk] == 0


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
    assert kf == dense
    assert intmat.bareiss_det(kf) == _unsplit_det(dense)
    # the fixed subalgebra, through the same kernel
    fixed = fixed_subalgebra(L, build_theta(L))
    gk = killing_form(fixed)
    assert gk == _dense_killing(fixed)
    assert intmat.bareiss_det(gk) == _unsplit_det(gk)
    # its Killing matrix is diagonal in the Z basis; in a basis where it is
    # not, both triangles are compared
    rebased = _rebased(fixed)
    rk = killing_form(rebased)
    assert rk == _dense_killing(rebased)
    assert intmat.bareiss_det(rk) == _unsplit_det(rk)
    assert rk[1][0] == gk[1][1] != 0


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
            res = down(bracket(fixed, up(a), up(b)))
            if res:
                table[(a, b)] = tuple(sorted(res.items()))
    out = copy.copy(fixed)
    liealg.SparseLieAlgebra.__init__(out, fixed.dim, table)
    return out


def test_fixed_killing_nondegenerate(e6_stack, e7_stack):
    assert intmat.bareiss_det(killing_form(e6_stack.fixed)) != 0
    assert intmat.bareiss_det(killing_form(e7_stack.fixed)) != 0


def test_killing_form_of_an_ungraded_table_matches_dense_traces():
    # the kernel assumes no zero, so a table that fails the grading check
    # still gets its full trace form
    bad = _ungraded(_lie("A2"))
    kf = killing_form(bad)
    assert kf == _dense_killing(bad) != killing_form(_lie("A2"))
    assert intmat.bareiss_det(kf) == _unsplit_det(kf)


def test_r_homomorphism_small(a2_stack):
    report = verify_R(a2_stack.rmap)
    assert report.ok
    assert report.pairs_checked == 3


def _with_bracket(rmap, i, j, entries):
    """``rmap`` over a copy of its fixed subalgebra with [z_i, z_j] set to
    ``entries`` (and [z_j, z_i] to their negation)."""
    fixed = copy.copy(rmap.fixed)
    n = fixed.dim
    fixed.flat = list(fixed.flat)
    fixed.flat[i * n + j] = tuple(entries)
    fixed.flat[j * n + i] = tuple((k, -c) for k, c in entries)
    bad = copy.copy(rmap)
    bad.fixed = fixed
    return bad


def test_r_check_matches_the_gaussian_reference_on_planted_brackets(e6_stack):
    rmap = e6_stack.rmap
    fixed = rmap.fixed
    assert verify_R(rmap).failures == reference_r_failures(rmap) == []
    pairs = list(combinations(range(fixed.dim), 2))
    one = next((i, j) for i, j in pairs if len(fixed.bracket_basis(i, j)) == 1)
    empty = next((i, j) for i, j in pairs if not fixed.bracket_basis(i, j))
    (k, c), = fixed.bracket_basis(*one)
    other = (k + 1) % fixed.dim
    for (i, j), entries in [
            (one, [(k, -c)]),                               # a flipped sign
            (one, [(other, c)]),                            # a wrong target
            (one, []),                                      # an emptied bracket
            (one, sorted([(k, c), (other, c)])),            # a second term
            (one, [(k, 2 * c)]),                            # a doubled coefficient
            (empty, [(k, 1)])]:                             # a term where none is
        bad = _with_bracket(rmap, i, j, entries)
        assert verify_R(bad).failures == reference_r_failures(bad) == [(i, j)]


def test_build_r_is_half_the_root_lift_image(e6_stack, e7_stack):
    # the definition of R: rmap.mats holds 2 R(Z_gamma), rho of the canonical
    # lift of gamma
    for stack in (e6_stack, e7_stack):
        rmap = RMap(stack.fixed, stack.rep)
        datum = stack.datum
        assert len(rmap.mats) == len(stack.fixed.pos) == len(datum.roots) // 2
        for ri, m in zip(stack.fixed.pos, rmap.mats):
            assert m == stack.rep.mats[datum.root_class_bits(ri)]


def test_r_scaling_identity(e6_stack):
    # (2 R(Z_gamma))^2 = -identity, forced by the order-4 lifts
    rmap = e6_stack.rmap
    minus_id = -MonoMat.identity(rmap.rep.dim_w)
    for m in rmap.mats:
        assert m * m == minus_id
        assert gq_trace(m).is_zero()


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
    assert sparse_rank([{r * 8 + c: v for r, c, v in dense_entries(m)}
                        for m in e7_stack.rmap.mats]) == 63
    rec6 = identify_fixed(e6_stack.fixed, e6_stack.rmap)
    assert rec6.family == "sp"
    anti, = invariant_form_space(e6_stack.rmap.mats, sym=-1)
    assert invariant_form_space(e6_stack.rmap.mats, sym=1) == []
    form = form_from_solution(anti, 8, sym=-1)
    assert not field_eliminate(form, ONE)[0].is_zero()
    n = len(form)
    for i in range(n):
        for j in range(n):
            assert form[i][j] == -form[j][i]
    # the exhibited cover element spans the solver's line of forms: it is a
    # nonzero multiple of the solution, entry for entry
    w = liealg._invariant_cover_form(e6_stack.rmap)
    exhibited = {(r, c): v for r, c, v in dense_entries(e6_stack.rep.mats[w])}
    support = {(r, c) for r in range(n) for c in range(n) if form[r][c]}
    assert set(exhibited) == support
    assert len({(x.re, x.im) for x in (form[r][c] / v
                                        for (r, c), v in exhibited.items())}) == 1


def _certifies_sl(fixed, rmap, mats):
    """identify_fixed's verdict, by its trace Gram matrix, on ``mats`` in
    place of the image matrices."""
    planted = copy.copy(rmap)
    planted.mats = tuple(mats)
    try:
        return identify_fixed(fixed, planted).family == "sl"
    except LieError as exc:
        assert "trace Gram entry" in str(exc)
        return False


def _spans_sl_over_the_field(mats):
    """The field reference: every matrix trace free, and the matrices of
    rank n^2 - 1 as Gaussian-rational rows."""
    n = mats[0].n
    rows = [{r * n + c: v for r, c, v in dense_entries(m)} for m in mats]
    return all(gq_trace(m).is_zero() for m in mats) and sparse_rank(rows) == n * n - 1


@pytest.mark.parametrize("plant", ["unchanged", "scaled-copy", "row-flipped-copy"])
def test_trace_gram_and_field_rank_reach_the_same_verdict(e7_stack, plant):
    mats = list(e7_stack.rmap.mats)
    u5, u7 = mats[5], mats[7]
    if plant == "scaled-copy":
        # U_7 replaced by i U_5
        mats[7] = MonoMat(u5.n, u5.col, tuple((p + 1) & 3 for p in u5.phase))
    elif plant == "row-flipped-copy":
        # U_7 replaced by U_5 with the sign of row 0 flipped: U_5 - 2 D for
        # the row D of U_5.  D lies off the diagonal and off the column of
        # U_7's row 0, so the copy is orthogonal to U_7 and to the identity:
        # it lies in the span of the other 62 images
        assert u5.col[0] not in (0, u7.col[0])
        mats[7] = MonoMat(u5.n, u5.col, ((u5.phase[0] + 2) & 3,) + u5.phase[1:])
    verdict = _certifies_sl(e7_stack.fixed, e7_stack.rmap, mats)
    assert verdict == _spans_sl_over_the_field(mats) == (plant == "unchanged")


def _generic_form_space(mats, sym):
    """R^T B + B R = 0 for B^T = sym * B, one Gaussian-rational row per
    matrix entry, all rows to the field elimination."""
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
        dense = {(r, c): v for r, c, v in dense_entries(m)}
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
    # union-find reference must still give the generic solution, vector for
    # vector, and identify_fixed's search must find a cover form exactly
    # when the solver finds an antisymmetric one
    mats = list(e6_stack.rmap.mats)
    if flip is not None:
        m = mats[flip]
        phase = m.phase[:3] + ((m.phase[3] + 1) & 3,) + m.phase[4:]
        mats[flip] = MonoMat(m.n, m.col, phase)
    anti, symm = (invariant_form_space(mats, sym) for sym in (-1, 1))
    assert (len(anti), len(symm)) == dims
    assert gq_vectors(anti) == _generic_form_space(mats, -1)
    assert gq_vectors(symm) == _generic_form_space(mats, 1)
    planted = copy.copy(e6_stack.rmap)
    planted.mats = tuple(mats)
    assert (liealg._invariant_cover_form(planted) is not None) == bool(anti)


def test_cover_form_search_requires_antisymmetry(e6_stack):
    # with no image to preserve, every cover element is invariant: the search
    # must still pass over the symmetric ones, the identity first
    planted = copy.copy(e6_stack.rmap)
    planted.mats = ()
    dense = [{(r, c): v for r, c, v in dense_entries(m)} for m in e6_stack.rep.mats]
    first = next(w for w, entries in enumerate(dense)
                 if all(entries.get((c, r)) == -v for (r, c), v in entries.items()))
    assert first > 0 and liealg._invariant_cover_form(planted) == first


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
            if phi(bracket(alg, {i: 1}, {j: 1})) != bracket(alg, phi({i: 1}), phi({j: 1}))]


@pytest.mark.parametrize("mutation", ["sign", "moved", "added"])
def test_automorphism_checks_report_every_failing_pair_in_order(mutation):
    L = _lie("D4")
    theta = build_theta(L)
    nc, neg = L.n_cartan, L.datum.negation
    table = upper_table(L)
    if mutation == "sign":  # [x_a, x_b] negated: theta fails, characters hold
        key = _root_root_key(L)
        entry = tuple((k, -c) for k, c in table[key])
    elif mutation == "moved":  # [h_1, x_a] moved onto the next root vector
        key = min(key for key in table if key[0] == 0)
        (k, c), = table[key]
        entry = ((k + 1, c),)
    else:  # [x_a, x_b] = h_1 where the bracket was zero and so is its image's
        key = next((i, j) for i in range(nc, L.dim) for j in range(i + 1, L.dim)
                   if (i, j) not in table and neg[i - nc] != j - nc)
        entry = ((0, 1),)
    bad = IntegralLieAlgebra(L.datum, L.cocycle, {**table, key: entry})
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


@pytest.mark.parametrize("kind", ["A2", "A3", "D4", "D5", "E6", "E7", "E8"])
def test_build_writes_the_json_of_the_nested_list_payload(capsys, kind):
    # the bracket and matrix tables render themselves from % templates; the
    # text must be json.dumps of the same payload with the tables as lists
    assert cli.main(["build", "--type", kind]) == 0
    out = capsys.readouterr().out
    reference = reference_build_payload(kind)
    expected = json.dumps(reference, sort_keys=True, indent=2) + "\n"
    if out != expected:
        # name the first difference: pytest's diff of two megabyte texts takes minutes
        pairs = enumerate(zip(out.split("\n"), expected.split("\n")))
        pytest.fail(f"first difference (line, written, json.dumps): "
                    f"{next(((n, a, b) for n, (a, b) in pairs if a != b), 'in length')}")
    assert len(reference["algebra"]["brackets"]) > 0
    assert ("rep" in reference) == (kind in ("E6", "E7"))
