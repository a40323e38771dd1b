import itertools
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

import pytest
from conftest import f2_kernel, involution_key

from rootcover import intmat
from rootcover.intmat import IntMatrix
from rootcover.lattice import (DelPezzoPicard, IntLattice, LatticeError,
                               RootDatum, WeylGroup, _perm_size,
                               _translate_table, bitangent_complement,
                               cartan_gram, classify_involutions,
                               delpezzo_k_perp, discriminant_group,
                               enumerate_roots, lines, lines_meeting,
                               mod2_rank_one_plus, mod2_space, root_datum,
                               short_vectors, weyl_enumerate)

# -- models that the tests check lattice against ----------------------------


def pairing_table(datum: RootDatum) -> List[List[int]]:
    g = datum.lattice.gram
    half = [[sum(gr * y for gr, y in zip(row, c)) for row in g] for c in datum.roots]
    return [[sum(a * b for a, b in zip(datum.roots[i], half[j]))
             for j in range(len(datum.roots))] for i in range(len(datum.roots))]


def verify_gram_preservation(weyl: WeylGroup) -> bool:
    """Check w^T gram w = gram for every element, via the root pairing table."""
    table = pairing_table(weyl.datum)
    simple = weyl.datum.simple
    n = weyl.datum.rank
    for p in weyl.perms:
        img = [p[si] for si in simple]
        for i in range(n):
            for j in range(i, n):
                if table[img[i]][img[j]] != table[simple[i]][simple[j]]:
                    return False
    return True


def orthogonal_root_quadruples(datum: RootDatum, limit: int) -> List[Tuple[int, ...]]:
    """Up to ``limit`` quadruples of pairwise orthogonal roots spanning a D4 subsystem."""
    table = pairing_table(datum)
    pos = datum.positive
    found: List[Tuple[int, ...]] = []
    for quad in itertools.combinations(pos, 4):
        if any(table[a][b] != 0 for a, b in itertools.combinations(quad, 2)):
            continue
        span_count = 0
        for i, c in enumerate(datum.roots):
            coeffs = [Q(table[i][q], 2) for q in quad]
            recon = [sum(co * Q(datum.roots[q][t]) for co, q in zip(coeffs, quad))
                     for t in range(datum.rank)]
            if all(r == x for r, x in zip(recon, c)):
                span_count += 1
        if span_count == 24:
            found.append(quad)
            if len(found) >= limit:
                break
    return found


def tau_involution(datum: RootDatum, quad: Sequence[int]) -> bytes:
    """Product of the four orthogonal reflections: -1 on the quadruple's span, +1 across."""
    size = _perm_size(datum)
    perm = bytes(range(size))
    for q in quad:
        perm = perm.translate(_translate_table(datum.reflection_perm(q), size))
    return perm


def gram_permutation_equivalent(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether two gram matrices agree after permuting the basis (rank <= 8)."""
    n = len(a)
    if len(b) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(a[perm[i]][perm[j]] == b[i][j] for i in range(n) for j in range(n)):
            return True
    return False


# -- independent root-count oracles -----------------------------------------


def _box_count_norm2(gram, radius):
    """Exhaustive search over the coefficient box [-radius, radius]^n."""
    n = len(gram)
    count = 0
    for coords in itertools.product(range(-radius, radius + 1), repeat=n):
        val = sum(coords[i] * gram[i][j] * coords[j]
                  for i in range(n) for j in range(n))
        if val == 2:
            count += 1
    return count


def _model_e8_roots():
    roots = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (-1, 1):
                for sj in (-1, 1):
                    v = [Q(0)] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.add(tuple(v))
    half = (Q(1, 2), Q(-1, 2))
    for signs in itertools.product(half, repeat=8):
        if sum(1 for x in signs if x > 0) % 2 == 0:
            roots.add(signs)
    return roots


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def test_root_counts_against_box_oracle():
    assert _box_count_norm2(cartan_gram("A2"), 2) == 6
    assert _box_count_norm2(cartan_gram("A3"), 2) == 12
    assert _box_count_norm2(cartan_gram("D4"), 3) == 24
    assert len(root_datum("A2").roots) == 6
    assert len(root_datum("A3").roots) == 12
    assert len(root_datum("D4").roots) == 24


def test_root_counts_against_coordinate_model():
    e8 = _model_e8_roots()
    assert len(e8) == 240
    r1 = tuple(Q(x) for x in (0, 0, 0, 0, 0, 0, 1, 1))
    r2 = tuple(Q(x) for x in (0, 0, 0, 0, 0, -1, -1, 0))
    assert _dot(r1, r1) == 2 and _dot(r2, r2) == 2 and _dot(r1, r2) == -1
    e7 = {v for v in e8 if _dot(v, r1) == 0}
    e6 = {v for v in e7 if _dot(v, r2) == 0}
    assert len(e7) == 126
    assert len(e6) == 72
    assert len(root_datum("E8").roots) == 240
    assert len(root_datum("E7").roots) == 126
    assert len(root_datum("E6").roots) == 72


def test_short_vectors_finds_nothing_below_minimum():
    assert short_vectors(cartan_gram("E8"), 1) == []


def test_enumerate_rejects_bad_input():
    odd = IntLattice(((1,),))
    with pytest.raises(LatticeError):
        enumerate_roots(odd)
    indefinite = IntLattice(((2, 3), (3, 2)))
    with pytest.raises(LatticeError):
        enumerate_roots(indefinite)
    # even, positive definite, but with no roots at all: 2 * D4 gram
    scaled = IntLattice(tuple(tuple(2 * x for x in row) for row in cartan_gram("D4")))
    with pytest.raises(LatticeError):
        enumerate_roots(scaled)


def test_reflections_stabilize_the_root_set():
    for name in ("A2", "D4", "E6"):
        datum = root_datum(name)
        for ri in range(len(datum.roots)):
            for c in datum.roots:
                assert datum.reflect(c, ri) in datum.index


def test_canonical_order_and_simple_roots():
    datum = root_datum("E6")
    heights = [sum(c) for c in datum.roots]
    assert heights == sorted(heights)
    assert len(datum.positive) == 36
    for k, ri in enumerate(datum.simple):
        assert datum.roots[ri] == tuple(1 if j == k else 0 for j in range(6))


def test_discriminant_groups():
    assert discriminant_group(IntLattice(cartan_gram("E6"))) == [3]
    assert discriminant_group(IntLattice(cartan_gram("E7"))) == [2]
    assert discriminant_group(IntLattice(cartan_gram("E8"))) == []
    assert discriminant_group(IntLattice(cartan_gram("A3"))) == [4]
    assert discriminant_group(IntLattice(cartan_gram("D4"))) == [2, 2]


def test_weyl_orders_small():
    assert len(weyl_enumerate(root_datum("A2"))) == 6
    assert len(weyl_enumerate(root_datum("A3"))) == 24
    assert len(weyl_enumerate(root_datum("D4"))) == 192


def test_weyl_identity_and_reflection_squares():
    datum = root_datum("A3")
    group = weyl_enumerate(datum)
    size = len(datum.roots)
    ident = bytes(range(size))
    assert group.perms[0] == ident
    for ri in range(size):
        perm = datum.reflection_perm(ri)
        assert bytes(perm[perm[i]] for i in range(size)) == ident


def test_weyl_e6_order_and_gram_preservation(e6_stack, e6_weyl):
    assert len(e6_weyl) == 51840
    assert verify_gram_preservation(e6_weyl)
    # orbit-stabilizer cross-check on the first root
    stab = sum(1 for p in e6_weyl.perms if p[0] == 0)
    assert 72 * stab == 51840


def test_weyl_cap_exceeded():
    # the closure is refused above rank 6, before any element is generated
    with pytest.raises(LatticeError, match="limited to rank 6, not 7"):
        weyl_enumerate(root_datum("E7"))


def test_root_permutations_beyond_256_roots_are_rejected():
    # root permutations are bytes: D16 has 480 roots, E8 (240) is the largest
    # supported type
    datum = root_datum("D16")
    assert len(datum.roots) == 480
    for call in (lambda: datum.reflection_perm(0),
                 lambda: weyl_enumerate(datum),
                 lambda: tau_involution(datum, (0,))):
        with pytest.raises(LatticeError, match="480 roots"):
            call()
    e8 = root_datum("E8")
    assert sorted(e8.reflection_perm(0)) == list(range(240))


def test_involution_classes(e6_classes, e6_weyl, e6_members):
    labels = [c.label for c in e6_classes]
    assert labels == ["1", "s1", "s1s2", "s1s2s3", "tau"]
    keys = [involution_key(c.representative) for c in e6_classes]
    assert keys == [(6, 0), (4, 1), (2, 2), (0, 3), (-2, 2)]
    sizes = [len(e6_members[key]) for key in keys]
    assert sizes == [1, 36, 270, 540, 45]
    assert sum(sizes[1:]) == len(e6_weyl.involutions())


def test_involution_class_constructions(e6_stack, e6_classes, e6_members):
    datum = e6_stack.datum
    table = pairing_table(datum)
    members = {c.label: set(e6_members[involution_key(c.representative)])
               for c in e6_classes}
    size = len(datum.roots)

    def product(indices):
        perm = bytes(range(size))
        for ri in indices:
            g = datum.reflection_perm(ri)
            perm = bytes(g[perm[i]] for i in range(size))
        return perm

    # one simple reflection, then commuting pairs and triples of them
    assert product([datum.simple[0]]) in members["s1"]
    pair = next(c for c in itertools.combinations(datum.simple, 2)
                if table[c[0]][c[1]] == 0)
    assert product(pair) in members["s1s2"]
    triple = next(c for c in itertools.combinations(datum.simple, 3)
                  if all(table[a][b] == 0 for a, b in itertools.combinations(c, 2)))
    assert product(triple) in members["s1s2s3"]


def test_tau_from_any_quadruple_is_in_one_class(e6_stack, e6_classes, e6_weyl,
                                                e6_members):
    datum = e6_stack.datum
    tau = next(c for c in e6_classes if c.label == "tau")
    tau_members = set(e6_members[involution_key(tau.representative)])
    quads = orthogonal_root_quadruples(datum, limit=4)
    assert len(quads) == 4
    for quad in quads:
        perm = tau_involution(datum, quad)
        assert perm in tau_members
        m = e6_weyl.matrix(perm)
        assert e6_weyl.trace(perm) == -2
        assert mod2_rank_one_plus(m) == 2


def test_tau_not_conjugate_to_double_reflection(e6_classes):
    # same mod-2 rank, but the trace, a conjugacy invariant, differs
    keys = {c.label: involution_key(c.representative) for c in e6_classes}
    two, tau = keys["s1s2"], keys["tau"]
    assert two[1] == tau[1] == 2
    assert two[0] != tau[0]


def test_classification_requires_e6():
    datum = root_datum("A2")
    with pytest.raises(LatticeError):
        classify_involutions(datum, weyl_enumerate(datum))


# -- blow-up lattice ---------------------------------------------------------


def _classical_lines():
    out = set()
    for i in range(7):
        v = [0] * 8
        v[1 + i] = 1
        out.add(tuple(v))
    for i, j in itertools.combinations(range(7), 2):
        v = [1] + [0] * 7
        v[1 + i] = v[1 + j] = -1
        out.add(tuple(v))
    for combo in itertools.combinations(range(7), 5):
        v = [2] + [-1 if i in combo else 0 for i in range(7)]
        out.add(tuple(v))
    for i in range(7):
        v = [3] + [-1] * 7
        v[1 + i] = -2
        out.add(tuple(v))
    return out


def test_lines_against_classical_families():
    found = set(lines())
    assert found == _classical_lines()
    assert len(found) == 56


def test_lines_meeting_any_line_is_27():
    for e in lines():
        assert len(lines_meeting(e)) == 27


def test_line_pairing_involution_is_fixed_point_free():
    pic = DelPezzoPicard.standard()
    all_lines = set(lines())
    pairs = set()
    for d in all_lines:
        partner = tuple(-k - x for k, x in zip(pic.canonical, d))
        assert partner in all_lines and partner != d
        pairs.add(frozenset((d, partner)))
    assert len(pairs) == 28


def test_k_perp_is_e7():
    datum = delpezzo_k_perp()
    assert datum.rank == 7
    assert len(datum.roots) == 126
    assert discriminant_group(datum.lattice) == [2]


def test_bitangent_complement_is_e6():
    e = (0, 0, 0, 0, 0, 0, 0, 1)
    datum = bitangent_complement(e)
    assert datum.rank == 6
    assert len(datum.roots) == 72
    assert discriminant_group(datum.lattice) == [3]


def test_bitangent_complement_independent_of_line():
    first = bitangent_complement((0, 0, 0, 0, 0, 0, 0, 1))
    second = bitangent_complement((1, -1, -1, 0, 0, 0, 0, 0))
    assert gram_permutation_equivalent(first.lattice.gram, second.lattice.gram)


def test_bitangent_complement_rejects_non_line():
    with pytest.raises(LatticeError):
        bitangent_complement((1, 0, 0, 0, 0, 0, 0, 0))


def test_mod2_spaces():
    e6 = mod2_space(root_datum("E6"))
    assert e6.dim == 6 and not f2_kernel(e6.gram, e6.dim)
    e7 = mod2_space(root_datum("E7"))
    assert e7.dim == 7 and len(f2_kernel(e7.gram, e7.dim)) == 1


def test_root_datum_json():
    d = root_datum("A2").to_json_dict()
    assert d["type"] == "A2" and d["rank"] == 2 and len(d["roots"]) == 6


def test_integer_kernel_saturation():
    rows = [(2, 4, 6)]
    basis = intmat.integer_kernel(rows, 3)
    assert len(basis) == 2
    for b in basis:
        assert sum(r * x for r, x in zip(rows[0], b)) == 0
    assert intmat.row_lattice_index([(1, 0), (0, 1)], 2) == 1
    assert intmat.row_lattice_index([(2, 0), (0, 1)], 2) == 2


def test_smith_and_bareiss():
    assert intmat.smith_invariant_factors(((2, 0), (0, 3))) == [6]
    assert intmat.smith_invariant_factors(((2, 0), (0, 4))) == [2, 4]
    # determinant and invariant factor product agree
    for name in ("A2", "A3", "D4", "E6", "E7", "E8"):
        gram = cartan_gram(name)
        det = intmat.bareiss_det(gram)
        prod = 1
        for f in intmat.smith_invariant_factors(gram):
            prod *= f
        assert abs(det) == prod
