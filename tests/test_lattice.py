import itertools
import math
import tracemalloc
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

import pytest
from conftest import (f2_kernel, involution_key, reference_enumerate_roots,
                      row_lattice_index, weyl_elements, weyl_layers)

from rootcover import intmat, lattice
from rootcover.intmat import IntMatrix
from rootcover.lattice import (DelPezzoPicard, IntLattice, LatticeError,
                               RootDatum, _perm_size,
                               bitangent_complement,
                               cartan_gram, classify_involutions,
                               delpezzo_k_perp, discriminant_group,
                               enumerate_roots, lines, lines_meeting,
                               mod2_rank_one_plus, mod2_space, root_datum,
                               short_vectors, weyl_degrees, weyl_enumerate)
from rootcover.quartic import FAMILIES

# -- models that the tests check lattice against ----------------------------


def pairing_table(datum: RootDatum) -> List[List[int]]:
    g = datum.lattice.gram
    half = [[sum(gr * y for gr, y in zip(row, c)) for row in g] for c in datum.roots]
    return [[sum(a * b for a, b in zip(datum.roots[i], half[j]))
             for j in range(len(datum.roots))] for i in range(len(datum.roots))]


def verify_gram_preservation(datum: RootDatum, perms: Sequence[bytes]) -> bool:
    """Check w^T gram w = gram for every element, via the root pairing table."""
    table = pairing_table(datum)
    simple = datum.simple
    n = datum.rank
    for p in perms:
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
        perm = perm.translate(datum.reflection_perm(q) + bytes(range(size, 256)))
    return perm


def fraction_short_vectors(gram, target: int) -> List[Tuple[int, ...]]:
    """The rational Fincke-Pohst descent that short_vectors scales to
    integers: the same vectors must come out in the same order."""
    n = len(gram)
    d, u = intmat.ldlt(gram)
    out = []
    x = [0] * n

    def descend(i, budget):
        if i < 0:
            if budget == 0:
                out.append(tuple(x))
            return
        s = sum((u[i][j] * x[j] for j in range(i + 1, n)), Q(0))
        k0 = math.floor(-s)
        k = k0
        while d[i] * (k + s) ** 2 <= budget:
            x[i] = k
            descend(i - 1, budget - d[i] * (k + s) ** 2)
            k -= 1
        k = k0 + 1
        while d[i] * (k + s) ** 2 <= budget:
            x[i] = k
            descend(i - 1, budget - d[i] * (k + s) ** 2)
            k += 1
        x[i] = 0

    descend(n - 1, Q(target))
    return out


def left_closure(datum: RootDatum) -> set:
    """The Weyl group by breadth-first search over left products s_i w,
    keeping every element met: no length argument involved."""
    size = len(datum.roots)
    gens = [datum.reflection_perm(si) + bytes(range(size, 256)) for si in datum.simple]
    ident = bytes(range(size))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p.translate(g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def poincare_coefficients(degrees: Sequence[int]) -> List[int]:
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1))."""
    coeffs = [1]
    for deg in degrees:
        nxt = [0] * (len(coeffs) + deg - 1)
        for i, c in enumerate(coeffs):
            for j in range(deg):
                nxt[i + j] += c
        coeffs = nxt
    return coeffs


def root_length(datum: RootDatum, perm: bytes) -> int:
    """l(w): the number of positive roots that w sends to negative ones."""
    pos = set(datum.positive)
    return sum(1 for r in datum.positive if perm[r] not in pos)


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


def _delpezzo_grams(monkeypatch):
    """The two complement grams that _sublattice_datum hands to enumerate_roots."""
    grams = []
    real = lattice.enumerate_roots

    def record(lat):
        grams.append(lat.gram)
        return real(lat)

    monkeypatch.setattr(lattice, "enumerate_roots", record)
    delpezzo_k_perp()
    bitangent_complement((0, 0, 0, 0, 0, 0, 0, 1))
    return grams


def _reference_grams(monkeypatch):
    """The grams on which the root enumeration is checked against its
    references: A2-A8, D4-D8, E6-E8, A16, D16 and the two del Pezzo ones."""
    names = ([f"A{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "A16", "D16"])
    grams = [cartan_gram(name) for name in names] + _delpezzo_grams(monkeypatch)
    assert len(grams) == len(names) + 2
    return grams


def test_integer_short_vectors_match_the_rational_descent(monkeypatch):
    for gram in _reference_grams(monkeypatch):
        assert short_vectors(gram, 2) == fraction_short_vectors(gram, 2)
    # a deeper budget: the 2,160 E8 vectors of norm 4
    e8 = cartan_gram("E8")
    found = short_vectors(e8, 4)
    assert len(found) == 2160 and found == fraction_short_vectors(e8, 4)


def test_short_vectors_rejects_a_gram_that_is_not_positive_definite():
    for gram in (((2, 3), (3, 2)), ((2, 2), (2, 2)), ((-2,),)):
        with pytest.raises(LatticeError, match="not positive definite"):
            short_vectors(gram, 2)


def test_one_pass_matches_the_pairwise_reference(monkeypatch):
    for gram in _reference_grams(monkeypatch):
        got = enumerate_roots(IntLattice(gram))
        want = reference_enumerate_roots(IntLattice(gram))
        assert got.roots == want.roots
        assert got.simple == want.simple
        assert got.lattice.gram == want.lattice.gram


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
    # A1^8 glued by half the sum of its roots: 16 roots, whose 8 simple
    # roots span a sublattice of index 2
    glued = IntLattice(tuple(tuple(2 * (i == j) for j in range(7)) + (1,)
                             for i in range(7)) + ((1,) * 7 + (4,),))
    assert len(short_vectors(glued.gram, 2)) == 16
    with pytest.raises(LatticeError, match="do not generate"):
        enumerate_roots(glued)


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
    size = len(datum.roots)
    ident = bytes(range(size))
    # the identity comes first, alone in layer 0
    assert next(weyl_layers(datum)) == [ident]
    for ri in range(size):
        perm = datum.reflection_perm(ri)
        assert bytes(perm[perm[i]] for i in range(size)) == ident


def test_weyl_e6_order_and_gram_preservation(e6_stack, e6_weyl, e6_elements):
    assert len(e6_weyl) == len(e6_elements) == 51840
    assert verify_gram_preservation(e6_stack.datum, e6_elements)
    # orbit-stabilizer cross-check on the first root
    stab = sum(1 for p in e6_elements if p[0] == 0)
    assert 72 * stab == 51840


@pytest.mark.parametrize("name, degrees", [
    ("A3", (2, 3, 4)), ("D4", (2, 4, 4, 6)), ("D5", (2, 4, 5, 6, 8)),
    ("E6", (2, 5, 6, 8, 9, 12))])
def test_weyl_layers_follow_the_poincare_polynomial(name, degrees):
    datum = root_datum(name)
    layers = list(weyl_layers(datum))
    # layer k holds the length-k elements
    assert all(root_length(datum, p) == k
               for k, layer in enumerate(layers) for p in layer)
    sizes = [len(layer) for layer in layers]
    assert sizes == poincare_coefficients(degrees)
    # the order from the root heights is the closure's count
    assert tuple(weyl_degrees(datum)) == degrees
    assert len(weyl_enumerate(datum)) == sum(sizes)
    if name == "E6":
        assert sizes[-1] == 1 and len(layers) - 1 == 36


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_weyl_elements_match_the_left_closure(name):
    datum = root_datum(name)
    elements = weyl_elements(datum)
    assert len(set(elements)) == len(elements)
    assert set(elements) == left_closure(datum)


def test_table_closure_never_holds_the_group():
    # weyl_enumerate holds the order as a number and the 891 involutions: the
    # 51,840 elements of W(E6), stored whole as 72-byte root permutations,
    # took 6 MB
    tracemalloc.start()
    try:
        datum = root_datum("E6")
        classify_involutions(datum, weyl_enumerate(datum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_weyl_closure_with_a_bad_positivity_mask_raises():
    datum = root_datum("A2")
    # every root marked positive: the negative ones have negative heights
    datum.positive = tuple(range(len(datum.roots)))
    with pytest.raises(LatticeError, match="positive root of height -2"):
        weyl_enumerate(datum)


@pytest.mark.parametrize("heights, message", [
    # three simple roots, one of height 2 and the top root twice: 6 of 12
    ((1, 1, 1, 2, 3, 3), "2 roots of height 3 but 1 of height 2"),
    ((1, 1, 2, 2, 3), "5 positive roots are not half of the 12 roots"),
    ((1, 1, 2, 2, 2, 3), "2 roots of height 1, not the rank 3")])
def test_weyl_degrees_refuse_heights_that_are_not_a_partition(heights, message):
    datum = root_datum("A3")
    first = {}
    for r in datum.positive:
        first.setdefault(sum(datum.roots[r]), r)
    # the premises are read off the heights: listing roots again or leaving
    # them out is enough to break them
    datum.positive = tuple(first[h] for h in heights)
    with pytest.raises(LatticeError, match=message):
        weyl_degrees(datum)


@pytest.mark.parametrize("name, degrees, order", [
    ("E7", (2, 6, 8, 10, 12, 14, 18), 2903040),
    ("E8", (2, 8, 12, 14, 18, 20, 24, 30), 696729600),
    ("D16", (2, 4, 6, 8, 10, 12, 14, 16, 16, 18, 20, 22, 24, 26, 28, 30),
     2 ** 15 * math.factorial(16))])
def test_weyl_degrees_from_the_root_heights(name, degrees, order):
    found = weyl_degrees(root_datum(name))
    assert tuple(found) == degrees and math.prod(found) == order


def test_e6_and_e7_degrees_are_the_family_weights():
    for name, family in (("E6", "e6"), ("E7", "e7")):
        weights = sorted(int(p[1:]) for p, _ in FAMILIES[family][1])
        assert weyl_degrees(root_datum(name)) == weights


def test_weyl_cap_exceeded():
    # the enumeration is refused above rank 6, before any set is formed
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
    assert sum(sizes[1:]) == len(e6_weyl.involutions)


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


@pytest.mark.parametrize("name, count", [
    ("A3", 9), ("D4", 43), ("D5", 155), ("E6", 891)])
def test_involutions_match_the_closure(name, count):
    # the products of orthogonal reflections are every involution: the
    # premise of weyl_enumerate, checked on each type the closure reaches
    datum = root_datum(name)
    size = len(datum.roots)
    ident, pad = bytes(range(size)), bytes(range(size, 256))
    every = {p for p in weyl_elements(datum)
             if p != ident and p.translate(p + pad) == ident}
    involutions = weyl_enumerate(datum).involutions
    assert len(set(involutions)) == len(involutions) == count
    assert set(involutions) == every


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
    assert row_lattice_index([(1, 0), (0, 1)], 2) == 1
    assert row_lattice_index([(2, 0), (0, 1)], 2) == 2


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
