import random

import pytest
from conftest import f2_kernel
from hypothesis import given, settings, strategies as st

from rootcover import intmat, lattice
from rootcover.f2 import (F2Error, F2QuadraticSpace, arf,
                          count_refinements_by_arf, f2_rank,
                          f2_solve, mod2_bits, mul_vec, parity,
                          standard_symplectic_space, symplectic_decomposition)
from rootcover.lattice import mod2_rank_one_plus


def test_q_vanishes_at_zero():
    space = standard_symplectic_space(2, qbits=0b0110)
    assert space.q(0) == 0


def test_hyperbolic_plane_polarization_value():
    space = standard_symplectic_space(1, qbits=0)
    # q(e + f) = q(e) + q(f) + <e, f> = 1
    assert space.q(0b11) == 1


def test_root_classes_have_q_one():
    datum = lattice.root_datum("E6")
    space = lattice.mod2_space(datum)
    for i in range(len(datum.roots)):
        assert space.q(datum.root_class_bits(i)) == 1


def test_polarization_identity_exhaustive():
    spaces = [standard_symplectic_space(2, qbits=0b1011),
              lattice.mod2_space(lattice.root_datum("E6")),
              lattice.mod2_space(lattice.root_datum("E7")),
              standard_symplectic_space(5, qbits=0b1100110011)]
    for space in spaces:
        n = 1 << space.dim
        for u in range(n):
            qu = space.q(u)
            for v in range(n):
                assert space.q(u ^ v) ^ qu ^ space.q(v) == space.pairing(u, v)


def test_arf_two_dimensional_cases():
    assert arf(standard_symplectic_space(1, qbits=0b00)) == 0
    assert arf(standard_symplectic_space(1, qbits=0b11)) == 1


def test_arf_of_e6_mod2_space_is_one():
    space = lattice.mod2_space(lattice.root_datum("E6"))
    assert arf(space) == 1


def test_arf_rejects_degenerate_and_odd():
    datum = lattice.root_datum("E7")
    with pytest.raises(F2Error):
        arf(lattice.mod2_space(datum))  # odd dim
    rows = (0, 0)
    degenerate = F2QuadraticSpace(2, rows, 0)
    with pytest.raises(F2Error):
        arf(degenerate)


@pytest.mark.parametrize("dim, gram, qbits", [
    (17, (0,) * 17, 0), (2, (0b10,), 0), (2, (0b110, 0b01), 0),
    (2, (0b10, 0b01), 0b100), (2, (0b10, 0b00), 0), (2, (0b11, 0b01), 0)])
def test_space_rejects_malformed_input(dim, gram, qbits):
    # above MAX_DIM, row count, a row or q bit beyond dim, asymmetric, diagonal
    with pytest.raises(F2Error):
        F2QuadraticSpace(dim, gram, qbits)


def test_refinement_counts_match_closed_formulas():
    for g in (1, 2, 3, 4):
        c0, c1 = count_refinements_by_arf(g)
        assert c0 == 2 ** (g - 1) * (2 ** g + 1)
        assert c1 == 2 ** (g - 1) * (2 ** g - 1)
        assert c0 + c1 == 1 << (2 * g)
    with pytest.raises(F2Error):
        count_refinements_by_arf(5)


def test_counting_agrees_with_generic_arf():
    # the table-free arf() routine must agree with the directly counted split
    for g in (1, 2, 3):
        counts = [0, 0]
        for qb in range(1 << (2 * g)):
            counts[arf(standard_symplectic_space(g, qbits=qb))] += 1
        assert tuple(counts) == count_refinements_by_arf(g)


def _translate(space, v):
    """q replaced by (v + q)(w) = q(w) + <v, w>: the basis values shift by
    gram v, as invariant_odd_refinements shifts q by a functional."""
    return F2QuadraticSpace(space.dim, space.gram,
                            space.qbits ^ mul_vec(space.gram, v))


def test_translate_refinement_basics():
    space = standard_symplectic_space(2, qbits=0b0110)
    same = _translate(space, 0)
    assert same.qbits == space.qbits
    v = 0b1010
    twice = _translate(_translate(space, v), v)
    assert twice.qbits == space.qbits
    # shifted values follow (v + q)(w) = q(w) + <v, w> everywhere
    shifted = _translate(space, v)
    for w in range(16):
        assert shifted.q(w) == space.q(w) ^ space.pairing(v, w)


def test_arf_translation_rule():
    for qb in range(16):
        space = standard_symplectic_space(2, qbits=qb)
        base = arf(space)
        for v in range(16):
            shifted = _translate(space, v)
            assert arf(shifted) == base ^ space.q(v)


def test_zero_count_matches_arf_formula():
    for g in (1, 2, 3, 4):
        for qb in (0, 1, 0b11, 0b0110 & ((1 << 2 * g) - 1)):
            space = standard_symplectic_space(g, qbits=qb)
            zeros = sum(1 for v in range(1 << (2 * g)) if space.q(v) == 0)
            a = arf(space)
            assert zeros == 2 ** (g - 1) * (2 ** g + (1 if a == 0 else -1))
    lattice_space = lattice.mod2_space(lattice.root_datum("E6"))
    zeros = sum(1 for v in range(64) if lattice_space.q(v) == 0)
    assert zeros == 28  # Arf 1, g = 3


def _random_symplectic(space, rng, steps=10):
    """Product of random transvections x -> x + <x, v> v."""
    def transvect(x, v):
        return x ^ (v if space.pairing(x, v) else 0)

    vs = [rng.randrange(1, 1 << space.dim) for _ in range(steps)]

    def apply(x):
        for v in vs:
            x = transvect(x, v)
        return x

    return apply


def test_arf_invariant_under_symplectic_changes():
    rng = random.Random(7)
    for g in (1, 2, 3):
        for qb in (0, 3, 5):
            space = standard_symplectic_space(g, qbits=qb & ((1 << 2 * g) - 1))
            base = arf(space)
            for _ in range(100):
                s = _random_symplectic(space, rng)
                moved_bits = 0
                for i in range(space.dim):
                    if space.q(s(1 << i)):
                        moved_bits |= 1 << i
                moved = F2QuadraticSpace(space.dim, space.gram, moved_bits)
                assert arf(moved) == base


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 255),
       st.lists(st.integers(1, 255), max_size=12))
def test_arf_is_invariant_under_random_symplectic_bases(g, qbits, vectors):
    # A = the product of the transvections x -> x + <x, v> v preserves the
    # pairing; q o A has basis values q(A e_i) and the same Arf invariant
    dim = 2 * g
    space = standard_symplectic_space(g, qbits=qbits & ((1 << dim) - 1))
    vectors = [v & ((1 << dim) - 1) for v in vectors]

    def a(x):
        for v in vectors:
            if space.pairing(x, v):
                x ^= v
        return x

    moved_bits = sum(space.q(a(1 << i)) << i for i in range(dim))
    moved = F2QuadraticSpace(dim, space.gram, moved_bits)
    images = [a(1 << i) for i in range(dim)]
    assert [[space.pairing(u, w) for w in images] for u in images] == \
        [[space.pairing(1 << i, 1 << j) for j in range(dim)] for i in range(dim)]
    for x in range(1 << dim):
        assert moved.q(x) == space.q(a(x))
    assert arf(moved) == arf(space)


def test_symplectic_decomposition_shape():
    datum = lattice.root_datum("E7")
    space = lattice.mod2_space(datum)
    pairs, radical = symplectic_decomposition(space)
    assert len(pairs) == 3 and len(radical) == 1
    for v, w in pairs:
        assert space.pairing(v, w) == 1


def _h1_oracle(w):
    """Kernel and image of 1 + w mod 2, w an integer matrix, by iterating
    all vectors."""
    n = len(w)
    big_n = [mod2_bits(row) ^ (1 << i) for i, row in enumerate(w)]
    kernel = {v for v in range(1 << n) if mul_vec(big_n, v) == 0}
    image = {mul_vec(big_n, v) for v in range(1 << n)}
    k = len(kernel).bit_length() - 1
    r = len(image).bit_length() - 1
    return k, r, k - r


def test_h1_identity_and_minus_one():
    ident = intmat.identity(6)
    minus_one = tuple(tuple(-x for x in row) for row in ident)
    # -1 reduces to the identity mod 2
    assert mod2_rank_one_plus(ident) == mod2_rank_one_plus(minus_one) == 0
    assert _h1_oracle(ident) == _h1_oracle(minus_one) == (6, 0, 6)


def _reflection(datum, root_index):
    """The integer matrix of a reflection; column j is the image of e_j."""
    n = datum.rank
    images = [datum.reflect(tuple(1 if j == i else 0 for j in range(n)), root_index)
              for i in range(n)]
    return tuple(tuple(images[j][i] for j in range(n)) for i in range(n))


def test_h1_single_reflection_on_e6():
    datum = lattice.root_datum("E6")
    w = _reflection(datum, datum.simple[0])
    assert mod2_rank_one_plus(w) == 1
    assert _h1_oracle(w) == (5, 1, 4)


def test_h1_three_commuting_reflections():
    datum = lattice.root_datum("E6")
    roots = datum.roots
    triple = None
    import itertools
    for combo in itertools.combinations(datum.simple, 3):
        if all(datum.inner(roots[a], roots[b]) == 0
               for a, b in itertools.combinations(combo, 2)):
            triple = combo
            break
    assert triple is not None
    w = intmat.identity(6)
    for ri in triple:
        w = intmat.matmul(w, _reflection(datum, ri))
    assert mod2_rank_one_plus(w) == 3
    assert _h1_oracle(w) == (3, 3, 0)


def test_kernel_and_rank_helpers():
    rows = [0b101, 0b011]
    assert f2_rank(rows, 3) == 2
    ker = f2_kernel(rows, 3)
    assert len(ker) == 1
    for row in rows:
        assert bin(row & ker[0]).count("1") % 2 == 0


def _span(vectors):
    """Every F2 combination of the vectors, by brute force."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


@st.composite
def bit_rows(draw):
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=6))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(bit_rows(), st.integers(0, 63))
def test_echelon_rank_kernel_and_solve_match_brute_force(case, target):
    rows, ncols = case
    target &= (1 << ncols) - 1
    span = _span(rows)
    rank = f2_rank(rows, ncols)
    assert 1 << rank == len(span)
    kernel = {x for x in range(1 << ncols)
              if all(parity(row & x) == 0 for row in rows)}
    basis = f2_kernel(rows, ncols)
    assert len(basis) == ncols - rank
    assert _span(basis) == kernel
    coeffs = f2_solve(rows, target, ncols)
    if target not in span:
        assert coeffs is None
    else:
        total = 0
        for i, row in enumerate(rows):
            if (coeffs >> i) & 1:
                total ^= row
        assert total == target

