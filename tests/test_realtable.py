import pytest
from conftest import (CARRIED_TOPOLOGY, arf, identity, involution_key, matmul,
                      mod2_rank_one_plus, mul_vec, weyl_matrix)

from rootcover import realtable
from rootcover.f2 import (F2QuadraticSpace, mod2_bits, parity,
                          standard_symplectic_space, vec_mat)
from rootcover.realtable import (RealTableError, emit_table,
                                 invariant_odd_refinements, orbit_count,
                                 row_for_involution)
from rootcover.lattice import (LatticeError, WeylInvolutionClass, mod2_space,
                               root_datum)

IDENTITY_COLUMNS = tuple(1 << i for i in range(6))


def table_columns(row):
    return (row.n_c, row.a_c, row.real_bitangents, row.j_mod_2j_size,
            row.orbit_count)


def functional_count(space, w_columns):
    """The invariant odd refinements counted one functional at a time: each
    f with f o w = f gives the refinement q + f, whose Arf invariant the
    symplectic reference computes."""
    n = space.dim
    return sum(1 for f in range(1 << n)
               if all(parity(f & col) == (f >> i) & 1 for i, col in enumerate(w_columns))
               and arf(F2QuadraticSpace(n, space.gram, space.qbits ^ f)) == 1)


def matrix_route(datum, space, perm):
    """g and the real bitangent count of a Weyl involution by the integer
    matrix: checked to square to the identity, reduced mod 2 row by row,
    applied to each vector as bit rows; the count is #{a : w a = a,
    q(a) != Arf(q)}, Arf(q) from a symplectic basis.  Also returns w v for
    every v."""
    w = weyl_matrix(datum, perm)
    assert matmul(w, w) == identity(datum.rank)
    rows = [mod2_bits(r) for r in w]
    images = [mul_vec(rows, v) for v in range(1 << space.dim)]
    arf_q = arf(space)
    bitangents = sum(1 for a, wa in enumerate(images)
                     if wa == a and space.q(a) != arf_q)
    return 3 - mod2_rank_one_plus(w), bitangents, images


def test_identity_row(e6_stack):
    row = row_for_involution(mod2_space(e6_stack.datum), IDENTITY_COLUMNS, label="1")
    assert (row.real_bitangents, row.j_mod_2j_size, row.orbit_count) == (28, 8, 36)
    assert (row.n_c, row.a_c) == (4, 0)


def test_full_table(e6_stack, e6_classes):
    rows = emit_table(e6_stack.datum, e6_classes)
    assert [r.label for r in rows] == ["1", "s1", "s1s2", "s1s2s3", "tau"]
    assert [r.real_bitangents for r in rows] == [28, 16, 8, 4, 4]
    assert [r.j_mod_2j_size for r in rows] == [8, 4, 2, 1, 2]
    assert [r.orbit_count for r in rows] == [36, 10, 3, 1, 3]
    assert [(r.n_c, r.a_c) for r in rows] == \
        [(4, 0), (3, 1), (2, 1), (1, 1), (2, 0)]
    # the computed topology is the one the table used to carry
    assert {r.label: (r.n_c, r.a_c) for r in rows} == CARRIED_TOPOLOGY


def test_rows_constant_on_conjugacy_classes(e6_stack, e6_classes, e6_members):
    # every involution and the identity, by the permutation route of src:
    # each row equals its class representative's, w v, g and the bitangent
    # count equal those of the integer-matrix route, and the count equals the
    # per-functional Arf count
    datum = e6_stack.datum
    space = mod2_space(datum)
    checked = 0
    for cls in e6_classes:
        base = table_columns(row_for_involution(
            space, datum.mod2_columns(cls.representative), label=cls.label))
        for perm in e6_members[involution_key(datum, cls.representative)]:
            w_columns = datum.mod2_columns(perm)
            row = row_for_involution(space, w_columns, label=cls.label)
            assert table_columns(row) == base
            g, bitangents, images = matrix_route(datum, space, perm)
            assert [vec_mat(w_columns, v) for v in range(1 << 6)] == images
            assert row.j_mod_2j_size == 1 << g
            assert row.real_bitangents == bitangents
            assert row.real_bitangents == functional_count(space, w_columns)
            checked += 1
    assert checked == 891 + 1


def transvection_columns(space, a):
    """The images of the basis under x -> x + <x, a> a, which keeps q exactly
    when q(a) = 1."""
    return [(1 << j) ^ (a if space.pairing(1 << j, a) else 0)
            for j in range(space.dim)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_count_matches_the_functional_count_on_spaces_of_either_arf(g):
    # every refinement of the standard 2g-dimensional space, Arf 0 and 1, and
    # each transvection: those with q(a) = 1 keep q and are counted, the
    # others fail the invariance check
    checked = 0
    for qbits in range(0, 1 << (2 * g), 3 if g == 3 else 1):
        space = standard_symplectic_space(g, qbits)
        for a in range(1 << (2 * g)):
            w_columns = transvection_columns(space, a)
            if a and not space.q(a):
                with pytest.raises(RealTableError, match="not invariant under w"):
                    invariant_odd_refinements(space, w_columns)
                continue
            assert (invariant_odd_refinements(space, w_columns)
                    == functional_count(space, w_columns))
            checked += 1
    assert checked > 1 << (2 * g)


@pytest.mark.parametrize("space", [
    F2QuadraticSpace(2, (0, 0), 0),
    F2QuadraticSpace(4, (0b10, 0b01, 0, 0), 0),
    mod2_space(root_datum("E7"))], ids=["zero", "q-zero-radical", "e7"])
def test_degenerate_pairing_is_rejected(space):
    # |zeros - ones| of q is 2^(dim / 2) only on a nondegenerate pairing: a
    # radical on which q vanishes makes it larger, one on which it does not
    # makes it 0
    with pytest.raises(RealTableError, match="pairing of the mod-2 space is degenerate"):
        invariant_odd_refinements(space, [1 << i for i in range(space.dim)])


def test_identity_count_matches_total_odd_refinements(e6_stack):
    from rootcover.f2 import count_refinements_by_arf
    space = mod2_space(e6_stack.datum)
    assert invariant_odd_refinements(space, IDENTITY_COLUMNS) == \
        count_refinements_by_arf(3)[1] == 28


def test_invariant_refinement_counts_are_powers_of_two_times_pattern(
        e6_stack, e6_classes):
    # for each class, record #invariant refinements as a regression anchor
    expected_invariant = {"1": 64, "s1": 32, "s1s2": 16, "s1s2s3": 8, "tau": 16}
    for cls in e6_classes:
        w = weyl_matrix(e6_stack.datum, cls.representative)
        rows = []
        for i in range(6):
            bits = 0
            for j in range(6):
                if w[i][j] & 1:
                    bits |= 1 << j
            rows.append(bits)
        count = 0
        for f in range(64):
            ok = True
            for i in range(6):
                wv = 0
                for k, row in enumerate(rows):
                    if parity(row & (1 << i)):
                        wv |= 1 << k
                if parity(f & wv) != (f >> i) & 1:
                    ok = False
                    break
            if ok:
                count += 1
        assert count == expected_invariant[cls.label]
        assert count == 1 << (6 - mod2_rank_one_plus(w))


def test_orbit_count_crosschecks(e6_stack, monkeypatch):
    assert orbit_count(0) == 1
    assert orbit_count(1) == 3
    assert orbit_count(2) == 10
    assert orbit_count(3) == 36
    with pytest.raises(RealTableError):
        orbit_count(4)
    # the row's orbit column is the zero count, checked against the closed
    # formula: a wrong count is caught
    monkeypatch.setattr(realtable, "orbit_count", lambda g: 35)
    with pytest.raises(RealTableError, match="orbit count inconsistent"):
        row_for_involution(mod2_space(e6_stack.datum), IDENTITY_COLUMNS, label="1")


def test_non_involution_is_rejected(e6_stack):
    # a class holds a root permutation that squares to the identity, checked
    # once, when the class is made: s_i s_j for joined simple roots has order
    # 3, and a map that is no permutation squares to no identity
    datum = e6_stack.datum
    gram = datum.lattice.gram
    j = next(j for j in range(datum.rank) if gram[0][j] == -1)
    si, sj = (datum.reflection_perm(datum.simple[k]) for k in (0, j))
    pad = bytes(range(len(datum.roots), 256))
    rotation = sj.translate(si + pad)
    assert rotation.translate(rotation.translate(rotation + pad) + pad) == \
        bytes(range(len(datum.roots)))
    for perm in (rotation, bytes(len(datum.roots))):
        with pytest.raises(LatticeError, match="does not square to the identity"):
            WeylInvolutionClass("s1", perm)


def test_table_is_refused_off_e6():
    datum = root_datum("A2")
    with pytest.raises(RealTableError, match="defined over the E6 datum"):
        emit_table(datum, [WeylInvolutionClass("1", bytes(range(len(datum.roots))))])


def test_json_rows(e6_stack, e6_classes):
    rows = emit_table(e6_stack.datum, e6_classes)
    d = rows[0].to_json_dict()
    assert d == {"class": "1", "n": 4, "a": 0, "real_bitangents": 28,
                 "j_mod_2j": 8, "orbits": 36}
