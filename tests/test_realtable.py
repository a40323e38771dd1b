import pytest
from conftest import CARRIED_TOPOLOGY, arf, involution_key

from rootcover import realtable
from rootcover.f2 import (F2QuadraticSpace, mod2_bits, mul_vec, parity,
                          standard_symplectic_space)
from rootcover.intmat import identity
from rootcover.realtable import (RealTableError, emit_table,
                                 invariant_odd_refinements, orbit_count,
                                 row_for_involution)
from rootcover.lattice import mod2_rank_one_plus, mod2_space, root_datum


def columns(row):
    return (row.n_c, row.a_c, row.real_bitangents, row.j_mod_2j_size,
            row.orbit_count)


def functional_count(space, w_mod2_rows):
    """The invariant odd refinements counted one functional at a time: each
    f with f o w = f gives the refinement q + f, whose Arf invariant the
    symplectic reference computes."""
    n = space.dim
    cols = [mul_vec(w_mod2_rows, 1 << i) for i in range(n)]
    return sum(1 for f in range(1 << n)
               if all(parity(f & col) == (f >> i) & 1 for i, col in enumerate(cols))
               and arf(F2QuadraticSpace(n, space.gram, space.qbits ^ f)) == 1)


def test_identity_row(e6_stack):
    row = row_for_involution(identity(6), e6_stack.datum, label="1")
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


def test_rows_constant_on_conjugacy_classes(e6_stack, e6_classes, e6_weyl,
                                            e6_members):
    # every involution and the identity: each row equals its class
    # representative's, and the count equals the per-functional Arf count
    datum = e6_stack.datum
    space = mod2_space(datum)
    checked = 0
    for cls in e6_classes:
        base = columns(row_for_involution(cls.representative, datum, label=cls.label))
        for perm in e6_members[involution_key(cls.representative)]:
            w = e6_weyl.matrix(perm)
            row = row_for_involution(w, datum, label=cls.label)
            assert columns(row) == base
            assert row.real_bitangents == functional_count(
                space, [mod2_bits(r) for r in w])
            checked += 1
    assert checked == 891 + 1


def transvection_rows(space, a):
    """The bit rows of x -> x + <x, a> a, which keeps q exactly when q(a) = 1."""
    images = [(1 << j) ^ (a if space.pairing(1 << j, a) else 0)
              for j in range(space.dim)]
    return [sum(((x >> i) & 1) << j for j, x in enumerate(images))
            for i in range(space.dim)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_count_matches_the_functional_count_on_spaces_of_either_arf(g):
    # every refinement of the standard 2g-dimensional space, Arf 0 and 1, and
    # each transvection: those with q(a) = 1 keep q and are counted, the
    # others fail the invariance check
    checked = 0
    for qbits in range(0, 1 << (2 * g), 3 if g == 3 else 1):
        space = standard_symplectic_space(g, qbits)
        for a in range(1 << (2 * g)):
            rows = transvection_rows(space, a)
            if a and not space.q(a):
                with pytest.raises(RealTableError, match="not invariant under w"):
                    invariant_odd_refinements(space, rows)
                continue
            assert invariant_odd_refinements(space, rows) == functional_count(space, rows)
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
    ident_rows = tuple(1 << i for i in range(6))
    assert invariant_odd_refinements(space, ident_rows) == \
        count_refinements_by_arf(3)[1] == 28


def test_invariant_refinement_counts_are_powers_of_two_times_pattern(
        e6_stack, e6_classes, e6_weyl):
    # for each class, record #invariant refinements as a regression anchor
    from rootcover.f2 import parity
    space = mod2_space(e6_stack.datum)
    expected_invariant = {"1": 64, "s1": 32, "s1s2": 16, "s1s2s3": 8, "tau": 16}
    for cls in e6_classes:
        w = cls.representative
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
        row_for_involution(identity(6), e6_stack.datum, label="1")


def test_non_involution_is_rejected(e6_stack):
    shift = tuple(tuple(1 if j == (i + 1) % 6 else 0 for j in range(6))
                  for i in range(6))
    with pytest.raises(RealTableError):
        row_for_involution(shift, e6_stack.datum, label="s1")


def test_json_rows(e6_stack, e6_classes):
    rows = emit_table(e6_stack.datum, e6_classes)
    d = rows[0].to_json_dict()
    assert d == {"class": "1", "n": 4, "a": 0, "real_bitangents": 28,
                 "j_mod_2j": 8, "orbits": 36}
