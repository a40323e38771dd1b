import random

import pytest
from conftest import involution_key

from rootcover import realtable
from rootcover.intmat import identity
from rootcover.realtable import (RealTableError, emit_table,
                                 invariant_odd_refinements, orbit_count,
                                 row_for_involution)
from rootcover.lattice import (RootDatum, WeylGroup, WeylInvolutionClass,
                               mod2_rank_one_plus, mod2_space)


def class_constancy_check(datum: RootDatum, cls: WeylInvolutionClass,
                          weyl: WeylGroup, members, samples: int = 10,
                          seed: int = 0) -> bool:
    """Row values agree across random ``members`` of a conjugacy class."""
    rng = random.Random(seed)
    base = row_for_involution(cls.representative, datum, label=cls.label)
    for _ in range(min(samples, len(members))):
        perm = members[rng.randrange(len(members))]
        row = row_for_involution(weyl.matrix(perm), datum, label=cls.label)
        if (row.real_bitangents, row.j_mod_2j_size, row.orbit_count) != \
                (base.real_bitangents, base.j_mod_2j_size, base.orbit_count):
            return False
    return True


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


def test_rows_constant_on_conjugacy_classes(e6_stack, e6_classes, e6_weyl,
                                            e6_members):
    for cls in e6_classes:
        members = e6_members[involution_key(cls.representative)]
        assert class_constancy_check(e6_stack.datum, cls, e6_weyl, members,
                                     samples=10, seed=3)


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
