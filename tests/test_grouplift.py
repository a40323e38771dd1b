import random

import pytest
from conftest import (I, ONE, ZERO, Dense, GroupLiftError, dense_mul, dense_neg,
                      field_eliminate, gq, pgl2_to_so3, verify_comm_relation, with_mats)

from rootcover.gaussian import MonoMat
from rootcover.heisrep import anticommutation_model_holds, verify_rep

# -- the 2x2 -> 3x3 maps of the converse construction, with their dense helpers


def dense_identity(n: int) -> Dense:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def dense_sub(a: Dense, b: Dense) -> Dense:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_transpose(a: Dense) -> Dense:
    return tuple(zip(*a))


def sl2_to_so3_derivative(m: Dense) -> Dense:
    """Derivative of the 2x2 -> 3x3 map on trace-zero matrices; antisymmetric output."""
    (a, b), (c, d) = m[0], m[1]
    if not (a + d).is_zero():
        raise GroupLiftError("input has nonzero trace")
    two_i = I * gq(2)
    return (
        (ZERO, I * (b + c), b - c),
        (-(I * (b + c)), ZERO, two_i * a),
        (c - b, -(two_i * a), ZERO),
    )


def is_special_orthogonal(m: Dense) -> bool:
    mt = dense_transpose(m)
    if dense_mul(mt, m) != dense_identity(3):
        return False
    return field_eliminate(m, ONE)[0] == ONE


def is_antisymmetric(m: Dense) -> bool:
    return dense_transpose(m) == dense_neg(m)


def dense_bracket(x: Dense, y: Dense) -> Dense:
    return dense_sub(dense_mul(x, y), dense_mul(y, x))


def _mat2(a, b, c, d):
    return ((gq(a), gq(b)), (gq(c), gq(d)))


def test_identity_maps_to_identity():
    assert pgl2_to_so3(_mat2(1, 0, 0, 1)) == dense_identity(3)


def test_quarter_turn_maps_to_diagonal_flip():
    got = pgl2_to_so3(_mat2(0, 1, -1, 0))
    expected = ((-ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, -ONE))
    assert got == expected


def test_rejects_singular_input():
    with pytest.raises(GroupLiftError):
        pgl2_to_so3(_mat2(1, 2, 2, 4))


def test_output_is_special_orthogonal_and_scale_invariant():
    rng = random.Random(3)
    for _ in range(25):
        m = _mat2(*(rng.randint(-5, 5) for _ in range(4)))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det.is_zero():
            continue
        img = pgl2_to_so3(m)
        assert is_special_orthogonal(img)
        scaled = tuple(tuple(gq(3) * x for x in row) for row in m)
        assert pgl2_to_so3(scaled) == img


def test_homomorphism_on_random_pairs():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        m1 = _mat2(*(rng.randint(-5, 5) for _ in range(4)))
        m2 = _mat2(*(rng.randint(-5, 5) for _ in range(4)))
        d1 = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
        d2 = m2[0][0] * m2[1][1] - m2[0][1] * m2[1][0]
        if d1.is_zero() or d2.is_zero():
            continue
        assert pgl2_to_so3(dense_mul(m1, m2)) == \
            dense_mul(pgl2_to_so3(m1), pgl2_to_so3(m2))
        checked += 1


def test_derivative_zero_and_diagonal():
    zero = _mat2(0, 0, 0, 0)
    assert sl2_to_so3_derivative(zero) == ((ZERO,) * 3,) * 3
    got = sl2_to_so3_derivative(_mat2(1, 0, 0, -1))
    two_i = gq(0, 2)
    assert got == ((ZERO, ZERO, ZERO), (ZERO, ZERO, two_i),
                   (ZERO, -two_i, ZERO))
    assert is_antisymmetric(got)


def test_derivative_rejects_nonzero_trace():
    with pytest.raises(GroupLiftError):
        sl2_to_so3_derivative(_mat2(1, 0, 0, 1))


def test_derivative_respects_brackets():
    rng = random.Random(9)
    checked = 0
    while checked < 50:
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        c = rng.randint(-4, 4)
        x = _mat2(a, b, c, -a)
        a2, b2, c2 = (rng.randint(-4, 4) for _ in range(3))
        y = _mat2(a2, b2, c2, -a2)
        lhs = sl2_to_so3_derivative(dense_bracket(x, y))
        rhs = dense_bracket(sl2_to_so3_derivative(x), sl2_to_so3_derivative(y))
        assert lhs == rhs
        checked += 1


def test_anticommutation_model():
    assert anticommutation_model_holds()


def test_order_four_certificates(e6_stack, e7_stack):
    # the lifts of the root classes square to -id: one class per pair +-gamma
    for stack in (e6_stack, e7_stack):
        datum = stack.datum
        classes = sorted(set(datum.root_classes))
        assert 2 * len(classes) == len(datum.roots)
        report = verify_rep(stack.rep, root_classes=classes)
        assert report.ok
        assert report.root_square_failures == []


def test_comm_relation_simple_and_all(e6_stack):
    every = verify_comm_relation(e6_stack.rep, e6_stack.datum)
    assert every.ok and every.pairs_checked == 72 * 71 // 2 == 2556


def _simple_class_phase_plus_2(datum, mats):
    bits = datum.root_classes[datum.simple[0]]
    m = mats[bits]
    mats[bits] = MonoMat(m.n, m.col, ((m.phase[0] + 2) & 3,) + m.phase[1:])


def _root_0_class_row_3_plus_1(datum, mats):
    bits = datum.root_classes[0]
    m = mats[bits]
    mats[bits] = MonoMat(m.n, m.col, m.phase[:3] + ((m.phase[3] + 1) & 3,) + m.phase[4:])


@pytest.mark.parametrize("corrupt", [_simple_class_phase_plus_2,
                                     _root_0_class_row_3_plus_1],
                         ids=["simple-class-phase-2", "root-0-row-3"])
@pytest.mark.parametrize("kind, pairs", [("E6", 2556), ("E7", 7875)])
def test_table_check_sees_every_comm_relation_fault(request, kind, pairs, corrupt):
    # verify reads the commutation rule of the root lifts from the verified
    # multiplication table: a corruption that breaks the rule breaks the table
    stack = request.getfixturevalue(f"{kind.lower()}_stack")
    datum, rep = stack.datum, stack.rep
    report = verify_comm_relation(rep, datum)
    assert report.ok and report.pairs_checked == pairs
    mats = list(rep.mats)
    corrupt(datum, mats)
    bad = with_mats(rep, mats)
    classes = sorted(set(datum.root_classes))
    assert verify_rep(bad, root_classes=classes).failures
    assert not verify_comm_relation(bad, datum).ok


def test_flipped_sign_breaks_comm_relation(e6_stack):
    datum, rep = e6_stack.datum, e6_stack.rep
    bits = datum.root_classes[datum.simple[0]]
    mats = list(rep.mats)
    _simple_class_phase_plus_2(datum, mats)
    report = verify_comm_relation(with_mats(rep, mats), datum)
    assert not report.ok
    assert report.pairs_checked == 2556
    # a root pair fails only through a root in the flipped class
    assert all(bits in (datum.root_classes[g], datum.root_classes[d])
               for g, d in report.failures)


def test_orthogonal_pairs_commute(e6_stack):
    datum = e6_stack.datum
    rep = e6_stack.rep
    roots = datum.roots
    found = 0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if datum.inner(roots[i], roots[j]) == 0:
                mi = rep.mats[datum.root_classes[i]]
                mj = rep.mats[datum.root_classes[j]]
                assert mi * mj == mj * mi
                found += 1
                if found >= 40:
                    return


def test_adjacent_simple_pairs_anticommute(e6_stack):
    datum = e6_stack.datum
    rep = e6_stack.rep
    roots = datum.roots
    for a in datum.simple:
        for b in datum.simple:
            if datum.inner(roots[a], roots[b]) == -1:
                ma = rep.mats[datum.root_classes[a]]
                mb = rep.mats[datum.root_classes[b]]
                assert ma * mb == -(mb * ma)


def test_cover_realized_faithfully_in_matrices(e6_stack, e7_stack):
    # (sign, v) -> sign * M_v is injective, so the matrix group generated by
    # the root-lift images together with -id realizes the cover
    for stack in (e6_stack, e7_stack):
        mats = stack.rep.mats
        images = {(s.col, s.phase) for m in mats for s in (m, -m)}
        assert len(images) == 2 * len(mats)
