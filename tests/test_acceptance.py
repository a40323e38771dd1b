"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime and asserting the stated tolerance (all values exact)."""

import random
import time
from fractions import Fraction as F

from conftest import (ONE, ZERO, dense_entries, dense_mul, field_eliminate,
                      form_from_solution, gq, invariant_form_space, pgl2_to_so3,
                      verify_comm_relation)

from rootcover import intmat, lattice
from rootcover.f2 import count_refinements_by_arf
from rootcover.gaussian import sparse_rank
from rootcover.heisrep import anticommutation_model_holds, verify_rep
from rootcover.lattice import (bitangent_complement, classify_involutions,
                               delpezzo_k_perp, lines, lines_meeting,
                               weyl_enumerate)
from rootcover.liealg import identify_fixed, killing_form, verify_R, verify_jacobi
from rootcover.quartic import (family_member, smoothness_probe,
                               tangent_contact_order)
from rootcover.realtable import emit_table


def _report(num, label, elapsed, budget):
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget


def test_criterion_01_arf_counts():
    t0 = time.perf_counter()
    assert count_refinements_by_arf(1) == (3, 1)
    assert count_refinements_by_arf(2) == (10, 6)
    assert count_refinements_by_arf(3) == (36, 28)
    _report(1, "refinement counts by Arf invariant for g = 1, 2, 3",
            time.perf_counter() - t0, 1)


def test_criterion_02_jacobi_exhaustive(e6_stack, e7_stack):
    from rootcover.liealg import build_lie, build_theta
    for name in ("A2", "A3", "D4"):
        datum = lattice.root_datum(name)
        L = build_lie(datum, lattice.mod2_space(datum))
        report = verify_jacobi(L, theta=build_theta(L))
        assert report.ok and report.covered_ordered == L.dim ** 3

    report6 = verify_jacobi(e6_stack.lie, theta=e6_stack.theta)
    assert report6.ok and report6.covered_ordered == 78 ** 3

    t0 = time.perf_counter()
    report7 = verify_jacobi(e7_stack.lie, theta=e7_stack.theta)
    elapsed = time.perf_counter() - t0
    assert report7.ok and report7.covered_ordered == 133 ** 3
    _report(2, "exhaustive Jacobi for A2, A3, D4, E6, E7", elapsed, 60)


def test_criterion_03_involution_trace(e6_stack, e7_stack):
    t0 = time.perf_counter()
    assert e6_stack.theta.trace() == -6
    assert e7_stack.theta.trace() == -7
    _report(3, "involution traces -6 and -7", time.perf_counter() - t0, 60)


def test_criterion_04_fixed_dimensions_and_semisimplicity(e6_stack, e7_stack):
    t0 = time.perf_counter()
    assert e6_stack.fixed.dim == 36
    assert e7_stack.fixed.dim == 63
    k6 = killing_form(e6_stack.fixed)
    k7 = killing_form(e7_stack.fixed)
    assert intmat.bareiss_det(k6) != 0
    assert intmat.bareiss_det(k7) != 0
    _report(4, "fixed subalgebra dims 36/63 with nondegenerate Killing forms",
            time.perf_counter() - t0, 60)


def test_criterion_05_fixed_rep_homomorphism(e6_stack, e7_stack):
    t0 = time.perf_counter()
    r6 = verify_R(e6_stack.rmap)
    r7 = verify_R(e7_stack.rmap)
    assert r6.ok and r6.pairs_checked == 36 * 35 // 2
    assert r7.ok and r7.pairs_checked == 63 * 62 // 2
    _report(5, "induced action is a bracket homomorphism on all pairs",
            time.perf_counter() - t0, 30)


def test_criterion_06_fixed_type_identification(e6_stack, e7_stack):
    t0 = time.perf_counter()
    rec7 = identify_fixed(e7_stack.fixed, e7_stack.rmap)
    assert rec7.family == "sl"
    image = [{r * 8 + c: v for r, c, v in dense_entries(m)} for m in e7_stack.rmap.mats]
    assert sparse_rank(image) == 63 == 8 * 8 - 1
    rec6 = identify_fixed(e6_stack.fixed, e6_stack.rmap)
    assert rec6.family == "sp"
    anti = invariant_form_space(e6_stack.rmap.mats, sym=-1)
    assert len(anti) == 1
    assert len(invariant_form_space(e6_stack.rmap.mats, sym=1)) == 0
    det, _ = field_eliminate(form_from_solution(anti[0], 8, sym=-1), ONE)
    assert not det.is_zero()
    _report(6, "fixed types certified: sl(8) inside E7, sp(8) inside E6",
            time.perf_counter() - t0, 60)


def test_criterion_07_cover_representation(e6_stack, e7_stack):
    t0 = time.perf_counter()
    for stack, expected_pairs in ((e6_stack, 16384), (e7_stack, 65536)):
        rc = sorted({stack.datum.root_class_bits(i)
                     for i in range(len(stack.datum.roots))})
        report = verify_rep(stack.rep, root_classes=rc)
        assert report.ok
        assert report.pairs_checked == expected_pairs
        assert report.rho_minus_one_is_minus_id
        assert report.commutant_dim == 1
    _report(7, "full cover multiplication tables, center action, commutant",
            time.perf_counter() - t0, 10)


def test_criterion_08_blowup_lattice_facts():
    t0 = time.perf_counter()
    assert len(delpezzo_k_perp().roots) == 126
    e = (0, 0, 0, 0, 0, 0, 0, 1)
    assert len(bitangent_complement(e).roots) == 72
    assert len(lines()) == 56
    assert len(lines_meeting(e)) == 27
    _report(8, "blow-up lattice counts 126 / 72 / 56 / 27",
            time.perf_counter() - t0, 5)


def test_criterion_09_real_orbit_table(e6_stack):
    t0 = time.perf_counter()
    weyl = weyl_enumerate(e6_stack.datum)
    assert len(weyl) == 51840
    classes = classify_involutions(e6_stack.datum, weyl)
    rows = emit_table(e6_stack.datum, classes)
    assert [r.real_bitangents for r in rows] == [28, 16, 8, 4, 4]
    assert [r.j_mod_2j_size for r in rows] == [8, 4, 2, 1, 2]
    assert [r.orbit_count for r in rows] == [36, 10, 3, 1, 3]
    _report(9, "real orbit table over the fully enumerated Weyl group",
            time.perf_counter() - t0, 60)


def test_criterion_10_appendix_identities(e6_stack, e7_stack):
    t0 = time.perf_counter()
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        m1 = tuple(tuple(gq(rng.randint(-5, 5)) for _ in range(2)) for _ in range(2))
        m2 = tuple(tuple(gq(rng.randint(-5, 5)) for _ in range(2)) for _ in range(2))
        d1 = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
        d2 = m2[0][0] * m2[1][1] - m2[0][1] * m2[1][0]
        if d1.is_zero() or d2.is_zero():
            continue
        assert pgl2_to_so3(dense_mul(m1, m2)) == \
            dense_mul(pgl2_to_so3(m1), pgl2_to_so3(m2))
        checked += 1

    rot = ((ZERO, ONE), (-ONE, ZERO))
    assert pgl2_to_so3(rot) == ((-ONE, ZERO, ZERO), (ZERO, ONE, ZERO),
                                (ZERO, ZERO, -ONE))
    assert anticommutation_model_holds()

    for stack in (e6_stack, e7_stack):
        datum = stack.datum
        classes = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
        report = verify_rep(stack.rep, root_classes=classes)
        assert report.root_square_failures == []
        # 2 R(Z_gamma) is rho of the canonical lift of gamma mod 2
        for ri, m in zip(stack.fixed.pos, stack.rmap.mats):
            assert m == stack.rep.mats[datum.root_class_bits(ri)]
        assert verify_comm_relation(stack.rep, stack.datum).ok
    _report(10, "matrix identities, order-4 lifts, intertwining for E6 and E7",
            time.perf_counter() - t0, 10)


def test_criterion_11_quartic_families():
    t0 = time.perf_counter()
    singular = smoothness_probe(family_member("e6", (0,) * 6), [5, 7, 11])
    assert singular.kind == "SINGULAR"
    assert singular.witness == (0, 0, 1)

    rng = random.Random(41)
    passed = 0
    attempts = 0
    while passed < 20 and attempts < 200:
        attempts += 1
        if attempts % 2:
            params6 = [F(rng.randint(-5, 5)) for _ in range(6)]
            curve, expected = family_member("e6", params6), 4
        else:
            params7 = [F(rng.randint(-5, 5)) for _ in range(7)]
            curve, expected = family_member("e7", params7), 3
        verdict = smoothness_probe(curve, [5, 7, 11])
        if verdict.kind != "SMOOTH":
            continue
        assert tangent_contact_order(curve) == expected
        passed += 1
    assert passed == 20
    _report(11, "marked contact orders on 20 probed members, singular flag",
            time.perf_counter() - t0, 10)
