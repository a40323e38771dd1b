import json
import sys

import pytest
from conftest import (I, MINUS_ONE, ONE, POWERS_OF_I, ZERO, dense_entries, f2_kernel,
                      field_eliminate, form_from_solution, gq, gq_trace,
                      invariant_form_space, reference_table_failures,
                      search_normal_form_pairs, solver_commutant_dimension,
                      sparse_nullspace, with_mats)
from hypothesis import example, given, settings, strategies as st

from rootcover import heisrep, lattice
from rootcover.f2 import F2QuadraticSpace, f2_rank, symplectic_decomposition
from rootcover.gaussian import MonoMat
from rootcover.heisrep import (HeisRep, RepError, build_heisrep, character,
                               commutant_dimension, normal_form_pairs, verify_rep)


@pytest.fixture(scope="module")
def reps():
    out = {}
    for name in ("A2", "D4", "E6", "E7"):
        datum = lattice.root_datum(name)
        coc = lattice.mod2_space(datum)
        out[name] = (datum, coc, build_heisrep(coc))
    return out


def test_dimensions(reps):
    assert reps["A2"][2].dim_w == 2
    assert reps["D4"][2].dim_w == 2
    assert reps["E6"][2].dim_w == 8
    assert reps["E7"][2].dim_w == 8


def test_arf_normal_form_has_single_twist_site(reps):
    for name in ("A2", "E6", "E7"):
        _, coc, rep = reps[name]
        pairs, radical = normal_form_pairs(coc)
        twist = [p for p in pairs if coc.q(p[0]) or coc.q(p[1])]
        assert len(twist) <= 1
        if twist:
            assert pairs[-1] == twist[0]
            assert coc.q(twist[0][0]) == coc.q(twist[0][1]) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 6), st.integers(0, (1 << 12) - 1),
       st.booleans(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                               max_size=24))
@example(12, 6, 0, True, [])
@example(10, 4, 0b1100000000, True, [(0, 2), (5, 1), (9, 3), (7, 0)])
def test_closed_form_split_matches_the_search(dim, g, qbits, twisted, moves):
    # g hyperbolic planes and a radical, q = 1 on every plane vector when
    # ``twisted`` (g twisted planes), then the basis changed by the row
    # moves b_i += b_j: the closed-form split must give the pairs, in order,
    # that the search inside each two twisted planes gives
    g = min(g, dim // 2)
    if twisted:
        qbits |= (1 << (2 * g)) - 1
    base = F2QuadraticSpace(dim, tuple(1 << (i ^ 1) if i < 2 * g else 0
                                       for i in range(dim)),
                            qbits & ((1 << dim) - 1))
    basis = [1 << i for i in range(dim)]
    for i, j in moves:
        if i != j and max(i, j) < dim:
            basis[i] ^= basis[j]
    space = F2QuadraticSpace(
        dim, tuple(sum(base.pairing(u, w) << j for j, w in enumerate(basis))
                   for u in basis),
        sum(base.q(u) << i for i, u in enumerate(basis)))
    assert normal_form_pairs(space) == search_normal_form_pairs(space)


def test_full_multiplication_tables(reps):
    for name, expected_pairs in (("E6", 16384), ("E7", 65536)):
        datum, coc, rep = reps[name]
        rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
        report = verify_rep(rep, root_classes=rc)
        assert report.ok
        assert report.pairs_checked == expected_pairs
        assert report.commutant_dim == 1
        assert report.rho_minus_one_is_minus_id


def test_radical_scalar_for_e7(reps):
    _, coc, rep = reps["E7"]
    r, = f2_kernel(coc.gram, coc.dim)
    scalar = POWERS_OF_I[rep.mats[r].scalar_value()]
    # q = 1 on the radical forces an order-4 scalar, consistent with the
    # order-4 center of the cover
    assert coc.q(r) == 1
    assert scalar in (I, -I)
    assert scalar * scalar == MINUS_ONE


def test_root_lift_order_four(reps):
    datum, _, rep = reps["E6"]
    minus_id = -MonoMat.identity(rep.dim_w)
    for i in range(len(datum.roots)):
        m = rep.mats[datum.root_class_bits(i)]
        assert m * m == minus_id
        assert (m * m) * (m * m) == MonoMat.identity(rep.dim_w)


def test_traces(reps):
    for name in ("E6", "E7"):
        _, coc, rep = reps[name]
        rad_span = {0}
        for r in f2_kernel(coc.gram, coc.dim):
            rad_span |= {x ^ r for x in rad_span}
        traces = character(rep)
        for v in range(1 << coc.dim):
            t = gq_trace(rep.mats[v])
            assert gq(*traces[v]) == t
            if v in rad_span:
                assert not t.is_zero()
                if v == 0:
                    assert t == gq(rep.dim_w)
            else:
                assert t.is_zero()


def test_verification_survives_basis_permutation(reps):
    # conjugating every matrix by a fixed permutation keeps all identities
    datum, coc, rep = reps["E6"]
    n = rep.dim_w
    perm = tuple((i * 3 + 1) % n for i in range(n))
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    p_mat = MonoMat(n, perm, (0,) * n)
    p_inv = MonoMat(n, tuple(inv), (0,) * n)
    conjugated = tuple(p_inv * m * p_mat for m in rep.mats)
    rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
    report = verify_rep(with_mats(rep, conjugated), root_classes=rc)
    assert report.ok


def test_verify_rep_reuses_the_build_time_table(reps, monkeypatch):
    def no_table_check(rep):
        raise AssertionError("verify_rep checked the table again")

    monkeypatch.setattr(heisrep, "_check_table", no_table_check)
    for name, expected_pairs in (("E6", 16384), ("E7", 65536)):
        datum, _, rep = reps[name]
        assert not rep.report.failures and rep.report.rho_minus_one_is_minus_id
        assert rep.report.pairs_checked == expected_pairs
        assert rep.report.commutant_dim is None
        # a commutant not computed is no pass
        assert not rep.report.ok
        rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
        reused = verify_rep(rep, root_classes=rc)
        assert reused.pairs_checked == expected_pairs
        assert not reused.failures and reused.rho_minus_one_is_minus_id
        assert reused.commutant_dim == 1
        assert rep.report.commutant_dim is None


def test_table_check_translates_one_column_per_v(reps):
    # for each v, one translate by M_v's right table forms M_u M_v for every
    # u: |V| rows of dim_w bytes
    lengths = []

    def profile(frame, event, arg):
        if (event == "c_call" and frame.f_code is heisrep._check_table.__code__
                and getattr(arg, "__name__", None) == "translate"):
            lengths.append(len(arg.__self__))

    _, coc, rep = reps["E6"]
    sys.setprofile(profile)
    try:
        report = heisrep._check_table(rep)
    finally:
        sys.setprofile(None)
    size = 1 << coc.dim
    assert not report.failures and report.rho_minus_one_is_minus_id
    assert report.pairs_checked == 4 * size * size
    assert lengths == [size * rep.dim_w] * size


def _flip_phase(m, r):
    return MonoMat(m.n, m.col, m.phase[:r] + ((m.phase[r] + 1) & 3,) + m.phase[r + 1:])


def _swap_columns(m, r, s):
    col = list(m.col)
    col[r], col[s] = col[s], col[r]
    return MonoMat(m.n, tuple(col), m.phase)


@pytest.mark.parametrize("name, plant", [
    ("E6", {0b1011: lambda m: _flip_phase(m, 0)}),
    ("E6", {5: lambda m: _swap_columns(m, 2, 6)}),
    ("E6", {3: lambda m: _flip_phase(m, 7), 40: lambda m: _swap_columns(m, 0, 1)}),
    ("E7", {0b1100101: lambda m: _swap_columns(m, 1, 4)}),
    ("D4", {0: lambda m: _flip_phase(m, 1)}),
])
def test_table_check_names_the_pair_by_pair_failures_in_order(reps, name, plant):
    _, coc, rep = reps[name]
    mats = list(rep.mats)
    for v, change in plant.items():
        mats[v] = change(mats[v])
    planted = HeisRep(coc, rep.dim_w, tuple(mats))
    report = heisrep._check_table(planted)
    expected = reference_table_failures(planted)
    assert expected and report.failures == expected
    assert report.pairs_checked == 4 * len(mats) ** 2


def test_a_cover_of_more_than_64_rows_is_refused_at_once(monkeypatch):
    # A14 mod 2 is nondegenerate of dimension 14: g = 7, 128 rows, and rows
    # 4 * 128 wide do not pack into bytes
    def no_work(*args):
        raise AssertionError("build_heisrep assembled a matrix")

    monkeypatch.setattr(heisrep, "_pauli", no_work)
    coc = lattice.mod2_space(lattice.root_datum("A14"))
    with pytest.raises(RepError, match=r"dimension 2\^7"):
        build_heisrep(coc)


def test_flipped_phase_fails_verification_and_names_the_pair(reps):
    datum, _, rep = reps["E6"]
    bad = 0b1011
    m = rep.mats[bad]
    mats = list(rep.mats)
    mats[bad] = MonoMat(m.n, m.col, ((m.phase[0] + 1) & 3,) + m.phase[1:])
    rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
    report = verify_rep(with_mats(rep, mats), root_classes=rc)
    assert not report.ok
    assert report.pairs_checked == 16384
    # the character argument has the table as its premise: no commutant
    assert report.commutant_dim is None
    # M_1 M_(bad ^ 1) is untouched but must equal +-M_bad: all four signs fail
    for su in (1, -1):
        for sv in (1, -1):
            assert ((su, 1), (sv, bad ^ 1)) in report.failures
    assert all(bad in (u, v, u ^ v) for (_, u), (_, v) in report.failures)


@pytest.mark.parametrize("name, rad_dim", [
    ("A3", 1), ("A7", 1), ("D4", 2), ("D5", 1), ("D6", 2), ("E7", 1),
    ("E6", 0), ("E8", 0)])
def test_decomposition_radical_is_the_pairing_kernel(name, rad_dim):
    # build_heisrep takes its radical from the symplectic decomposition; it
    # must span the kernel of the gram rows, found here by elimination
    space = lattice.mod2_space(lattice.root_datum(name))
    _, radical = symplectic_decomposition(space)
    kernel = f2_kernel(space.gram, space.dim)
    assert len(radical) == len(kernel) == rad_dim
    assert f2_rank(radical, space.dim) == rad_dim
    assert f2_rank(radical + kernel, space.dim) == rad_dim


def _invariant_group_forms(rep, generators, n):
    """Solve M^T B M = B for all generator matrices M, exactly."""
    rows = []
    for m in generators:
        vals = [v for _, _, v in dense_entries(m)]
        colinv = [0] * n
        for r, c in enumerate(m.col):
            colinv[c] = r
        for a in range(n):
            for b in range(n):
                # (M^T B M)[a][b] = val[ka] val[kb] B[ka][kb], ka = colinv[a]
                ka, kb = colinv[a], colinv[b]
                row = {}
                key = ka * n + kb
                row[key] = vals[ka] * vals[kb]
                other = a * n + b
                row[other] = row.get(other, ZERO) - ONE
                row = {k: v for k, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return sparse_nullspace(rows, n * n)


def test_group_invariant_form_for_e6_is_symplectic(e6_stack):
    datum, rep = e6_stack.datum, e6_stack.rep
    gens = [rep.mats[datum.root_class_bits(i)] for i in datum.simple]
    sols = _invariant_group_forms(rep, gens, rep.dim_w)
    assert len(sols) == 1
    n = rep.dim_w
    b = [[ZERO] * n for _ in range(n)]
    for key, val in sols[0].items():
        b[key // n][key % n] = val
    # antisymmetric and nondegenerate
    for i in range(n):
        for j in range(n):
            assert b[i][j] == -b[j][i]
    det, _ = field_eliminate(b, ONE)
    assert not det.is_zero()
    # the same line of forms certifies the fixed subalgebra downstream
    anti, = invariant_form_space(e6_stack.rmap.mats, sym=-1)
    form = form_from_solution(anti, n, sym=-1)
    ratios = set()
    for i in range(n):
        for j in range(n):
            if form[i][j].is_zero() != b[i][j].is_zero():
                ratios.add(None)
            elif not b[i][j].is_zero():
                ratio = form[i][j] / b[i][j]
                ratios.add((ratio.re, ratio.im))
    assert len(ratios) == 1 and None not in ratios


def _generic_commutant_dimension(rep):
    """B M = M B for the generator images, one Gaussian-rational row per
    matrix entry."""
    n = rep.dim_w
    rows = []
    for j in range(rep.cocycle.dim):
        dense = {(r, c): v for r, c, v in dense_entries(rep.mats[1 << j])}
        for r in range(n):
            for c in range(n):
                terms = []
                for k in range(n):
                    if (k, c) in dense:
                        terms.append((r * n + k, dense[k, c]))
                    if (r, k) in dense:
                        terms.append((k * n + c, -dense[r, k]))
                row = {}
                for key, v in terms:
                    row[key] = row.get(key, ZERO) + v
                row = {key: v for key, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return len(sparse_nullspace(rows, n * n))


def _inverse(m):
    """The inverse of a unit monomial, its conjugate transpose."""
    t = m.transpose()
    return MonoMat(t.n, t.col, tuple(-p & 3 for p in t.phase))


def _doubled(rep):
    """rho + rho: each matrix twice, block diagonally, on twice the space."""
    n = rep.dim_w
    return with_mats(rep, [MonoMat(2 * n, m.col + tuple(c + n for c in m.col),
                                   m.phase + m.phase) for m in rep.mats], 2 * n)


@pytest.mark.parametrize("change, dim", [
    (lambda rep: rep, 1),
    # rho conjugated by the image g of a generator: g M_v g^-1 = +-M_v, an
    # equivalent representation with other signs
    (lambda rep: with_mats(rep, [rep.mats[1] * m * _inverse(rep.mats[1])
                                 for m in rep.mats]), 1),
    (lambda rep: with_mats(rep, [rep.mats[8] * m * _inverse(rep.mats[8])
                                 for m in rep.mats]), 1),
    # a valid reducible representation: the commutant is 2 x 2 matrices
    (_doubled, 4),
], ids=["unchanged", "gen-0", "gen-3", "doubled"])
def test_commutant_matches_generic_rows(e6_stack, change, dim):
    changed = change(e6_stack.rep)
    assert not changed.report.failures and changed.report.rho_minus_one_is_minus_id
    assert commutant_dimension(changed) == _generic_commutant_dimension(changed) == dim
    assert solver_commutant_dimension(changed) == dim


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A7", "D4", "D5", "D6", "D8",
                                  "E6", "E7", "E8"])
def test_character_norm_matches_the_phase_solver(name):
    rep = build_heisrep(lattice.mod2_space(lattice.root_datum(name)))
    assert commutant_dimension(rep) == solver_commutant_dimension(rep) == 1


def test_character_norm_that_does_not_divide_raises(e6_stack, monkeypatch):
    # one diagonal entry of M_1 made 1: |tr M_1|^2 = 1 leaves 65 / 64
    monkeypatch.setattr(heisrep, "character",
                        lambda rep: [(8, 0), (1, 0)] + [(0, 0)] * 62)
    with pytest.raises(RepError, match="character norm 65 / 64 is not an integer"):
        commutant_dimension(e6_stack.rep)


def test_json_dump_shape(reps):
    _, _, rep = reps["A2"]
    d = rep.to_json_dict()
    assert d["dim_w"] == 2
    # the matrices render themselves as JSON text, here at no indentation
    mats = json.loads(d["mats"](""))
    assert len(mats) == 4
    assert mats == [[[r, c, str(v.re), str(v.im)] for r, c, v in dense_entries(m)]
                    for m in rep.mats]
