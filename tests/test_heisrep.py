import pytest
from conftest import f2_kernel, with_mats

from rootcover import heisrep, lattice
from rootcover.f2 import f2_rank, symplectic_decomposition
from rootcover.gaussian import (I, MINUS_ONE, ONE, ZERO, MonoMat, gq,
                                sparse_nullspace)
from rootcover.heisrep import (HeisRep, arf_normal_pairs, build_heisrep,
                               commutant_dimension, verify_rep)


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
        pairs, radical = arf_normal_pairs(coc)
        twist = [p for p in pairs if coc.q(p[0]) or coc.q(p[1])]
        assert len(twist) <= 1
        if twist:
            assert pairs[-1] == twist[0]
            assert coc.q(twist[0][0]) == coc.q(twist[0][1]) == 1


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
    scalar = rep.rho_bits(r).scalar_value()
    # q = 1 on the radical forces an order-4 scalar, consistent with the
    # order-4 center of the cover
    assert coc.q(r) == 1
    assert scalar in (I, -I)
    assert scalar * scalar == MINUS_ONE


def test_root_lift_order_four(reps):
    datum, _, rep = reps["E6"]
    minus_id = -MonoMat.identity(rep.dim_w)
    for i in range(len(datum.roots)):
        m = rep.rho_bits(datum.root_class_bits(i))
        assert m * m == minus_id
        assert (m * m) * (m * m) == MonoMat.identity(rep.dim_w)


def test_traces(reps):
    for name in ("E6", "E7"):
        _, coc, rep = reps[name]
        rad_span = {0}
        for r in f2_kernel(coc.gram, coc.dim):
            rad_span |= {x ^ r for x in rad_span}
        for v in range(1 << coc.dim):
            t = rep.rho_bits(v).trace()
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
    report = verify_rep(HeisRep(coc, n, conjugated), root_classes=rc)
    assert report.ok


def test_verify_rep_reuses_the_build_time_table(reps):
    for name, expected_pairs in (("E6", 16384), ("E7", 65536)):
        datum, _, rep = reps[name]
        assert not rep.report.failures and rep.report.rho_minus_one_is_minus_id
        assert rep.report.pairs_checked == expected_pairs
        assert rep.report.commutant_dim is None
        # a commutant not computed is no pass
        assert not rep.report.ok
        # a copy carries no report, so verify_rep checks the table afresh
        fresh = with_mats(rep, rep.mats)
        assert fresh.report is None
        rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
        reused = verify_rep(rep, root_classes=rc)
        assert vars(reused) == vars(verify_rep(fresh, root_classes=rc))
        assert reused.commutant_dim == 1
        assert rep.report.commutant_dim is None


def test_table_check_computes_one_product_per_pair(reps, monkeypatch):
    # each product M_u M_v looks up one right-table entry per row
    lookups = [0]

    class Counted(tuple):
        def __getitem__(self, key):
            lookups[0] += 1
            return tuple.__getitem__(self, key)

    real = MonoMat.right_table
    monkeypatch.setattr(MonoMat, "right_table", lambda m: Counted(real(m)))
    _, coc, rep = reps["E6"]
    report = heisrep._check_table(rep)
    size = 1 << coc.dim
    assert not report.failures and report.rho_minus_one_is_minus_id
    assert report.pairs_checked == 4 * size * size
    assert lookups[0] == size * size * rep.dim_w


def test_flipped_phase_fails_verification_and_names_the_pair(reps):
    datum, _, rep = reps["E6"]
    bad = 0b1011
    m = rep.mats[bad]
    mats = list(rep.mats)
    mats[bad] = MonoMat(m.n, m.col, ((m.phase[0] + 1) & 3,) + m.phase[1:], m.scale)
    rc = sorted({datum.root_class_bits(i) for i in range(len(datum.roots))})
    report = verify_rep(with_mats(rep, mats), root_classes=rc)
    assert not report.ok
    assert report.pairs_checked == 16384
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
        vals = [v for _, _, v in m.entries()]
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
    gens = [rep.rho_bits(datum.root_class_bits(i)) for i in datum.simple]
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
    from rootcover.intmat import field_eliminate
    det, _ = field_eliminate(b, ONE)
    assert not det.is_zero()
    # the same line of forms certifies the fixed subalgebra downstream
    from rootcover.liealg import form_from_solution, invariant_form_space
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
    matrix entry, scales included."""
    n = rep.dim_w
    rows = []
    for j in range(rep.cocycle.dim):
        dense = {(r, c): v for r, c, v in rep.mats[1 << j].entries()}
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


def _flip_row_0(m):
    return MonoMat(m.n, m.col, ((m.phase[0] + 1) & 3,) + m.phase[1:], m.scale)


@pytest.mark.parametrize("change, dim", [
    (lambda j, m: m, 1),
    (lambda j, m: _flip_row_0(m) if j == 0 else m, 1),
    (lambda j, m: _flip_row_0(m) if j == 3 else m, 1),
    # every equation of an identity generator cancels
    (lambda j, m: MonoMat.identity(m.n), 64),
], ids=["unchanged", "gen-0", "gen-3", "identity"])
def test_commutant_matches_generic_rows(e6_stack, change, dim):
    rep = e6_stack.rep
    mats = list(rep.mats)
    for j in range(rep.cocycle.dim):
        mats[1 << j] = change(j, mats[1 << j])
    changed = with_mats(rep, mats)
    assert commutant_dimension(changed) == _generic_commutant_dimension(changed) == dim


def test_json_dump_shape(reps):
    _, _, rep = reps["A2"]
    d = rep.to_json_dict()
    assert d["dim_w"] == 2
    assert len(d["mats"]) == 4
