from fractions import Fraction

import pytest
from conftest import (I, ONE, ZERO, ReferenceEchelon, dense_entries, dense_mul,
                      dense_neg, gq, gq_trace, gq_vectors, phase_nullspace, phase_rows,
                      sparse_nullspace)
from hypothesis import example, given, settings, strategies as st

from rootcover.gaussian import NEGATE, UNITS, MonoMat, add_terms, sparse_rank

# i**k for k = 0..3, built from the Gaussian-rational field operations
POWERS_OF_I = (ONE, I, I * I, I * I * I)


def _dense(m):
    """Dense Gaussian-rational matrix of m, read off its raw fields."""
    rows = []
    for r in range(m.n):
        row = [ZERO] * m.n
        row[m.col[r]] = POWERS_OF_I[m.phase[r]]
        rows.append(tuple(row))
    return tuple(rows)


def from_values(n, col, vals):
    """The matrix with entry vals[r] at (r, col[r]).

    Every value must be 1, i, -1 or -i.
    """
    if any(v not in POWERS_OF_I for v in vals):
        raise ValueError("an entry is not 1, i, -1 or -i")
    return MonoMat(n, tuple(col), tuple(POWERS_OF_I.index(v) for v in vals))


@st.composite
def monomats(draw, n):
    col = tuple(draw(st.permutations(range(n))))
    phase = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return MonoMat(n, col, phase)


@st.composite
def monomat_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(monomats(n)), draw(monomats(n))


@settings(max_examples=300, deadline=None)
@given(monomat_pairs(), st.integers(0, 3))
def test_phase_kernel_matches_dense_gaussian_arithmetic(pair, k):
    a, b = pair
    n = a.n
    da, db = _dense(a), _dense(b)
    assert _dense(a * b) == dense_mul(da, db)
    assert _dense(-a) == dense_neg(da)
    assert _dense(a.transpose()) == tuple(zip(*da))
    # i**k times the identity
    s, scalar = POWERS_OF_I[k], MonoMat(n, tuple(range(n)), (k,) * n)
    assert _dense(scalar * a) == tuple(tuple(s * x for x in row) for row in da)
    assert gq_trace(a) == sum((da[i][i] for i in range(n)), ZERO)
    assert list(dense_entries(a)) == [(r, c, da[r][c])
                                      for r in range(n) for c in range(n)
                                      if not da[r][c].is_zero()]
    is_scalar = all(da[r][c] == (da[0][0] if r == c else ZERO)
                    for r in range(n) for c in range(n))
    assert a.scalar_value() == (POWERS_OF_I.index(da[0][0]) if is_scalar else None)
    assert scalar.scalar_value() == k
    # the packed-row product and negation used by the exhaustive checks
    packed = a.code().translate(b.right_table())
    decoded = MonoMat(n, tuple(x >> 2 for x in packed), tuple(x & 3 for x in packed))
    assert _dense(decoded) == dense_mul(da, db)
    assert a.code().translate(NEGATE) == (-a).code()
    assert from_values(n, a.col, [da[r][a.col[r]] for r in range(n)]) == a


def test_rows_pack_into_bytes_up_to_64_rows():
    # 4 * 64 packed values fill the 256-byte table exactly
    big = MonoMat(64, tuple(range(63, -1, -1)), (3,) * 64)
    assert big.right_table() == bytes(4 * (63 - c) + ((p + 3) & 3)
                                      for c in range(64) for p in range(4))
    assert (big * big).code() == big.code().translate(big.right_table())
    with pytest.raises(ValueError, match="65 rows"):
        MonoMat.identity(65).code()


def test_unit_pairs_are_the_powers_of_i():
    # the integer pairs that build renders a phase from
    assert [gq(re, im) for re, im in UNITS] == list(POWERS_OF_I)


def test_construction_rejects_entries_outside_mu4_scale():
    with pytest.raises(ValueError):
        from_values(2, (0, 1), (ONE, gq(1, 1)))      # 1 + i
    with pytest.raises(ValueError):
        from_values(2, (0, 1), (ONE, gq(2)))         # not a unit
    with pytest.raises(ValueError):
        from_values(2, (1, 0), (gq(0, -3), gq(3)))   # a common scale 3
    with pytest.raises(ValueError):
        from_values(2, (1, 0), (ZERO, ZERO))
    with pytest.raises(ValueError):
        MonoMat(2, (0, 1), (0, 4))
    with pytest.raises(ValueError):
        MonoMat(2, (0, 0), (0, 0))
    assert from_values(2, (1, 0), (gq(0, -1), ONE)) == MonoMat(2, (1, 0), (3, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2))),
       st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2), st.integers(-2, 2))))
def test_add_terms_keeps_exactly_the_nonzero_sums(int_terms, gq_terms):
    sums = {}
    for k, v in int_terms:
        sums[k] = sums.get(k, 0) + v
    assert add_terms({}, int_terms) == {k: v for k, v in sums.items() if v}
    gsums = {}
    for k, re, im in gq_terms:
        gsums[k] = gsums.get(k, ZERO) + gq(re, im)
    got = add_terms({}, [(k, gq(re, im)) for k, re, im in gq_terms])
    assert got == {k: v for k, v in gsums.items() if not v.is_zero()}


@st.composite
def phase_systems(draw):
    """(ncols, equations): each equation has at most two terms (u, p), with
    unknowns drawn from few columns so that repeated unknowns are common and
    phases given as any integers (taken mod 4)."""
    ncols = draw(st.integers(1, 6))
    term = st.tuples(st.integers(0, ncols - 1), st.integers(-4, 7))
    return ncols, draw(st.lists(st.lists(term, max_size=2), max_size=14))


def _satisfies(vec, equations):
    """Every equation holds exactly at the vector x = vec (absent entries 0)."""
    return all(add_terms({}, [(0, POWERS_OF_I[p % 4] * vec.get(u, ZERO))
                              for u, p in eq]) == {} for eq in equations)


@settings(max_examples=400, deadline=None)
@given(phase_systems())
@example((2, [[(0, 1), (0, 3)], [(1, 0), (0, 2)]]))     # cancelling repeat
@example((2, [[(1, 0), (1, 1)], [(0, 2), (1, 2)]]))     # repeat forcing x_1 = 0
@example((3, [[], [(2, 5)], [(0, 0), (2, 1)], [(2, 3), (0, 2)]]))
# a cycle x_1 = x_0, x_2 = x_1, x_0 = i x_2 whose labels do not sum to 0
@example((4, [[(0, 2), (1, 0)], [(1, 2), (2, 0)], [(2, 3), (0, 0)]]))
# a consistent cycle, then the same unknowns closed inconsistently
@example((3, [[(0, 0), (1, 2)], [(1, 1), (2, 3)], [(2, 0), (0, 2)],
              [(0, 1), (2, 1)]]))
# self-loops: i x_0 - i x_0 holds for every x_0, x_1 + i x_1 = 0 forces x_1 = 0
@example((3, [[(0, 1), (0, 3)], [(1, 0), (1, 1)], [(2, 0), (1, 0)]]))
# one-term equations, one of them on a component joined later
@example((5, [[(3, 1)], [(0, 0), (1, 1)], [(1, 0), (3, 2)], [(4, 6)]]))
@example((3, [[], [], []]))                              # empty equations only
def test_phase_rows_have_the_solutions_of_the_gaussian_rows(system):
    ncols, equations = system
    rows = [add_terms({}, [(u, POWERS_OF_I[p % 4]) for u, p in eq])
            for eq in equations]
    expected = sparse_nullspace([r for r in rows if r], ncols)
    assert sparse_nullspace(phase_rows(equations), ncols) == expected
    got = gq_vectors(phase_nullspace(equations, ncols))
    assert len(got) == len(expected)
    assert all(_satisfies(vec, equations) for vec in got)
    # the same basis as back-substitution: each component scaled to 1 at its
    # largest unknown, so the spans agree
    assert got == expected
    assert gq_vectors(phase_nullspace(iter(equations), ncols)) == got


def test_phase_rows_keep_each_distinct_row_once():
    # i x_0 + x_1, x_1 + i x_0 and -x_1 - i x_0 are one row, x_0 + i x_1 another;
    # 2 x_2 and (1 + i) x_2 are both x_2 = 0; x_3 - x_3 is no row
    equations = [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 2), (0, 3)],
                 [(0, 0), (1, 1)], [(2, 1), (2, 1)], [(2, 0), (2, 1)],
                 [(2, 6)], [(3, 0), (3, 2)], []]
    rows = phase_rows(equations)
    assert rows == [{0: ONE, 1: -I}, {0: ONE, 1: I}, {2: ONE}]
    assert sparse_nullspace(rows, 4) == [{3: ONE}]
    # x_1 = i x_0 and x_1 = -i x_0 close a cycle with labels 1 and 3
    assert phase_nullspace(equations, 4) == [{3: 0}]


def test_reduced_rows_are_zero_at_every_other_pivot_column():
    # three rows over four columns: pivots 0, 1, 2 and the free column 3
    ech = ReferenceEchelon()
    for row in ({0: ONE, 1: ONE, 2: ONE, 3: ONE}, {1: ONE, 2: ONE, 3: gq(2)},
                {2: ONE, 3: gq(3)}):
        assert ech.insert(row)
    reduced = ech.reduced()
    for lead, row in reduced.items():
        assert row[lead] == ONE
        assert not set(row) & (set(reduced) - {lead})
    assert reduced == {0: {0: ONE, 3: gq(-1)}, 1: {1: ONE, 3: gq(-1)},
                       2: {2: ONE, 3: gq(3)}}
    assert ech.nullspace(4) == [{3: ONE, 2: gq(-3), 1: ONE, 0: ONE}]


def test_sparse_rank_over_the_rationals():
    rows = [{0: Fraction(2), 1: Fraction(1, 3)}, {0: Fraction(-6), 1: Fraction(-1)},
            {1: Fraction(5), 2: Fraction(1, 7)}, {2: Fraction(3)}]
    assert sparse_rank(rows) == 3
    assert sparse_rank(rows[:2]) == 1
    assert sparse_rank([{}, {4: Fraction(1, 2)}]) == 1


def test_phase_rows_reject_longer_equations():
    with pytest.raises(ValueError):
        phase_rows([[(0, 0), (1, 0), (2, 0)]])
    # the kernel raises on a three-term equation after valid ones too
    with pytest.raises(ValueError, match="at most two terms"):
        phase_nullspace([[(0, 0), (1, 2)], [(0, 0), (1, 0), (2, 0)]], 3)
