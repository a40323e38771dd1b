from fractions import Fraction

from hypothesis import given, settings, strategies as st
from conftest import ONE, ZERO, field_eliminate, gq, rational_inverse

from rootcover.intmat import _bareiss, bareiss_det


def _square(entries, max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _cofactor_det(m, zero, one):
    """Laplace expansion along the first row."""
    if not m:
        return one
    total = zero
    for j, x in enumerate(m[0]):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = x * _cofactor_det(minor, zero, one)
        total = total - term if j % 2 else total + term
    return total


@settings(max_examples=300, deadline=None)
@given(_square(st.integers(-3, 3), 6))
def test_rational_elimination_matches_bareiss(m):
    det, _ = field_eliminate([[Fraction(x) for x in row] for row in m], Fraction(1))
    assert det == bareiss_det(m)
    if det:
        inv = rational_inverse(m)
        n = len(m)
        assert all(sum(m[i][k] * inv[k][j] for k in range(n)) == (i == j)
                   for i in range(n) for j in range(n))


@settings(max_examples=200, deadline=None)
@given(_square(st.builds(gq, st.integers(-2, 2), st.integers(-2, 2)), 4))
def test_gaussian_elimination_matches_cofactor_expansion(m):
    det, _ = field_eliminate(m, ONE)
    assert det == _cofactor_det(m, ZERO, ONE)


def test_singular_block_gives_zero_determinant():
    det, _ = field_eliminate([[gq(1), gq(0, 1)], [gq(0, 1), gq(-1)]], ONE)
    assert not det
    assert field_eliminate([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]],
                           Fraction(1))[0] == 0


@settings(max_examples=300, deadline=None)
@given(_square(st.integers(-3, 3), 6), st.lists(st.booleans(), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_split_isolated_indices_matches_unsplit_bareiss(m, isolate, diag):
    # plant isolated indices: row and column zero off the diagonal; the
    # planted diagonal entries include 0
    m = [list(row) for row in m]
    n = len(m)
    for i in range(n):
        if isolate[i]:
            for j in range(n):
                m[i][j] = m[j][i] = 0
            m[i][i] = diag[i]
    assert bareiss_det(m) == _bareiss([list(row) for row in m])


def test_isolated_indices_multiply_out():
    # a zero isolated diagonal entry makes the determinant zero whatever the rest
    assert bareiss_det([[2, 1, 0], [1, 3, 0], [0, 0, 0]]) == 0
    assert bareiss_det([[0, 0, 0], [0, 2, 1], [0, 1, 3]]) == 0
    assert bareiss_det([[5, 0, 0], [0, 2, 1], [0, 1, 3]]) == 25
    # the shape of the E8 fixed-subalgebra Killing matrix
    assert bareiss_det([[-56 if i == j else 0 for j in range(120)]
                        for i in range(120)]) == (-56) ** 120


def _block(entries):
    # a square block of size 1-4, made singular on request: a zero 1-block,
    # or a larger one whose last row repeats its first
    def build(k, rows, singular):
        if singular:
            rows = rows[:-1] + [rows[0]] if k > 1 else [[0]]
        return rows
    return st.integers(1, 4).flatmap(lambda k: st.builds(
        build, st.just(k),
        st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k),
        st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.lists(_block(st.integers(-3, 3)), min_size=1, max_size=5), st.randoms())
def test_permuted_block_diagonal_matches_unsplit_bareiss(blocks, rnd):
    # the blocks on the diagonal, then one random permutation applied to the
    # rows and the same to the columns
    n = sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[start + i][start:start + len(row)] = row
        start += len(b)
    perm = list(range(n))
    rnd.shuffle(perm)
    m = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    det = bareiss_det(m)
    assert det == _bareiss([list(row) for row in m])
    product = 1
    for b in blocks:
        product *= _bareiss([list(row) for row in b])
    assert det == product
