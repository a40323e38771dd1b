from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rootcover.gaussian import ONE, ZERO, gq
from rootcover.intmat import bareiss_det, field_eliminate, rational_inverse


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
