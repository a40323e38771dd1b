import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rootcover import quartic
from rootcover.quartic import (E6Params, E7Params, MONOMIALS, QuarticCurve,
                               QuarticError, e6_family, e7_family,
                               smoothness_probe, tangent_contact_order)


def _terms(curve):
    return {m: c for m, c in zip(MONOMIALS, curve.coeffs) if c}


def test_zero_parameter_families():
    c6 = e6_family(E6Params())
    assert _terms(c6) == {(0, 3, 1): F(1), (4, 0, 0): F(-1)}
    c6b = e6_family(E6Params(p12=F(1)))
    assert _terms(c6b) == {(0, 3, 1): F(1), (4, 0, 0): F(-1), (0, 0, 4): F(-1)}
    c7 = e7_family(E7Params())
    assert _terms(c7) == {(0, 3, 1): F(1), (3, 1, 0): F(-1)}


def test_family_coefficient_placement():
    c7 = e7_family(E7Params(p2=F(2), p10=F(3), p8=F(5), p14=F(7), p6=F(11),
                            p12=F(13), p18=F(17)))
    t = _terms(c7)
    assert t[(2, 0, 2)] == -3 and t[(1, 2, 1)] == -2 and t[(1, 1, 2)] == -5
    assert t[(1, 0, 3)] == -7 and t[(0, 2, 2)] == -11 and t[(0, 1, 3)] == -13
    assert t[(0, 0, 4)] == -17
    c6 = e6_family(E6Params(p2=F(2), p5=F(3), p8=F(5), p6=F(7), p9=F(11),
                            p12=F(13)))
    t = _terms(c6)
    assert t[(2, 1, 1)] == -2 and t[(1, 1, 2)] == -3 and t[(0, 1, 3)] == -5
    assert t[(2, 0, 2)] == -7 and t[(1, 0, 3)] == -11 and t[(0, 0, 4)] == -13


def test_marked_contact_orders():
    rng = random.Random(17)
    for _ in range(10):
        p6 = E6Params(*[F(rng.randint(-9, 9)) for _ in range(6)])
        assert tangent_contact_order(e6_family(p6), (0, 1, 0), (0, 0, 1)) == 4
        p7 = E7Params(*[F(rng.randint(-9, 9)) for _ in range(7)])
        assert tangent_contact_order(e7_family(p7), (0, 1, 0), (0, 0, 1)) == 3


def test_second_intersection_point_is_transverse():
    c7 = e7_family(E7Params())
    assert tangent_contact_order(c7, (1, 0, 0), (0, 0, 1)) == 1


def test_line_inside_curve_gives_infinite_order():
    # X * (cubic) contains the line X = 0
    curve = QuarticCurve.from_dict({(4, 0, 0): F(1), (1, 3, 0): F(1)})
    assert tangent_contact_order(curve, (0, 0, 1), (1, 0, 0)) == math.inf


def test_contact_order_validates_incidence():
    c6 = e6_family(E6Params())
    with pytest.raises(QuarticError):
        tangent_contact_order(c6, (1, 1, 1), (0, 0, 1))  # point off the line
    with pytest.raises(QuarticError):
        tangent_contact_order(c6, (1, 0, 0), (0, 1, 0))  # on line, off curve


def test_singular_cusp_is_detected_with_witness():
    verdict = smoothness_probe(e6_family(E6Params()), [5, 7, 11])
    assert verdict.kind == "SINGULAR"
    assert verdict.witness == (0, 0, 1)


def test_smooth_quartics_are_certified():
    verdict = smoothness_probe(e6_family(E6Params(p12=F(1))), [5, 7, 11])
    assert verdict.kind == "SMOOTH"
    assert verdict.exact == "smooth"
    assert not verdict.mod_p_singular

    fermat = QuarticCurve.from_dict({(4, 0, 0): F(1), (0, 4, 0): F(1),
                                     (0, 0, 4): F(1)})
    for p in (3, 5, 7, 11, 13):
        verdict = smoothness_probe(fermat, [p])
        assert verdict.kind == "SMOOTH"
        assert not verdict.mod_p_singular


def test_probe_rejects_bad_primes():
    curve = e6_family(E6Params(p12=F(1, 3)))
    with pytest.raises(QuarticError):
        smoothness_probe(curve, [3])


def test_probe_verdicts_stable_across_prime_lists():
    curve = e6_family(E6Params(p2=F(1), p12=F(2)))
    kinds = {smoothness_probe(curve, ps).kind
             for ps in ([5], [7, 11], [5, 7, 11, 13])}
    assert len(kinds) == 1


def test_singular_with_rational_node_found_exactly():
    # nodal quartic: X^2 Z^2 - Y^2 Z^2 + X^4 has singular points on Z = 0 and
    # a node at (0:0:1)
    curve = QuarticCurve.from_dict({(2, 0, 2): F(1), (0, 2, 2): F(-1),
                                    (4, 0, 0): F(1)})
    verdict = smoothness_probe(curve, [5, 7])
    assert verdict.kind == "SINGULAR"
    assert verdict.witness is not None


def test_random_smooth_members(seeded=23):
    rng = random.Random(seeded)
    passing = 0
    attempts = 0
    while passing < 8 and attempts < 60:
        attempts += 1
        p = E6Params(*[F(rng.randint(-3, 3)) for _ in range(6)])
        curve = e6_family(p)
        verdict = smoothness_probe(curve, [5, 7, 11])
        if verdict.kind in ("SMOOTH", "PROBABLY_SMOOTH"):
            passing += 1
            assert tangent_contact_order(curve, (0, 1, 0), (0, 0, 1)) == 4
    assert passing == 8


def test_zero_curve_rejected():
    with pytest.raises(QuarticError):
        QuarticCurve(tuple(F(0) for _ in range(15)))


@st.composite
def interpolation_cases(draw):
    """(coefficients, nodes): a polynomial of degree < n and n distinct
    integer nodes."""
    n = draw(st.integers(1, 19))
    coeffs = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                           min_size=n, max_size=n))
    nodes = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    return coeffs, nodes


@settings(max_examples=100, deadline=None)
@given(interpolation_cases())
def test_interpolation_returns_the_polynomial(case):
    coeffs, nodes = case
    xs = [F(x) for x in nodes]
    ys = [sum(c * x ** d for d, c in enumerate(coeffs)) for x in xs]
    expected = list(coeffs)
    while expected and expected[-1] == 0:
        expected.pop()
    assert quartic._interpolate(xs, ys) == tuple(expected)


def _scan_inputs(curve):
    denom = math.lcm(*(c.denominator for c in curve.coeffs))
    return [int(c * denom) for c in curve.coeffs], curve.partials(), denom


def test_point_scan_order_and_memory():
    # X^2 Y^2 + Y^2 Z^2 + Z^2 X^2 has nodes at (1:0:0), (0:1:0) and (0:0:1),
    # one in each part of the scan
    curve = QuarticCurve.from_dict({(2, 2, 0): F(1), (0, 2, 2): F(1),
                                    (2, 0, 2): F(1)})
    ints, parts, denom = _scan_inputs(curve)
    for p in (5, 7, 11):
        points = [(x, y, 1) for x in range(p) for y in range(p)]
        points += [(x, 1, 0) for x in range(p)] + [(1, 0, 0)]
        expected = [pt for pt in points
                    if curve.evaluate(*pt) % p == 0
                    and all(sum(c * pt[0] ** i * pt[1] ** j * pt[2] ** k
                                for (i, j, k), c in d.items()) % p == 0
                            for d in parts)]
        assert {(0, 0, 1), (0, 1, 0), (1, 0, 0)} <= set(expected)
        assert quartic._singular_points_mod_p(ints, parts, p, denom) == expected
    # the scan does not hold the p^2 + p + 1 = 44,733 points of P^2(F_211)
    # (a list of them peaked at about 3 MB)
    smooth = e6_family(E6Params(p12=F(1)))
    ints, parts, denom = _scan_inputs(smooth)
    tracemalloc.start()
    try:
        assert quartic._singular_points_mod_p(ints, parts, 211, denom) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
