import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from rootcover import quartic
from rootcover.quartic import (MONOMIALS, QuarticCurve, QuarticError,
                               family_member, smoothness_probe,
                               tangent_contact_order)


def _terms(curve):
    return {m: c for m, c in zip(MONOMIALS, curve.coeffs) if c}


def test_zero_parameter_families():
    c6 = family_member("e6", (0,) * 6)
    assert _terms(c6) == {(0, 3, 1): F(1), (4, 0, 0): F(-1)}
    c6b = family_member("e6", (0, 0, 0, 0, 0, F(1)))
    assert _terms(c6b) == {(0, 3, 1): F(1), (4, 0, 0): F(-1), (0, 0, 4): F(-1)}
    c7 = family_member("e7", (0,) * 7)
    assert _terms(c7) == {(0, 3, 1): F(1), (3, 1, 0): F(-1)}


def test_family_coefficient_placement():
    # p2, p10, p8, p14, p6, p12, p18
    c7 = family_member("e7", (F(2), F(3), F(5), F(7), F(11), F(13), F(17)))
    t = _terms(c7)
    assert t[(2, 0, 2)] == -3 and t[(1, 2, 1)] == -2 and t[(1, 1, 2)] == -5
    assert t[(1, 0, 3)] == -7 and t[(0, 2, 2)] == -11 and t[(0, 1, 3)] == -13
    assert t[(0, 0, 4)] == -17
    # p2, p5, p8, p6, p9, p12
    c6 = family_member("e6", (F(2), F(3), F(5), F(7), F(11), F(13)))
    t = _terms(c6)
    assert t[(2, 1, 1)] == -2 and t[(1, 1, 2)] == -3 and t[(0, 1, 3)] == -5
    assert t[(2, 0, 2)] == -7 and t[(1, 0, 3)] == -11 and t[(0, 0, 4)] == -13


def test_marked_contact_orders():
    rng = random.Random(17)
    for _ in range(10):
        p6 = [F(rng.randint(-9, 9)) for _ in range(6)]
        assert tangent_contact_order(family_member("e6", p6)) == 4
        p7 = [F(rng.randint(-9, 9)) for _ in range(7)]
        assert tangent_contact_order(family_member("e7", p7)) == 3


def test_line_inside_curve_gives_infinite_order():
    # Z * (Y^3 + X Z^2) contains the line Z = 0
    curve = QuarticCurve.from_dict({(0, 3, 1): F(1), (1, 0, 3): F(1)})
    assert tangent_contact_order(curve) is None


@pytest.mark.parametrize("terms, order", [
    ({(0, 4, 0): 1, (1, 3, 0): 2, (0, 0, 4): 1}, 0),    # misses (0:1:0)
    ({(1, 3, 0): -3, (2, 2, 0): 1, (0, 2, 2): 5}, 1),
    ({(2, 2, 0): F(1, 2), (4, 0, 0): 7, (1, 3, 0): 0, (0, 3, 1): 1}, 2),
    ({(3, 1, 0): 2, (1, 2, 1): 4, (0, 1, 3): -1}, 3),
    ({(4, 0, 0): -1, (3, 0, 1): 9, (0, 3, 1): 1, (2, 2, 0): 0}, 4),
    ({(2, 1, 1): 1, (0, 0, 4): 3, (1, 3, 0): 0}, None),  # contains Z = 0
], ids=["0", "1", "2", "3", "4", "line"])
def test_contact_order_agrees_with_sympy(terms, order):
    # curves outside both families; the order at (0:1:0) along Z = 0 is the
    # multiplicity of x = 0 as a root of F(x, 1, 0)
    curve = QuarticCurve.from_dict({m: F(c) for m, c in terms.items()})
    x = sympy.symbols("x")
    restricted = sympy.Poly(_sympy_poly(curve).subs({X: x, Y: 1, Z: 0}), x)
    expected = (None if restricted.is_zero
                else sympy.roots(restricted, x, multiple=True).count(0))
    assert tangent_contact_order(curve) == expected == order


def test_singular_cusp_is_detected_with_witness():
    verdict = smoothness_probe(family_member("e6", (0,) * 6), [5, 7, 11])
    assert verdict.kind == "SINGULAR"
    assert verdict.witness == (0, 0, 1)


def test_smooth_quartics_are_certified():
    verdict = smoothness_probe(family_member("e6", (0, 0, 0, 0, 0, F(1))),
                               [5, 7, 11])
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
    curve = family_member("e6", (0, 0, 0, 0, 0, F(1, 3)))
    with pytest.raises(QuarticError):
        smoothness_probe(curve, [3])


def test_probe_verdicts_stable_across_prime_lists():
    curve = family_member("e6", (F(1), 0, 0, 0, 0, F(2)))
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
        curve = family_member("e6", [F(rng.randint(-3, 3)) for _ in range(6)])
        verdict = smoothness_probe(curve, [5, 7, 11])
        if verdict.kind == "SMOOTH":
            passing += 1
            assert tangent_contact_order(curve) == 4
    assert passing == 8


def test_zero_curve_rejected():
    with pytest.raises(QuarticError):
        QuarticCurve(tuple(F(0) for _ in range(15)))


def _scan_inputs(curve):
    """The integer coefficients and partials of a curve with content 1."""
    denom = math.lcm(*(c.denominator for c in curve.coeffs))
    int_parts = [[(m, int(v * denom)) for m, v in d.items()]
                 for d in curve.partials()]
    return [int(c * denom) for c in curve.coeffs], int_parts


def test_point_scan_order_and_memory():
    # X^2 Y^2 + Y^2 Z^2 + Z^2 X^2 has nodes at (1:0:0), (0:1:0) and (0:0:1),
    # one in each part of the scan
    curve = QuarticCurve.from_dict({(2, 2, 0): F(1), (0, 2, 2): F(1),
                                    (2, 0, 2): F(1)})
    ints, int_parts = _scan_inputs(curve)

    def value(terms, pt):
        return sum(c * pt[0] ** i * pt[1] ** j * pt[2] ** k for (i, j, k), c in terms)
    for p in (5, 7, 11):
        points = [(x, y, 1) for x in range(p) for y in range(p)]
        points += [(x, 1, 0) for x in range(p)] + [(1, 0, 0)]
        expected = [pt for pt in points
                    if value(zip(MONOMIALS, ints), pt) % p == 0
                    and all(value(terms, pt) % p == 0 for terms in int_parts)]
        assert {(0, 0, 1), (0, 1, 0), (1, 0, 0)} <= set(expected)
        assert quartic._singular_points_mod_p(ints, int_parts, p) == expected
    # the scan does not hold the p^2 + p + 1 = 44,733 points of P^2(F_211)
    # (a list of them peaked at about 3 MB)
    smooth = family_member("e6", (0, 0, 0, 0, 0, F(1)))
    ints, int_parts = _scan_inputs(smooth)
    tracemalloc.start()
    try:
        assert quartic._singular_points_mod_p(ints, int_parts, 211) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# -- exact smoothness: Macaulay rank and rational witnesses ------------------

X, Y, Z = sympy.symbols("X Y Z")


def _sympy_poly(curve):
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** i * Y ** j * Z ** k
               for (i, j, k), c in zip(MONOMIALS, curve.coeffs) if c)


def _sympy_singular(curve):
    """F and its partials have a common zero in one of the charts Z = 1,
    Y = 1, X = 1, i.e. that chart's reduced Groebner basis is not {1}."""
    poly = _sympy_poly(curve)
    system = [poly] + [sympy.diff(poly, v) for v in (X, Y, Z)]
    for fixed, free in ((Z, (X, Y)), (Y, (X, Z)), (X, (Y, Z))):
        chart = [sympy.expand(g.subs(fixed, 1)) for g in system]
        if list(sympy.groebner(chart, *free, order="grevlex").exprs) != [1]:
            return True
    return False


def _is_singular_point(curve, point):
    """F and its three partials vanish at the integer point."""
    x, y, z = point
    values = [0, 0, 0, 0]
    for (i, j, k), c in zip(MONOMIALS, curve.coeffs):
        values[0] += c * x ** i * y ** j * z ** k
        if i:
            values[1] += c * i * x ** (i - 1) * y ** j * z ** k
        if j:
            values[2] += c * j * x ** i * y ** (j - 1) * z ** k
        if k:
            values[3] += c * k * x ** i * y ** j * z ** (k - 1)
    return any(point) and values == [0, 0, 0, 0]


def _random_rational(rng):
    if rng.random() < 0.5:
        return F(0)
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 8, 9)))


def test_random_members_agree_with_groebner_oracle():
    rng = random.Random(2016)
    kinds = set()
    for _ in range(40):
        if rng.random() < 0.5:
            curve = family_member("e6", [_random_rational(rng) for _ in range(6)])
        else:
            curve = family_member("e7", [_random_rational(rng) for _ in range(7)])
        verdict = smoothness_probe(curve, [5, 7, 11])
        kinds.add(verdict.kind)
        assert (verdict.kind, verdict.exact) in (
            ("SMOOTH", "smooth"), ("SINGULAR", "witness"), ("INCONCLUSIVE", "singular"))
        assert (verdict.kind != "SMOOTH") == _sympy_singular(curve)
        if verdict.kind == "SINGULAR":
            assert _is_singular_point(curve, verdict.witness)
    assert {"SMOOTH", "SINGULAR"} <= kinds


@st.composite
def planted_singular_points(draw):
    """(curve, point): G(adj(M) v) for G with no monomial of Z-degree >= 3,
    which is singular at (0:0:1), and M an integer matrix with third column
    the point; det M is prime to the probe primes 5, 7, 11."""
    g = {m: draw(st.integers(-4, 4)) for m in MONOMIALS if m[2] < 3}
    assume(math.gcd(*g.values()) == 1)
    m = sympy.Matrix(3, 3, draw(st.lists(st.integers(-3, 3), min_size=9, max_size=9)))
    assume(math.gcd(int(m.det()), 5 * 7 * 11) == 1)
    lin = m.adjugate() * sympy.Matrix([X, Y, Z])
    poly = sympy.Poly(sum(c * lin[0] ** i * lin[1] ** j * lin[2] ** k
                          for (i, j, k), c in g.items()), X, Y, Z)
    curve = QuarticCurve.from_dict({mono: F(int(c)) for mono, c in poly.terms()})
    return curve, tuple(int(c) for c in m.col(2))


@settings(max_examples=30, deadline=None)
@given(planted_singular_points())
def test_planted_rational_singular_point_gives_a_witness(case):
    curve, point = case
    assert _is_singular_point(curve, point)
    verdict = smoothness_probe(curve, [5, 7, 11])
    assert (verdict.kind, verdict.exact) == ("SINGULAR", "witness")
    assert _is_singular_point(curve, verdict.witness)


@pytest.mark.parametrize("params, witness", [
    ((0, 0, F(-5, 3), 0, 0, F(7, 8), 0), (-3, 0, 2)),
    ((4, 0, 0, 0, F(-9, 4), F(1, 8), 0), (-1, 0, 2)),
])
def test_witness_with_denominator_comes_from_crt(params, witness):
    # no centered lift mod 5, 7 or 11 is singular; CRT mod 385 recovers x = w0/2
    verdict = smoothness_probe(family_member("e7", params), [5, 7, 11])
    assert (verdict.kind, verdict.exact, verdict.witness) == ("SINGULAR", "witness", witness)
    lifts = [pt for p, found in verdict.mod_p_singular.items()
             for pt in quartic._centered_lifts(found, p)]
    assert witness not in lifts


def test_witness_missed_by_every_full_prime_choice_comes_from_a_subset():
    # Y^3 Z + X^2 Z^2 - Y^2 Z^2 + X^4 pulled back by X -> 5X - Z is singular
    # at (1 : 0 : 5); mod 5 that point is (1 : 0 : 0), outside the Z = 1 chart,
    # where mod 5 lists other points, so only the choices mod 7 * 11 find it
    curve = QuarticCurve.from_dict({
        (4, 0, 0): F(625), (3, 0, 1): F(-500), (2, 0, 2): F(175),
        (1, 0, 3): F(-30), (0, 3, 1): F(1), (0, 2, 2): F(-1), (0, 0, 4): F(2)})
    verdict = smoothness_probe(curve, [5, 7, 11])
    assert (verdict.kind, verdict.exact, verdict.witness) == ("SINGULAR", "witness", (1, 0, 5))
    assert (1, 0, 0) in verdict.mod_p_singular[5]
    assert any(pt[2] == 1 for pt in verdict.mod_p_singular[5])


@pytest.mark.parametrize("content", [F(5), F(35, 3)], ids=["5", "35/3"])
def test_content_is_divided_out_before_the_scan(content):
    # 5 (X^4 + Y^4 + Z^4) is zero mod 5 until its content is divided out
    fermat = {(4, 0, 0): F(1), (0, 4, 0): F(1), (0, 0, 4): F(1)}
    scaled = QuarticCurve.from_dict({m: content * c for m, c in fermat.items()})
    verdict = smoothness_probe(scaled, [5, 7, 11])
    assert (verdict.kind, verdict.mod_p_singular) == ("SMOOTH", {})
    unscaled = smoothness_probe(QuarticCurve.from_dict(fermat), [5, 7, 11])
    assert vars(verdict) == vars(unscaled)


def test_singular_without_rational_witness_is_inconclusive_not_smooth():
    # once labelled PROBABLY_SMOOTH: the Macaulay rank proves it singular
    curve = family_member("e7", (0, 0, F(1, 3), 0, 0, F(3, 2), 0))
    assert _sympy_singular(curve)
    verdict = smoothness_probe(curve, [5, 7, 11])
    assert (verdict.kind, verdict.exact, verdict.witness) == ("INCONCLUSIVE", "singular", None)


def test_crt_search_stops_at_the_cap(monkeypatch):
    # (X^2 + Y^2 + Z^2)^2 is singular along a conic without rational points:
    # 54 * 60 * 62 * 68 (about 13.7M) combinations, far above the cap
    double_conic = QuarticCurve.from_dict({(4, 0, 0): F(1), (0, 4, 0): F(1),
                                           (0, 0, 4): F(1), (2, 2, 0): F(2),
                                           (2, 0, 2): F(2), (0, 2, 2): F(2)})
    # the centered lifts of the 54 + 60 + 62 + 68 points, then the capped CRT
    # combinations; counted lazily, so that an uncapped search fails fast
    bound = 244 + quartic.MAX_CRT_COMBINATIONS
    tried = [0]
    real = quartic._exact_witness

    def counting(int_parts, candidates):
        def counted():
            for n, pt in enumerate(candidates, 1):
                assert n <= bound, "the CRT search ran past the cap"
                tried[0] = n
                yield pt
        return real(int_parts, counted())
    monkeypatch.setattr(quartic, "_exact_witness", counting)
    t0 = time.perf_counter()
    verdict = smoothness_probe(double_conic, [53, 59, 61, 67])
    assert time.perf_counter() - t0 < 2.0
    assert (verdict.kind, verdict.exact) == ("INCONCLUSIVE", "singular")
    counts = [len(pts) for pts in verdict.mod_p_singular.values()]
    assert counts == [54, 60, 62, 68]
    assert math.prod(counts) > quartic.MAX_CRT_COMBINATIONS
    assert tried == [bound]


@given(st.integers(-13, 13), st.integers(1, 13))
def test_rational_reconstruction_inverts_reduction(a, b):
    m = 5 * 7 * 11  # isqrt(m // 2) = 13
    assume(math.gcd(b, m) == 1)
    assert quartic._rational_reconstruction(a * pow(b, -1, m) % m, m) == F(a, b)
