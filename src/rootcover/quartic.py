"""Plane quartic normal forms, contact orders, and a smoothness probe.

Curves are homogeneous quartics in (X, Y, Z) with exact rational
coefficients.  The two marked families place the distinguished point at
(0:1:0) with tangent line Z = 0, where the restriction is -X^3 Y (contact 3)
or -X^4 (contact 4).

The smoothness probe brute-forces singular points over small prime fields
and attempts an exact certificate over Q by resultant elimination of the
partial-derivative system in each affine chart; verdicts never overstate
what was proved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intmat import field_eliminate

Point = Tuple[Fraction, Fraction, Fraction]


class QuarticError(ValueError):
    pass


MONOMIALS: Tuple[Tuple[int, int, int], ...] = tuple(
    sorted((i, j, 4 - i - j) for i in range(5) for j in range(5 - i)))


@dataclass(frozen=True)
class QuarticCurve:
    """15 coefficients indexed by the exponents in MONOMIALS."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 15:
            raise QuarticError("a quartic has 15 coefficients")
        if all(c == 0 for c in self.coeffs):
            raise QuarticError("the zero polynomial is not a curve")

    @classmethod
    def from_dict(cls, terms: Dict[Tuple[int, int, int], Fraction]) -> "QuarticCurve":
        lookup = {m: i for i, m in enumerate(MONOMIALS)}
        coeffs = [Fraction(0)] * 15
        for mono, c in terms.items():
            if mono not in lookup:
                raise QuarticError(f"not a degree-4 monomial: {mono}")
            coeffs[lookup[mono]] += Fraction(c)
        return cls(tuple(coeffs))

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        return self.coeffs[MONOMIALS.index((i, j, k))]

    def evaluate(self, x: Fraction, y: Fraction, z: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j, k), c in zip(MONOMIALS, self.coeffs):
            if c:
                total += c * x ** i * y ** j * z ** k
        return total

    def partials(self) -> Tuple[Dict[Tuple[int, int, int], Fraction], ...]:
        """The three cubics dF/dX, dF/dY, dF/dZ as exponent dicts."""
        out: List[Dict[Tuple[int, int, int], Fraction]] = [{}, {}, {}]
        for (i, j, k), c in zip(MONOMIALS, self.coeffs):
            if not c:
                continue
            if i:
                out[0][(i - 1, j, k)] = out[0].get((i - 1, j, k), Fraction(0)) + c * i
            if j:
                out[1][(i, j - 1, k)] = out[1].get((i, j - 1, k), Fraction(0)) + c * j
            if k:
                out[2][(i, j, k - 1)] = out[2].get((i, j, k - 1), Fraction(0)) + c * k
        return tuple({m: v for m, v in d.items() if v} for d in out)

    def to_json_dict(self) -> dict:
        return {"monomials": [list(m) for m in MONOMIALS],
                "coeffs": [str(c) for c in self.coeffs]}


@dataclass(frozen=True)
class E7Params:
    p2: Fraction = Fraction(0)
    p10: Fraction = Fraction(0)
    p8: Fraction = Fraction(0)
    p14: Fraction = Fraction(0)
    p6: Fraction = Fraction(0)
    p12: Fraction = Fraction(0)
    p18: Fraction = Fraction(0)


@dataclass(frozen=True)
class E6Params:
    p2: Fraction = Fraction(0)
    p5: Fraction = Fraction(0)
    p8: Fraction = Fraction(0)
    p6: Fraction = Fraction(0)
    p9: Fraction = Fraction(0)
    p12: Fraction = Fraction(0)


def e7_family(p: E7Params) -> QuarticCurve:
    """Y^3 Z = X^3 Y + p10 X^2 Z^2 + X(p2 Y^2 Z + p8 Y Z^2 + p14 Z^3)
    + p6 Y^2 Z^2 + p12 Y Z^3 + p18 Z^4, as the vanishing of the difference."""
    return QuarticCurve.from_dict({
        (0, 3, 1): Fraction(1),
        (3, 1, 0): -Fraction(1),
        (2, 0, 2): -Fraction(p.p10),
        (1, 2, 1): -Fraction(p.p2),
        (1, 1, 2): -Fraction(p.p8),
        (1, 0, 3): -Fraction(p.p14),
        (0, 2, 2): -Fraction(p.p6),
        (0, 1, 3): -Fraction(p.p12),
        (0, 0, 4): -Fraction(p.p18),
    })


def e6_family(p: E6Params) -> QuarticCurve:
    """Y^3 Z = X^4 + Y(p2 X^2 Z + p5 X Z^2 + p8 Z^3) + p6 X^2 Z^2
    + p9 X Z^3 + p12 Z^4, as the vanishing of the difference."""
    return QuarticCurve.from_dict({
        (0, 3, 1): Fraction(1),
        (4, 0, 0): -Fraction(1),
        (2, 1, 1): -Fraction(p.p2),
        (1, 1, 2): -Fraction(p.p5),
        (0, 1, 3): -Fraction(p.p8),
        (2, 0, 2): -Fraction(p.p6),
        (1, 0, 3): -Fraction(p.p9),
        (0, 0, 4): -Fraction(p.p12),
    })


MARKED_POINT: Point = (Fraction(0), Fraction(1), Fraction(0))
MARKED_TANGENT: Tuple[Fraction, Fraction, Fraction] = (Fraction(0), Fraction(0), Fraction(1))


def tangent_contact_order(curve: QuarticCurve, point: Sequence,
                          line: Sequence) -> float:
    """Vanishing order at ``point`` of the curve restricted to ``line``.

    ``line`` is a coefficient triple (the locus aX + bY + cZ = 0).  Returns
    an integer <= 4, or infinity when the line lies on the curve.
    """
    pt = tuple(Fraction(x) for x in point)
    ln = tuple(Fraction(x) for x in line)
    if all(x == 0 for x in pt) or all(x == 0 for x in ln):
        raise QuarticError("degenerate point or line")
    if sum(a * x for a, x in zip(ln, pt)) != 0:
        raise QuarticError("point does not lie on the line")
    if curve.evaluate(*pt) != 0:
        raise QuarticError("point does not lie on the curve")
    other = _second_point_on_line(ln, pt)
    # parameterize as s*other + t*pt; the point sits at (s, t) = (0, 1)
    coeffs = [Fraction(0)] * 5  # coefficient of s^k t^(4-k)
    for (i, j, k), c in zip(MONOMIALS, curve.coeffs):
        if not c:
            continue
        poly = [Fraction(1)]
        for exp, idx in ((i, 0), (j, 1), (k, 2)):
            for _ in range(exp):
                poly = _mul_linear(poly, other[idx], pt[idx])
        for deg, val in enumerate(poly):
            coeffs[deg] += c * val
    for k in range(5):
        if coeffs[k] != 0:
            return k
    return math.inf


def _mul_linear(poly: List[Fraction], a: Fraction, b: Fraction) -> List[Fraction]:
    """Multiply a polynomial in s (coefficient list) by (a s + b t), tracking
    only the s-degree; the t-degree is forced by homogeneity."""
    out = [Fraction(0)] * (len(poly) + 1)
    for d, c in enumerate(poly):
        out[d + 1] += c * a
        out[d] += c * b
    return out


def _second_point_on_line(line: Point, pt: Point) -> Point:
    a, b, c = line
    if c != 0:
        candidates = [(Fraction(1), Fraction(0), -a / c),
                      (Fraction(0), Fraction(1), -b / c)]
    elif b != 0:
        candidates = [(Fraction(1), -a / b, Fraction(0)),
                      (Fraction(0), Fraction(0), Fraction(1))]
    else:
        candidates = [(Fraction(0), Fraction(1), Fraction(0)),
                      (Fraction(0), Fraction(0), Fraction(1))]
    for cand in candidates:
        if not _proportional(cand, pt):
            return cand
    raise QuarticError("could not find a second point on the line")


def _proportional(u: Point, v: Point) -> bool:
    return (u[0] * v[1] == u[1] * v[0] and u[0] * v[2] == u[2] * v[0]
            and u[1] * v[2] == u[2] * v[1])


# ---------------------------------------------------------------------------
# Smoothness probing


@dataclass
class Verdict:
    kind: str                     # SINGULAR | SMOOTH | PROBABLY_SMOOTH | INCONCLUSIVE
    witness: Optional[Tuple[int, int, int]] = None
    primes: Tuple[int, ...] = ()
    mod_p_singular: Dict[int, List[Tuple[int, int, int]]] = field(default_factory=dict)
    exact: str = "skipped"        # smooth | inconclusive | skipped

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": list(self.witness) if self.witness else None,
            "primes": list(self.primes),
            "mod_p_singular": {str(p): [list(w) for w in ws]
                               for p, ws in self.mod_p_singular.items()},
            "exact": self.exact,
        }


# the probe at p scans all p^2 + p + 1 points of P^2(F_p); at p = 997 that
# took 2 s on a 2-core x86 VM
MAX_PROBE_PRIME = 1000


def smoothness_probe(curve: QuarticCurve, primes: Sequence[int]) -> Verdict:
    """Probe for singular points mod p and attempt an exact certificate.

    SINGULAR carries an exact rational witness.  SMOOTH means the resultant
    elimination certified the absence of singular points over the algebraic
    closure.  PROBABLY_SMOOTH means no prime showed a singular point but the
    exact route was inconclusive.  Probe primes above MAX_PROBE_PRIME are
    rejected before any work.
    """
    denom_lcm = 1
    for c in curve.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    for p in primes:
        if p > MAX_PROBE_PRIME:
            raise QuarticError(f"probe prime {p} is above the limit {MAX_PROBE_PRIME}")
        if not _is_prime(p):
            raise QuarticError(f"probe modulus {p} is not a prime")
        if denom_lcm % p == 0:
            raise QuarticError(f"prime {p} divides the coefficient denominators")
    int_coeffs = [int(c * denom_lcm) for c in curve.coeffs]
    verdict = Verdict(kind="INCONCLUSIVE", primes=tuple(primes))

    parts = curve.partials()
    candidates: List[Tuple[int, int, int]] = []
    for p in primes:
        found = _singular_points_mod_p(int_coeffs, parts, p, denom_lcm)
        if found:
            verdict.mod_p_singular[p] = found
            candidates.extend(_centered_lifts(found, p))

    witness = _exact_witness(curve, parts, candidates)
    exact_state, exact_witness = _exact_elimination(curve, parts)
    if witness is None:
        witness = exact_witness
    if witness is not None:
        verdict.kind = "SINGULAR"
        verdict.witness = witness
        verdict.exact = "witness"
        return verdict
    verdict.exact = exact_state
    if exact_state == "smooth":
        verdict.kind = "SMOOTH"
    elif not verdict.mod_p_singular and primes:
        verdict.kind = "PROBABLY_SMOOTH"
    return verdict


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _poly_eval_mod(terms: Iterable[Tuple[Tuple[int, int, int], int]],
                   x: int, y: int, z: int, p: int) -> int:
    total = 0
    for (i, j, k), c in terms:
        total += c * pow(x, i, p) * pow(y, j, p) * pow(z, k, p)
    return total % p


def _singular_points_mod_p(int_coeffs: List[int], parts, p: int,
                           denom: int) -> List[Tuple[int, int, int]]:
    f_terms = [(m, c % p) for m, c in zip(MONOMIALS, int_coeffs) if c % p]
    part_terms = []
    for d in parts:
        scaled = [(m, int(v * denom) % p) for m, v in d.items() if int(v * denom) % p]
        part_terms.append(scaled)
    found = []
    # the points of P^2(F_p), generated in this order rather than listed
    reps = itertools.chain(((x, y, 1) for x in range(p) for y in range(p)),
                           ((x, 1, 0) for x in range(p)), [(1, 0, 0)])
    for (x, y, z) in reps:
        if _poly_eval_mod(f_terms, x, y, z, p):
            continue
        if all(_poly_eval_mod(t, x, y, z, p) == 0 for t in part_terms):
            found.append((x, y, z))
    return found


def _centered_lifts(points: Sequence[Tuple[int, int, int]], p: int) -> List[Tuple[int, int, int]]:
    def center(x: int) -> int:
        return x - p if x > p // 2 else x
    return [tuple(center(c) for c in pt) for pt in points]


def _exact_witness(curve: QuarticCurve, parts,
                   candidates: Sequence[Tuple[int, int, int]]) -> Optional[Tuple[int, int, int]]:
    for pt in candidates:
        if all(c == 0 for c in pt):
            continue
        fp = tuple(Fraction(c) for c in pt)
        if curve.evaluate(*fp) != 0:
            continue
        if all(_eval_terms(d, fp) == 0 for d in parts):
            return tuple(int(c) for c in pt)
    return None


def _eval_terms(terms: Dict[Tuple[int, int, int], Fraction], pt) -> Fraction:
    total = Fraction(0)
    for (i, j, k), c in terms.items():
        total += c * pt[0] ** i * pt[1] ** j * pt[2] ** k
    return total


# -- exact elimination ------------------------------------------------------

Poly1 = Tuple[Fraction, ...]  # univariate, low degree first


def _p1_trim(p: Sequence[Fraction]) -> Poly1:
    lst = list(p)
    while lst and lst[-1] == 0:
        lst.pop()
    return tuple(lst)


def _p1_mul(a: Poly1, b: Poly1) -> Poly1:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _p1_trim(out)


def _p1_eval(a: Poly1, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(a):
        total = total * x + c
    return total


def _p1_gcd(a: Poly1, b: Poly1) -> Poly1:
    a, b = _p1_trim(a), _p1_trim(b)
    while b:
        a, b = b, _p1_mod(a, b)
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _p1_mod(a: Poly1, b: Poly1) -> Poly1:
    a = list(a)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return _p1_trim(a)


def _rational_roots(poly: Poly1) -> List[Fraction]:
    poly = _p1_trim(poly)
    if not poly:
        return []
    roots = []
    low = next(i for i, c in enumerate(poly) if c != 0)
    if low > 0:
        roots.append(Fraction(0))
        poly = poly[low:]
    scale = 1
    for c in poly:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in poly]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    if content:
        ints = [c // content for c in ints]
    a0, an = ints[0], ints[-1]
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _p1_eval(poly, cand) == 0:
                    roots.append(cand)
    return roots


def _divisors(n: int) -> List[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += [d, n // d]
        d += 1
    return sorted(set(out))


class _BiPoly:
    """Polynomial in (main, aux) as a coefficient list indexed by the aux degree;
    each coefficient is a univariate polynomial in the main variable."""

    def __init__(self, coeffs: List[Poly1]):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def aux_degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_main(self, x: Fraction) -> Poly1:
        return _p1_trim([_p1_eval(c, x) for c in self.coeffs])


def _chart_system(parts, chart: int) -> List[_BiPoly]:
    """Dehomogenize the partial-derivative cubics in one of the three charts.

    chart 0: Z = 1 with (main, aux) = (x, y); chart 1: Y = 1 with (x, z);
    chart 2: X = 1 with (y, z).
    """
    systems = []
    for d in parts:
        bucket: Dict[int, Dict[int, Fraction]] = {}
        for (i, j, k), c in d.items():
            if chart == 0:
                main, aux = i, j
            elif chart == 1:
                main, aux = i, k
            else:
                main, aux = j, k
            bucket.setdefault(aux, {})
            bucket[aux][main] = bucket[aux].get(main, Fraction(0)) + c
        if bucket:
            max_aux = max(bucket)
            coeffs = []
            for a in range(max_aux + 1):
                row = bucket.get(a, {})
                deg = max(row) if row else -1
                coeffs.append(_p1_trim([row.get(t, Fraction(0))
                                        for t in range(deg + 1)]))
            systems.append(_BiPoly(coeffs))
        else:
            systems.append(_BiPoly([]))
    return systems


def _sylvester_resultant(f: _BiPoly, g: _BiPoly) -> Poly1:
    """Resultant in the aux variable, as a polynomial in the main variable.

    Computed from the Sylvester matrix with polynomial entries by evaluation
    at enough points followed by interpolation.
    """
    m, n = f.aux_degree, g.aux_degree
    if f.is_zero() or g.is_zero():
        return ()
    if m == 0 and n == 0:
        # no aux variable at all; no constraint from this pair
        return (Fraction(1),)
    if m == 0:
        out = (Fraction(1),)
        for _ in range(n):
            out = _p1_mul(out, f.coeffs[0])
        return out
    if n == 0:
        out = (Fraction(1),)
        for _ in range(m):
            out = _p1_mul(out, g.coeffs[0])
        return out
    size = m + n
    max_f = max((len(c) - 1 for c in f.coeffs if c), default=0)
    max_g = max((len(c) - 1 for c in g.coeffs if c), default=0)
    bound = n * max_f + m * max_g
    xs = [Fraction(t) for t in range(bound + 1)]
    values = []
    for x in xs:
        rows = []
        fv = [_p1_eval(c, x) for c in f.coeffs]
        gv = [_p1_eval(c, x) for c in g.coeffs]
        for shift in range(n):
            row = [Fraction(0)] * size
            for i, c in enumerate(reversed(fv)):
                row[shift + i] = c
            rows.append(row)
        for shift in range(m):
            row = [Fraction(0)] * size
            for i, c in enumerate(reversed(gv)):
                row[shift + i] = c
            rows.append(row)
        values.append(field_eliminate(rows, Fraction(1))[0])
    return _interpolate(xs, values)


def _interpolate(xs: List[Fraction], ys: List[Fraction]) -> Poly1:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]).

    Newton divided differences, then Horner expansion of the Newton form:
    O(n^2) exact operations.
    """
    coef = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # p = coef[n-1]; p = p * (x - xs[k]) + coef[k] for k = n-2 .. 0
    poly: List[Fraction] = [coef[-1]] if n else []
    for k in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        for d, c in enumerate(poly):
            shifted[d] -= xs[k] * c
        shifted[0] += coef[k]
        poly = shifted
    return _p1_trim(poly)


def _exact_elimination(curve: QuarticCurve, parts) -> Tuple[str, Optional[Tuple[int, int, int]]]:
    """Try to certify smoothness chart by chart; returns (state, witness).

    A chart is cleared when the gcd of the pairwise aux-resultants of the
    dehomogenized partials is a nonzero constant, which rules out any common
    zero there over the algebraic closure.  Rational common zeros found
    during root extraction are returned as exact singular witnesses.
    """
    for chart in range(3):
        gs = _chart_system(parts, chart)
        live = [g for g in gs if not g.is_zero()]
        if len(live) < len(gs):
            return "inconclusive", None
        constraints: List[Poly1] = []
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                res = _sylvester_resultant(live[a], live[b])
                constraints.append(res)
        gcd: Poly1 = ()
        for c in constraints:
            gcd = _p1_gcd(gcd, c) if gcd else _p1_trim(c)
        if not gcd:
            return "inconclusive", None
        if len(gcd) == 1:
            continue
        for x0 in _rational_roots(gcd):
            y_gcd: Poly1 = ()
            for g in live:
                specialized = g.eval_main(x0)
                y_gcd = _p1_gcd(y_gcd, specialized) if y_gcd else _p1_trim(specialized)
            if not y_gcd:
                witness = _assemble_witness(chart, x0, None, curve, parts)
                if witness:
                    return "witness", witness
                continue
            for y0 in _rational_roots(y_gcd):
                witness = _assemble_witness(chart, x0, y0, curve, parts)
                if witness:
                    return "witness", witness
        return "inconclusive", None
    return "smooth", None


def _assemble_witness(chart: int, main: Fraction, aux: Optional[Fraction],
                      curve: QuarticCurve, parts) -> Optional[Tuple[int, int, int]]:
    aux_vals = [aux] if aux is not None else [Fraction(0), Fraction(1), Fraction(-1)]
    for a in aux_vals:
        if chart == 0:
            pt = (main, a, Fraction(1))
        elif chart == 1:
            pt = (main, Fraction(1), a)
        else:
            pt = (Fraction(1), main, a)
        if curve.evaluate(*pt) == 0 and all(_eval_terms(d, pt) == 0 for d in parts):
            scale = 1
            for c in pt:
                scale = scale * c.denominator // math.gcd(scale, c.denominator)
            return tuple(int(c * scale) for c in pt)
    return None
