"""Plane quartic normal forms, contact orders, and a smoothness probe.

Curves are homogeneous quartics in (X, Y, Z) with exact rational
coefficients.  The two marked families, one row each of FAMILIES, place the
distinguished point at (0:1:0) with tangent line Z = 0, where the
restriction is -X^3 Y (contact 3) or -X^4 (contact 4).

The smoothness probe decides smoothness over the algebraic closure with one
exact rank of the 45 x 36 Macaulay matrix of the partial derivatives.  For a
singular curve it looks for an exact rational singular point among the
lifts of the singular points mod small primes; verdicts never overstate what
was proved.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gaussian import sparse_rank


class QuarticError(ValueError):
    pass


MONOMIALS: Tuple[Tuple[int, int, int], ...] = tuple(
    sorted((i, j, 4 - i - j) for i in range(5) for j in range(5 - i)))


class QuarticCurve:
    """15 coefficients indexed by the exponents in MONOMIALS."""

    def __init__(self, coeffs: Tuple[Fraction, ...]):
        self.coeffs = coeffs
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


# family -> (fixed terms, the (name, monomial) of each parameter in --params
# order, the expected contact order); a parameter p adds -p * its monomial:
# e6: Y^3 Z = X^4 + Y(p2 X^2 Z + p5 X Z^2 + p8 Z^3) + p6 X^2 Z^2 + p9 X Z^3 + p12 Z^4
# e7: Y^3 Z = X^3 Y + p10 X^2 Z^2 + X(p2 Y^2 Z + p8 Y Z^2 + p14 Z^3)
#     + p6 Y^2 Z^2 + p12 Y Z^3 + p18 Z^4
FAMILIES = {
    "e6": ({(0, 3, 1): 1, (4, 0, 0): -1},
           (("p2", (2, 1, 1)), ("p5", (1, 1, 2)), ("p8", (0, 1, 3)),
            ("p6", (2, 0, 2)), ("p9", (1, 0, 3)), ("p12", (0, 0, 4))), 4),
    "e7": ({(0, 3, 1): 1, (3, 1, 0): -1},
           (("p2", (1, 2, 1)), ("p10", (2, 0, 2)), ("p8", (1, 1, 2)),
            ("p14", (1, 0, 3)), ("p6", (0, 2, 2)), ("p12", (0, 1, 3)),
            ("p18", (0, 0, 4))), 3),
}


def family_member(family: str, params: Sequence[Fraction]) -> QuarticCurve:
    """The member of a marked family with the given parameters."""
    fixed, slots, _ = FAMILIES[family]
    if len(params) != len(slots):
        names = ",".join(name for name, _ in slots)
        raise QuarticError(f"{family} takes {len(slots)} parameters: {names}")
    terms = dict(fixed)
    for (_, mono), p in zip(slots, params):
        terms[mono] = -Fraction(p)
    return QuarticCurve.from_dict(terms)


def tangent_contact_order(curve: QuarticCurve) -> Optional[int]:
    """Order of contact of the curve with Z = 0 at the marked point (0:1:0).

    On Z = 0, F(X, Y, 0) is the sum of c_k X^k Y^(4-k), so the order is the
    least k with c_k != 0 (0 when the curve misses the point); None when the
    line lies on the curve.
    """
    return min((i for (i, _, k), c in zip(MONOMIALS, curve.coeffs)
                if k == 0 and c), default=None)


# ---------------------------------------------------------------------------
# Smoothness probing


class Verdict:
    def __init__(self, kind: str, exact: str,
                 witness: Optional[Tuple[int, int, int]],
                 primes: Tuple[int, ...],
                 mod_p_singular: Dict[int, List[Tuple[int, int, int]]]):
        self.kind = kind  # SMOOTH | SINGULAR | INCONCLUSIVE
        self.exact = exact  # smooth | witness | singular
        self.witness = witness
        self.primes = primes
        self.mod_p_singular = mod_p_singular

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

# upper bound on the sum of p^2 over the probe primes, the size of the whole
# point scan: --probe 997 (994,009) took 2.0 to 2.6 s, the 44 primes 5..199
# (565,052) 1.5 s and the 60 primes 5..293 (1,598,412) 2.6 s, each a whole
# quartic e6 or e7 call on a 2-core x86 VM
MAX_PROBE_SQUARES = 1_000_000

# CRT combinations of mod-p singular points tried for a rational witness.  A
# quartic that is nonzero mod p has at most 2p + 1 singular points there (two
# double lines), at most p of them in the chart (x, 1, 0), so with the default
# primes 5, 7, 11 the search is never cut: 11 * 15 * 23 + 5 * 7 * 11 = 4,180
# combinations of all three primes and 1,002 of pairs and single primes.  The
# double conic (X^2 + Y^2 + Z^2)^2 at primes 53, 59, 61, 67, which tries all
# 6,000, took 0.09 to 0.16 s on a 2-core x86 VM.
MAX_CRT_COMBINATIONS = 6000

# the 36 monomials of degree 7, the columns of the Macaulay matrix, in
# ascending Z-degree: on the marked family members that order eliminated
# 1.7 times faster than lex order
SEPTICS: Tuple[Tuple[int, int, int], ...] = tuple(
    sorted(((i, j, 7 - i - j) for i in range(8) for j in range(8 - i)),
           key=lambda m: (m[2], m[0], m[1])))
_SEPTIC_INDEX = {m: t for t, m in enumerate(SEPTICS)}


def smoothness_probe(curve: QuarticCurve, primes: Sequence[int]) -> Verdict:
    """Decide smoothness exactly; look for a rational singular point mod p.

    By Euler's relation F is singular exactly when dF/dX, dF/dY, dF/dZ have a
    common zero over the algebraic closure, and three ternary cubics have
    none exactly when the 45 septics m * dF/dX_i (m a quartic monomial) span
    all 36 septics (Macaulay; Cox-Little-O'Shea, Using Algebraic Geometry,
    ch. 3 sec. 4): with no common zero they form a regular sequence, whose
    quotient has Hilbert series (1 + t + t^2)^3 and so is zero in degree 7,
    while a common zero P gives a functional, evaluation at P, that kills
    the span.  So one exact rank decides: rank 36 is SMOOTH.

    Below rank 36 the curve is singular, and a rational witness is sought
    among the centered lifts of the singular points mod each probe prime,
    then among CRT combinations of them, rationally reconstructed (at most
    MAX_CRT_COMBINATIONS).  Every candidate is re-checked exactly.  SINGULAR
    carries the witness; without one the verdict is INCONCLUSIVE with exact
    "singular".  Probe primes above MAX_PROBE_PRIME, repeated ones, and lists
    whose squares sum above MAX_PROBE_SQUARES are rejected before any work.
    """
    if len(set(primes)) != len(primes):
        raise QuarticError(f"probe primes {list(primes)} repeat a prime")
    denom_lcm = math.lcm(*(c.denominator for c in curve.coeffs))
    for p in primes:
        if p > MAX_PROBE_PRIME:
            raise QuarticError(f"probe prime {p} is above the limit {MAX_PROBE_PRIME}")
        if not _is_prime(p):
            raise QuarticError(f"probe modulus {p} is not a prime")
        if denom_lcm % p == 0:
            raise QuarticError(f"prime {p} divides the coefficient denominators")
    squares = sum(p * p for p in primes)
    if squares > MAX_PROBE_SQUARES:
        raise QuarticError(f"probe primes have a sum of squares {squares} above "
                           f"the limit {MAX_PROBE_SQUARES}")
    # the primitive integer multiple of F: with its content left in, a prime
    # dividing the content would list every point of P^2(F_p) as singular
    content = math.gcd(*(int(c * denom_lcm) for c in curve.coeffs))
    scale = Fraction(denom_lcm, content)
    int_coeffs = [int(c * scale) for c in curve.coeffs]
    parts = curve.partials()
    int_parts = [[(m, int(v * scale)) for m, v in d.items()] for d in parts]
    mod_p_singular = {}
    for p in primes:
        found = _singular_points_mod_p(int_coeffs, int_parts, p)
        if found:
            mod_p_singular[p] = found

    witness = None
    if sparse_rank(_macaulay_rows(parts)) == len(SEPTICS):
        kind, exact = "SMOOTH", "smooth"
    else:
        lifts = (pt for p, found in mod_p_singular.items()
                 for pt in _centered_lifts(found, p))
        combined = itertools.islice(_crt_candidates(mod_p_singular),
                                    MAX_CRT_COMBINATIONS)
        witness = _exact_witness(int_parts, itertools.chain(lifts, combined))
        kind, exact = (("INCONCLUSIVE", "singular") if witness is None
                       else ("SINGULAR", "witness"))
    return Verdict(kind, exact, witness, tuple(primes), mod_p_singular)


def _macaulay_rows(parts) -> List[Dict[int, Fraction]]:
    """The rows m * dF/dX_i, m a quartic monomial, over the SEPTICS columns."""
    return [{_SEPTIC_INDEX[(a + i, b + j, c + k)]: v for (i, j, k), v in d.items()}
            for d in parts for (a, b, c) in MONOMIALS]


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _poly_eval_mod(terms: Iterable[Tuple[Tuple[int, int, int], int]],
                   x: int, y: int, z: int, p: int) -> int:
    total = 0
    for (i, j, k), c in terms:
        total += c * pow(x, i, p) * pow(y, j, p) * pow(z, k, p)
    return total % p


def _singular_points_mod_p(int_coeffs: List[int], int_parts, p: int
                           ) -> List[Tuple[int, int, int]]:
    f_terms = [(m, c % p) for m, c in zip(MONOMIALS, int_coeffs) if c % p]
    part_terms = [[(m, c % p) for m, c in terms if c % p] for terms in int_parts]
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


def _crt_candidates(mod_p_singular: Dict[int, List[Tuple[int, int, int]]]
                    ) -> Iterator[Tuple[Optional[Fraction], ...]]:
    """One candidate per choice of a listed singular point mod each prime of
    a group of primes that list a point in the chart.

    Charts are the scan's normal forms (x, y, 1), then (x, 1, 0).  The
    groups are first all such primes, chart by chart, then each proper
    nonempty subset of them, largest first: a rational point whose chart
    denominator a prime divides lies in another chart mod that prime, and
    only a choice without that prime recovers it.  A choice is combined by
    CRT and every coordinate is rationally reconstructed (von zur
    Gathen-Gerhard, Modern Computer Algebra, sec. 5.10); a coordinate
    without a reconstruction is None.
    """
    charts = []
    for chart in (2, 1):
        per_prime = [(p, [pt for pt in pts if _chart(pt) == chart])
                     for p, pts in mod_p_singular.items()]
        per_prime = [(p, pts) for p, pts in per_prime if pts]
        if per_prime:
            charts.append(per_prime)
    # generated, not listed: the subsets number 2^(primes), and the caller
    # stops after MAX_CRT_COMBINATIONS candidates
    groups = itertools.chain(charts, (
        sub for size in range(len(mod_p_singular) - 1, 0, -1)
        for per_prime in charts if size < len(per_prime)
        for sub in itertools.combinations(per_prime, size)))
    for per_prime in groups:
        modulus = math.prod(p for p, _ in per_prime)
        # e_p = 1 mod p and 0 mod every other prime
        basis = [modulus // p * pow(modulus // p, -1, p) for p, _ in per_prime]
        for choice in itertools.product(*(pts for _, pts in per_prime)):
            yield tuple(_rational_reconstruction(
                sum(e * c for e, c in zip(basis, coords)) % modulus, modulus)
                for coords in zip(*choice))


def _chart(pt: Tuple[int, int, int]) -> int:
    """Index of the last nonzero coordinate, which the scan sets to 1."""
    return 2 if pt[2] else 1 if pt[1] else 0


def _rational_reconstruction(r: int, m: int) -> Optional[Fraction]:
    """a/b = r mod m with |a|, b <= sqrt(m/2), when the Euclidean remainder
    sequence yields one; such a fraction is unique."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _exact_witness(int_parts, candidates: Iterable[Sequence]
                   ) -> Optional[Tuple[int, int, int]]:
    """The first candidate, denominators cleared, at which the three partials
    vanish exactly (and so F does, by Euler's relation); candidates with a
    None coordinate are skipped."""
    for pt in candidates:
        if None in pt:
            continue
        scale = math.lcm(*(c.denominator for c in pt))
        x, y, z = (int(c * scale) for c in pt)
        if (x, y, z) != (0, 0, 0) and all(
                sum(c * x ** i * y ** j * z ** k for (i, j, k), c in terms) == 0
                for terms in int_parts):
            return x, y, z
    return None
