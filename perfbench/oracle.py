"""Independent oracle for the quartic probes.

Each curve is rebuilt in sympy from the family equations (not from rootcover
code).  It is singular exactly when F and its three partials have a common
zero in one of the affine charts Z = 1, Y = 1, X = 1, i.e. when the reduced
Groebner basis of that chart's ideal is not {1}.  A SINGULAR witness is
re-checked by exact evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import sympy

X, Y, Z = sympy.symbols("X Y Z")
CERTIFIED = ("SMOOTH", "SINGULAR")
UNDECIDED = ("PROBABLY_SMOOTH", "INCONCLUSIVE")


def family_polynomial(family: str, params: Sequence[Fraction]) -> sympy.Expr:
    """The marked family member, in the CLI's parameter order."""
    q = [sympy.Rational(p.numerator, p.denominator) for p in params]
    if family == "e6":      # p2, p5, p8, p6, p9, p12
        p2, p5, p8, p6, p9, p12 = q
        rhs = (X**4 + Y * (p2 * X**2 * Z + p5 * X * Z**2 + p8 * Z**3)
               + p6 * X**2 * Z**2 + p9 * X * Z**3 + p12 * Z**4)
    elif family == "e7":    # p2, p10, p8, p14, p6, p12, p18
        p2, p10, p8, p14, p6, p12, p18 = q
        rhs = (X**3 * Y + p10 * X**2 * Z**2
               + X * (p2 * Y**2 * Z + p8 * Y * Z**2 + p14 * Z**3)
               + p6 * Y**2 * Z**2 + p12 * Y * Z**3 + p18 * Z**4)
    else:
        raise ValueError(f"unknown family {family!r}")
    return sympy.expand(Y**3 * Z - rhs)


def is_singular(poly: sympy.Expr) -> bool:
    system = [poly] + [sympy.diff(poly, v) for v in (X, Y, Z)]
    for fixed, free in ((Z, (X, Y)), (Y, (X, Z)), (X, (Y, Z))):
        chart = [sympy.expand(g.subs(fixed, 1)) for g in system]
        basis = sympy.groebner(chart, *free, order="grevlex", domain="QQ")
        if list(basis.exprs) != [sympy.Integer(1)]:
            return True
    return False


def witness_is_singular(poly: sympy.Expr, witness: Sequence[int]) -> bool:
    if len(witness) != 3 or not any(witness):
        return False
    at = dict(zip((X, Y, Z), (sympy.Integer(int(c)) for c in witness)))
    return all(g.subs(at) == 0
               for g in [poly] + [sympy.diff(poly, v) for v in (X, Y, Z)])


@dataclass
class Probe:
    family: str
    params: Tuple[Fraction, ...]
    singular: Optional[bool] = None     # set by decide(), before any timing

    def argv(self) -> List[str]:
        return ["quartic", self.family,
                "--params=" + ",".join(str(p) for p in self.params)]

    def decide(self) -> None:
        self.singular = is_singular(family_polynomial(self.family, self.params))

    def judge(self, kind: Optional[str], witness) -> Optional[str]:
        """None when the verdict is consistent with the oracle."""
        if kind in UNDECIDED:
            return None
        if kind == "SMOOTH":
            return "SMOOTH but the oracle finds a singular point" if self.singular else None
        if kind == "SINGULAR":
            if not self.singular:
                return "SINGULAR but the oracle finds the curve smooth"
            if witness is None or not witness_is_singular(
                    family_polynomial(self.family, self.params), witness):
                return f"SINGULAR witness {witness} is not a singular point"
            return None
        return f"unknown verdict {kind!r}"
