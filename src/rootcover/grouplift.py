"""Matrix-level checks for the converse construction.

The abstract double cover is recovered inside the simply connected fixed
group; at representation level this reduces to concrete matrix identities:
the 3x3 orthogonal image of a 2x2 projective transformation, its Lie-algebra
derivative, and the sign commutation rule between root lifts.  The order-4
lifts of the torus 2-torsion (squares equal to minus the identity) are
checked by heisrep.verify_rep on the root classes; 2 R(Z_gamma) = rho of the
canonical lift is the definition of liealg.RMap, not a check.  Everything is
exact: Gaussian rationals for the dense identities, powers of i for the
monomial ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .f2 import bilinear_eval, mod2_bits
from .gaussian import (Dense, I, ONE, ZERO, dense_identity, dense_mul,
                       dense_neg, dense_sub, dense_transpose, gq)
from .heisrep import HeisRep
from .intmat import field_eliminate
from .lattice import RootDatum


class GroupLiftError(ValueError):
    pass


def pgl2_to_so3(m: Dense) -> Dense:
    """The 3x3 orthogonal matrix attached to an invertible 2x2 matrix.

    Scale invariant in the input; the output is exactly orthogonal with
    determinant 1.  Raises on singular input.
    """
    (a, b), (c, d) = m[0], m[1]
    det = a * d - b * c
    if det.is_zero():
        raise GroupLiftError("singular input")
    half = gq(Fraction(1, 2))
    rows = (
        (a * d + b * c, I * (a * c + b * d), b * d - a * c),
        (-(I * (a * b + c * d)), (a * a + b * b + c * c + d * d) * half,
         I * (a * a - b * b + c * c - d * d) * half),
        (-(a * b - c * d), I * (c * c + d * d - a * a - b * b) * half,
         (a * a - b * b - c * c + d * d) * half),
    )
    inv = ONE / det
    return tuple(tuple(inv * x for x in row) for row in rows)


def sl2_to_so3_derivative(m: Dense) -> Dense:
    """Derivative of the 2x2 -> 3x3 map on trace-zero matrices; antisymmetric output."""
    (a, b), (c, d) = m[0], m[1]
    if not (a + d).is_zero():
        raise GroupLiftError("input has nonzero trace")
    two_i = I * gq(2)
    return (
        (ZERO, I * (b + c), b - c),
        (-(I * (b + c)), ZERO, two_i * a),
        (c - b, -(two_i * a), ZERO),
    )


def is_special_orthogonal(m: Dense) -> bool:
    mt = dense_transpose(m)
    if dense_mul(mt, m) != dense_identity(3):
        return False
    return field_eliminate(m, ONE)[0] == ONE


def is_antisymmetric(m: Dense) -> bool:
    return dense_transpose(m) == dense_neg(m)


def dense_bracket(x: Dense, y: Dense) -> Dense:
    return dense_sub(dense_mul(x, y), dense_mul(y, x))


class CommReport:
    def __init__(self, pairs_checked: int):
        self.pairs_checked = pairs_checked
        self.failures: List[Tuple[int, int]] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_comm_relation(rep: HeisRep, datum: RootDatum,
                         all_pairs: bool = False) -> CommReport:
    """Check rho(c(g)) rho(c(d)) = (-1)^<g, d> rho(c(d)) rho(c(g)).

    Over the simple-root pairs by default, or over every pair of roots.  Both
    sides depend on g and d only through their classes mod 2 (the parity of
    <g, d> is the gram mod 2 on the two classes), so each class pair is
    checked once; every root pair is still counted, and a failing one named.
    """
    indices = list(range(len(datum.roots))) if all_pairs else list(datum.simple)
    report = CommReport(pairs_checked=0)
    gram2 = [mod2_bits(row) for row in datum.lattice.gram]
    classes = [datum.root_class_bits(ri) for ri in indices]
    # Both sides carry the same scale, so the packed rows (MonoMat.code)
    # decide the identity.
    mats = {c: rep.rho_bits(c) for c in classes}
    codes = {c: m.code() for c, m in mats.items()}
    tables = {c: m.right_table() for c, m in mats.items()}
    neg_tables = {c: (-m).right_table() for c, m in mats.items()}
    holds: Dict[Tuple[int, int], bool] = {}
    for i, cg in enumerate(classes):
        for j in range(i + 1, len(indices)):
            cd = classes[j]
            # the relation holds for (d, g) exactly when it holds for (g, d)
            key = (cg, cd) if cg <= cd else (cd, cg)
            ok = holds.get(key)
            if ok is None:
                rhs_table = neg_tables[cg] if bilinear_eval(gram2, cg, cd) else tables[cg]
                ok = holds[key] = (tuple(map(tables[cd].__getitem__, codes[cg]))
                                   == tuple(map(rhs_table.__getitem__, codes[cd])))
            if not ok:
                report.failures.append((indices[i], indices[j]))
            report.pairs_checked += 1
    return report


def anticommutation_model_holds() -> bool:
    """The 2x2 identity underlying the sign rule: the two standard lifts anticommute."""
    x = ((ZERO, -I), (-I, ZERO))
    z = ((-I, ZERO), (ZERO, I))
    return dense_mul(x, z) == dense_neg(dense_mul(z, x))

