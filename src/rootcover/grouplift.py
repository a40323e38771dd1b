"""Matrix-level checks for the converse construction.

The abstract double cover is recovered inside the simply connected fixed
group; at representation level this reduces to the sign commutation rule
between root lifts, and to the 2x2 identity under it: the two standard
lifts anticommute.  The order-4 lifts of the torus 2-torsion (squares equal
to minus the identity) are checked by heisrep.verify_rep on the root
classes; 2 R(Z_gamma) = rho of the canonical lift is the definition of
liealg.RMap, not a check.  Everything is exact: Gaussian rationals for the
2x2 identity, powers of i for the monomial ones.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .f2 import bilinear_eval, mod2_bits
from .gaussian import I, ZERO, dense_mul, dense_neg
from .heisrep import HeisRep
from .lattice import RootDatum


class CommReport:
    def __init__(self, pairs_checked: int):
        self.pairs_checked = pairs_checked
        self.failures: List[Tuple[int, int]] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_comm_relation(rep: HeisRep, datum: RootDatum) -> CommReport:
    """Check rho(c(g)) rho(c(d)) = (-1)^<g, d> rho(c(d)) rho(c(g)) over every
    pair of roots.

    Both sides depend on g and d only through their classes mod 2 (the
    parity of <g, d> is the gram mod 2 on the two classes), so each class
    pair is checked once; every root pair is still counted, and a failing
    one named.
    """
    report = CommReport(pairs_checked=0)
    gram2 = [mod2_bits(row) for row in datum.lattice.gram]
    classes = [datum.root_class_bits(ri) for ri in range(len(datum.roots))]
    # Both sides carry the same scale, so the packed rows (MonoMat.code)
    # decide the identity.
    mats = {c: rep.rho_bits(c) for c in classes}
    codes = {c: m.code() for c, m in mats.items()}
    tables = {c: m.right_table() for c, m in mats.items()}
    neg_tables = {c: (-m).right_table() for c, m in mats.items()}
    holds: Dict[Tuple[int, int], bool] = {}
    for i, cg in enumerate(classes):
        for j in range(i + 1, len(classes)):
            cd = classes[j]
            # the relation holds for (d, g) exactly when it holds for (g, d)
            key = (cg, cd) if cg <= cd else (cd, cg)
            ok = holds.get(key)
            if ok is None:
                rhs_table = neg_tables[cg] if bilinear_eval(gram2, cg, cd) else tables[cg]
                ok = holds[key] = (tuple(map(tables[cd].__getitem__, codes[cg]))
                                   == tuple(map(rhs_table.__getitem__, codes[cd])))
            if not ok:
                report.failures.append((i, j))
            report.pairs_checked += 1
    return report


def anticommutation_model_holds() -> bool:
    """The 2x2 identity underlying the sign rule: the two standard lifts anticommute."""
    x = ((ZERO, -I), (-I, ZERO))
    z = ((-I, ZERO), (ZERO, I))
    return dense_mul(x, z) == dense_neg(dense_mul(z, x))

