"""Monomial Gaussian-rational representations of the double cover.

The representation sends -1 to -identity and acts on a space of dimension
2^g, where 2g is the dimension of the nondegenerate quotient of V.  It is
assembled from a symplectic basis in Arf normal form: generalized Pauli
tensor factors on each hyperbolic pair, with the single q = 1 pair (when the
Arf invariant is 1) carrying the only i-twisted factors, and radical
generators acting by an exact scalar whose square is (-1)^q.

Every entry is a power of i, so matrices are stored in phase form (see
gaussian.MonoMat) and the checks run on packed rows.  Correctness is not
argued from the construction: the full multiplication table is verified pair
by pair, once, when the representation is built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .f2 import F2QuadraticSpace, f2_solve, parity, symplectic_decomposition
from .gaussian import MonoMat, phase_rows, sparse_nullspace


class RepError(ValueError):
    """A representation that cannot be built or fails its verification.

    ``witnesses`` holds the first failing signed pairs ((su, u), (sv, v)).
    """

    def __init__(self, message: str, witnesses: Sequence[tuple] = ()) -> None:
        super().__init__(message)
        self.witnesses = tuple(witnesses)


def arf_normal_pairs(cocycle: F2QuadraticSpace) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Symplectic basis of the cocycle's form, with all q = 1 weight on the
    last hyperbolic pair.

    Mixed pairs are cleared with u -> u + w; two q = (1,1) pairs at a time are
    re-split into q = (0,0) pairs by exhaustive search inside their span
    (possible because the Arf invariant of that 4-dimensional piece is 0).
    """
    pairs, radical = symplectic_decomposition(cocycle)
    q, pairing = cocycle.q, cocycle.pairing
    fixed: List[Tuple[int, int]] = []
    twists: List[Tuple[int, int]] = []
    for u, w in pairs:
        if q(u) and not q(w):
            u ^= w
        elif q(w) and not q(u):
            w ^= u
        if q(u) and q(w):
            twists.append((u, w))
        else:
            if q(u) or q(w):
                raise RepError("pair normalization failed")
            fixed.append((u, w))
    while len(twists) >= 2:
        a, b = twists.pop()
        c, d = twists.pop()
        span = [x1 ^ x2 ^ x3 ^ x4
                for x1 in (0, a) for x2 in (0, b) for x3 in (0, c) for x4 in (0, d)]
        split = None
        for v1 in span:
            if v1 == 0 or q(v1):
                continue
            for w1 in span:
                if pairing(v1, w1) != 1:
                    continue
                if q(w1):
                    w1 ^= v1
                comp = [x for x in span
                        if x and pairing(x, v1) == 0 and pairing(x, w1) == 0]
                v2 = next((x for x in comp if not q(x)), None)
                if v2 is None:
                    continue
                w2 = next((x for x in comp if pairing(v2, x) == 1), None)
                if w2 is None:
                    continue
                if q(w2):
                    w2 ^= v2
                if not q(w2):
                    split = [(v1, w1), (v2, w2)]
                    break
            if split:
                break
        if split is None:
            raise RepError("could not re-split a pair of twisted planes")
        fixed.extend(split)
    fixed.extend(twists)
    return fixed, radical


def _pauli_x(g: int, k: int) -> MonoMat:
    n = 1 << g
    bit = 1 << k
    return MonoMat(n, tuple(r ^ bit for r in range(n)), (0,) * n)


def _pauli_z(g: int, k: int) -> MonoMat:
    n = 1 << g
    bit = 1 << k
    return MonoMat(n, tuple(range(n)), tuple(2 if r & bit else 0 for r in range(n)))


def _pauli_xz(g: int, k: int) -> MonoMat:
    n = 1 << g
    bit = 1 << k
    return MonoMat(n, tuple(r ^ bit for r in range(n)),
                   tuple(0 if r & bit else 2 for r in range(n)))


def _pauli_iz(g: int, k: int) -> MonoMat:
    n = 1 << g
    bit = 1 << k
    return MonoMat(n, tuple(range(n)), tuple(3 if r & bit else 1 for r in range(n)))


def _scalar(g: int, phase: int) -> MonoMat:
    """i**phase times the identity."""
    n = 1 << g
    return MonoMat(n, tuple(range(n)), (phase,) * n)


class HeisRep:
    """Assignment v -> monomial matrix M_v with rho(sign, v) = sign * M_v.

    ``report`` is the check build_heisrep ran on the full multiplication
    table.  It is not an init parameter, so a representation assembled by
    hand has none and verify_rep checks it afresh.
    """

    def __init__(self, cocycle: F2QuadraticSpace, dim_w: int, mats: Tuple[MonoMat, ...]):
        self.cocycle = cocycle
        self.dim_w = dim_w
        self.mats = mats
        self.report: Optional[RepReport] = None

    def rho_bits(self, v: int) -> MonoMat:
        return self.mats[v]

    def to_json_dict(self) -> dict:
        return {
            "dim_w": self.dim_w,
            "mats": [
                [[r, c, str(val.re), str(val.im)] for r, c, val in m.entries()]
                for m in self.mats
            ],
        }


def build_heisrep(cocycle: F2QuadraticSpace) -> HeisRep:
    """Build the representation and verify its full multiplication table.

    The returned representation carries the verification as ``report``, whose
    commutant is not computed; a failure of the table or of rho(-1) = -id
    raises RepError with the first failing signed pairs.
    """
    pairs, rad = arf_normal_pairs(cocycle)
    n = cocycle.dim
    g = len(pairs)
    dim_w = 1 << g

    adapted: List[int] = []
    gens: List[MonoMat] = []
    for k, (u, w) in enumerate(pairs):
        if cocycle.q(u):
            if k != g - 1:
                raise RepError("twist pair is not in the last slot")
            gens.append(_pauli_xz(g, k))
            gens.append(_pauli_iz(g, k))
        else:
            gens.append(_pauli_x(g, k))
            gens.append(_pauli_z(g, k))
        adapted.extend((u, w))
    for r in rad:
        gens.append(_scalar(g, cocycle.q(r)))
        adapted.append(r)

    # coordinates of the standard basis in the adapted basis
    coords_of_e = [f2_solve(adapted, 1 << j, n) for j in range(n)]
    if None in coords_of_e:
        raise RepError("vector outside the span of the adapted basis")

    identity = MonoMat.identity(dim_w)
    basis_mats: List[MonoMat] = []
    for j in range(n):
        m = identity
        c = coords_of_e[j]
        for idx in range(len(adapted)):
            if (c >> idx) & 1:
                m = m * gens[idx]
        basis_mats.append(m)

    mats: List[MonoMat] = [identity] * (1 << n)
    for v in range(1, 1 << n):
        j = (v & -v).bit_length() - 1
        rest = v & (v - 1)
        m = basis_mats[j] * mats[rest]
        if parity(cocycle.upper_rows[j] & rest):
            m = -m
        mats[v] = m

    # each canonical radical lift must act by a scalar whose square is (-1)^q
    for r in rad:
        square = mats[r] * mats[r]
        if (mats[r].scalar_value() is None
                or square != (-identity if cocycle.q(r) else identity)):
            raise RepError("no consistent scalar for a radical generator")
    rep = HeisRep(cocycle, dim_w, tuple(mats))
    report = _check_table(rep)
    if report.failures or not report.rho_minus_one_is_minus_id:
        center = "" if report.rho_minus_one_is_minus_id else ", rho(-1) != -id"
        raise RepError(f"representation failed verification: "
                       f"{len(report.failures)} failing signed pairs{center}",
                       witnesses=report.failures[:5])
    rep.report = report
    return rep


class RepReport:
    def __init__(self, pairs_checked: int):
        self.pairs_checked = pairs_checked
        self.failures: List[tuple] = []
        self.rho_minus_one_is_minus_id = False
        self.commutant_dim: Optional[int] = None
        self.root_square_failures: List[int] = []

    @property
    def ok(self) -> bool:
        # a commutant not yet computed is no pass
        return (not self.failures and self.rho_minus_one_is_minus_id
                and not self.root_square_failures
                and self.commutant_dim == 1)


_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def verify_rep(rep: HeisRep, root_classes: Sequence[int]) -> RepReport:
    """Exhaustively check rho(x) rho(y) = rho(xy) over all |cover|^2 pairs.

    Also checks rho(-1) = -id, squares of root-class lifts, and that the
    commutant of the image is exactly the scalars.  The table and rho(-1)
    are checked once per representation: for one from build_heisrep they
    were checked there, and its report is reused.
    """
    built = rep.report
    if built is None:
        report = _check_table(rep)
    else:
        report = RepReport(built.pairs_checked)
        report.failures = list(built.failures)
        report.rho_minus_one_is_minus_id = built.rho_minus_one_is_minus_id
    report.root_square_failures = _root_square_failures(rep, root_classes)
    report.commutant_dim = commutant_dimension(rep)
    return report


def _check_table(rep: HeisRep) -> RepReport:
    """The signed multiplication table and rho(-1) = -id."""
    coc = rep.cocycle
    mats = rep.mats
    size = 1 << coc.dim
    report = RepReport(pairs_checked=0)
    report.rho_minus_one_is_minus_id = -mats[0] == -MonoMat.identity(rep.dim_w)

    # Products run on packed rows (see MonoMat.code); the scales multiply
    # separately and are all 1 for a representation built here.
    codes = [m.code() for m in mats]
    neg_codes = [(-m).code() for m in mats]
    tables = [m.right_table() for m in mats]
    scales = [m.scale for m in mats]
    unit_scales = all(s == 1 for s in scales)
    beta = coc.beta
    failures = report.failures
    for u in range(size):
        cu = codes[u]
        for v in range(size):
            t = u ^ v
            # rho((su, u)) rho((sv, v)) = su sv M_u M_v must equal
            # rho((su sv (-1)^beta(u, v), u + v)) = su sv (-1)^beta(u, v) M_t:
            # su sv cancels, so the four signed pairs hold or fail together
            prod = tuple(map(tables[v].__getitem__, cu))          # M_u M_v
            if (prod != (neg_codes[t] if beta(u, v) else codes[t])
                    or not (unit_scales or scales[u] * scales[v] == scales[t])):
                failures.extend(((su, u), (sv, v)) for su, sv in _SIGNS)
            report.pairs_checked += 4
    return report


def _root_square_failures(rep: HeisRep, root_classes: Sequence[int]) -> List[int]:
    """The classes v among ``root_classes`` with M_v^2 != -id."""
    minus_id = -MonoMat.identity(rep.dim_w)
    return [v for v in root_classes if rep.mats[v] * rep.mats[v] != minus_id]


def commutant_dimension(rep: HeisRep) -> int:
    """Dimension of {B : B M = M B for all image matrices}, solved exactly.

    Both terms of an equation carry the scale of M, which factors out: each
    equation is two phase terms (see gaussian.phase_rows).
    """
    n = rep.dim_w
    gens = [rep.mats[1 << j] for j in range(rep.cocycle.dim)]

    def equations():
        for m in gens:
            colinv = [0] * n
            for r, c in enumerate(m.col):
                colinv[c] = r
            for r in range(n):
                for c in range(n):
                    # (B M - M B)[r, c] = B[r, k0] M[k0, c] - M[r, col r] B[col r, c]
                    k0 = colinv[c]
                    yield ((r * n + k0, m.phase[k0]), (m.col[r] * n + c, m.phase[r] + 2))

    return len(sparse_nullspace(phase_rows(equations()), n * n))
