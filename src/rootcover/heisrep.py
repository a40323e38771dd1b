"""Unit monomial representations of the double cover over Z[i].

The representation sends -1 to -identity and acts on a space of dimension
2^g, where 2g is the dimension of the nondegenerate quotient of V.  It is
assembled from a symplectic basis in Arf normal form: generalized Pauli
tensor factors on each hyperbolic pair, with the single q = 1 pair (when the
Arf invariant is 1) carrying the only i-twisted factors, and radical
generators acting by an exact scalar whose square is (-1)^q.

Every entry is a power of i, so matrices are stored in phase form (see
gaussian.MonoMat) and the checks run on byte-packed rows, so g <= 6.
Correctness is not argued from the construction: the full multiplication
table is verified, one translate per column, once, when the representation
is built.  With that premise checked, irreducibility is read off the
character: the commutant has dimension <chi, chi>, a sum of squared traces
in integers, and no linear system is solved.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .f2 import F2QuadraticSpace, f2_solve, parity, symplectic_decomposition
from .gaussian import UNITS, MonoMat


class RepError(ValueError):
    """A representation that cannot be built or fails its verification.

    ``witnesses`` holds the first failing signed pairs ((su, u), (sv, v)).
    """

    def __init__(self, message: str, witnesses: Sequence[tuple] = ()) -> None:
        super().__init__(message)
        self.witnesses = tuple(witnesses)


def normal_form_pairs(cocycle: F2QuadraticSpace) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Symplectic basis of the cocycle's form, with all q = 1 weight on the
    last hyperbolic pair.

    A mixed pair (u, w), q = 1 on one vector only, becomes a q = (0, 0) pair
    by adding the q = 1 vector to the other.  Each two q = (1, 1) pairs span
    a space that two q = (0, 0) pairs also span, written down in closed form.
    """
    pairs, radical = symplectic_decomposition(cocycle)
    q = cocycle.q
    fixed: List[Tuple[int, int]] = []
    twists: List[Tuple[int, int]] = []
    for u, w in pairs:
        if q(u) and not q(w):
            u ^= w
        elif q(w) and not q(u):
            w ^= u
        (twists if q(u) else fixed).append((u, w))
    while len(twists) >= 2:
        a, b = twists.pop()
        c, d = twists.pop()
        # q = 1 on a, b, c, d, <a, b> = <c, d> = 1 and the two planes are
        # orthogonal, so by q(x + y) = q(x) + q(y) + <x, y> q vanishes on all
        # four vectors below, each pair pairs to 1 and the pairs are orthogonal
        fixed += [(b ^ d, b ^ c ^ d), (a ^ c, a ^ b ^ c)]
    fixed.extend(twists)
    return fixed, radical


def _pauli(g: int, k: int, flip: bool, off: int, on: int) -> MonoMat:
    """The monomial matrix on 2^g rows that sends row r to column r + 2^k
    when ``flip`` (to column r otherwise), with phase i**on where bit k of r
    is set and i**off where it is clear."""
    n = 1 << g
    bit = 1 << k
    step = bit if flip else 0
    return MonoMat(n, tuple(r ^ step for r in range(n)),
                   tuple(on if r & bit else off for r in range(n)))


class HeisRep:
    """Assignment v -> monomial matrix M_v with rho(sign, v) = sign * M_v.

    ``report`` is the check of the full multiplication table, _check_table,
    that build_heisrep attaches; verify_rep reads it and checks no table
    itself, so a representation assembled by hand needs one attached.
    """

    def __init__(self, cocycle: F2QuadraticSpace, dim_w: int, mats: Tuple[MonoMat, ...]):
        self.cocycle = cocycle
        self.dim_w = dim_w
        self.mats = mats
        self.report: Optional[RepReport] = None

    def to_json_dict(self) -> dict:
        return {"dim_w": self.dim_w, "mats": self.render_mats}

    def render_mats(self, indent: str) -> str:
        """Each matrix as the list of its entries [r, c, "re", "im"], in the
        text of json.dumps(mats, indent=2) with ``indent`` after every
        newline: each entry fills the % template of its phase.  The parts of
        a unit (``UNITS``) are the strings of the integers 0 and +-1, which
        JSON writes in quotes, unescaped."""
        outer = indent + "  "
        row, part = outer + "  ", outer + "    "
        templates = [f'{row}[\n{part}%d,\n{part}%d,\n{part}"{re}",\n'
                     f'{part}"{im}"\n{row}]' for re, im in UNITS]
        mats = [outer + "[\n" + ",\n".join([templates[p] % (r, c) for r, (c, p)
                                             in enumerate(zip(m.col, m.phase))])
                + "\n" + outer + "]" for m in self.mats]
        return "[\n" + ",\n".join(mats) + "\n" + indent + "]"


def build_heisrep(cocycle: F2QuadraticSpace) -> HeisRep:
    """Build the representation and verify its full multiplication table.

    The returned representation carries the verification as ``report``, whose
    commutant is not computed; a failure of the table or of rho(-1) = -id
    raises RepError with the first failing signed pairs.  So does, at once, a
    cover with g > 6: no byte packs its rows, and its 2^28 pairs would not end.
    """
    pairs, rad = normal_form_pairs(cocycle)
    n = cocycle.dim
    g = len(pairs)
    if g > 6:
        raise RepError(f"dimension 2^{g} is too large: at most 2^6 rows pack into bytes")
    dim_w = 1 << g

    adapted: List[int] = []
    gens: List[MonoMat] = []
    for k, (u, w) in enumerate(pairs):
        if cocycle.q(u):        # the one twisted pair, in the last slot
            gens += (_pauli(g, k, True, 2, 0), _pauli(g, k, False, 1, 3))
        else:
            gens += (_pauli(g, k, True, 0, 0), _pauli(g, k, False, 0, 2))
        adapted.extend((u, w))
    for r in rad:
        # i**q(r) times the identity
        gens.append(_pauli(g, 0, False, cocycle.q(r), cocycle.q(r)))
        adapted.append(r)

    # coordinates of the standard basis in the adapted basis, a basis: each
    # twisted split (b+d, b+c+d, a+c, a+b+c) is invertible on span{a, b, c, d}
    coords_of_e = [f2_solve(adapted, 1 << j, n) for j in range(n)]

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
    """The representation's full report: rho(x) rho(y) = rho(xy) over all
    |cover|^2 pairs and rho(-1) = -id, read from ``rep.report`` (the table is
    checked once per representation, when it is built), the squares of
    root-class lifts, and that the commutant of the image is exactly the
    scalars.  The commutant is read off the character, whose premise is the
    table: on a failed table it stays None.
    """
    built = rep.report
    report = RepReport(built.pairs_checked)
    report.failures = list(built.failures)
    report.rho_minus_one_is_minus_id = built.rho_minus_one_is_minus_id
    report.root_square_failures = _root_square_failures(rep, root_classes)
    if not report.failures and report.rho_minus_one_is_minus_id:
        report.commutant_dim = commutant_dimension(rep)
    return report


def _check_table(rep: HeisRep) -> RepReport:
    """The signed multiplication table and rho(-1) = -id, in (u, v) order.

    For each v one translate of the packed rows of every M_u forms all the
    M_u M_v (see MonoMat.code); only a column that differs is sliced, by u.
    """
    coc = rep.cocycle
    mats = rep.mats
    size = 1 << coc.dim
    w = rep.dim_w
    report = RepReport(pairs_checked=4 * size * size)
    report.rho_minus_one_is_minus_id = -mats[0] == -MonoMat.identity(w)

    signed = [(m.code(), (-m).code()) for m in mats]
    stacked = b"".join([plus for plus, _ in signed])
    betas = [coc.beta(u) for u in range(size)]      # beta(u, v) = parity(beta_u & v)
    failing = []
    for v in range(size):
        # rho((su, u)) rho((sv, v)) = su sv M_u M_v must equal
        # rho((su sv (-1)^beta(u, v), u + v)) = su sv (-1)^beta(u, v) M_(u+v):
        # su sv cancels, so the four signed pairs hold or fail together
        prods = stacked.translate(mats[v].right_table())
        expected = b"".join([signed[u ^ v][parity(beta_u & v)]
                             for u, beta_u in enumerate(betas)])
        if prods != expected:
            failing += [(u, v) for u in range(size)
                        if prods[u * w:(u + 1) * w] != expected[u * w:(u + 1) * w]]
    report.failures = [((su, u), (sv, v)) for u, v in sorted(failing)
                       for su, sv in _SIGNS]
    return report


def _root_square_failures(rep: HeisRep, root_classes: Sequence[int]) -> List[int]:
    """The classes v among ``root_classes`` with M_v^2 != -id."""
    minus_id = -MonoMat.identity(rep.dim_w)
    return [v for v in root_classes if rep.mats[v] * rep.mats[v] != minus_id]


def character(rep: HeisRep) -> List[Tuple[int, int]]:
    """tr M_v for every class v, as the Gaussian integer (re, im): the sum of
    i**phase[r] over the rows r with col[r] = r."""
    traces = []
    for m in rep.mats:
        count = [0, 0, 0, 0]            # diagonal entries by phase
        for r, c, p in zip(range(m.n), m.col, m.phase):
            if r == c:
                count[p] += 1
        traces.append((count[0] - count[2], count[1] - count[3]))
    return traces


def commutant_dimension(rep: HeisRep) -> int:
    """dim End_G(W) = <chi, chi> = sum over v of |tr M_v|^2 / 2^dim V.

    G is the cover, of order 2^(dim V + 1), and rho(sign, v) = sign M_v has
    |chi| = |tr M_v| on both lifts of v.  For a representation, <chi, chi>
    is the sum of the squared multiplicities of its irreducible parts, the
    dimension of its commutant (Serre, Linear Representations of Finite
    Groups, 2.3, Theorem 5).  That premise is the table build_heisrep checks;
    a sum that 2^dim V does not divide raises RepError.
    """
    total = sum(re * re + im * im for re, im in character(rep))
    dim, rest = divmod(total, len(rep.mats))
    if rest:
        raise RepError(f"character norm {total} / {len(rep.mats)} is not an integer")
    return dim


def anticommutation_model_holds() -> bool:
    """The 2x2 identity under the sign rule of the lifts: x = ((0, -i), (-i, 0))
    and z = ((-i, 0), (0, i)) anticommute."""
    x = MonoMat(2, (1, 0), (3, 3))
    z = MonoMat(2, (0, 1), (3, 1))
    return x * z == -(z * x)
