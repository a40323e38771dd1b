from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Tuple

import pytest

from rootcover import lattice
from rootcover.cli import RunConfig
from rootcover.cmd_pipeline import Pipeline, build_pipeline
from rootcover.f2 import (F2Error, f2_echelon, f2_rank, mod2_bits, parity,
                          symplectic_decomposition)
from rootcover.gaussian import _SparseEchelon, add_terms
from rootcover.heisrep import HeisRep, RepError, _check_table, build_heisrep
from rootcover.liealg import LieError, RMap


# -- Gaussian rationals and elimination over a field: the references that the
# integer representation checks and determinants are tested against


class GQ:
    """A Gaussian rational re + im*i."""

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __add__(self, other: "GQ") -> "GQ":
        return GQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GQ") -> "GQ":
        return GQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, other: "GQ") -> "GQ":
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GQ") -> "GQ":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self


def gq(re=0, im=0) -> GQ:
    return GQ(Fraction(re), Fraction(im))


ZERO = gq(0)
ONE = gq(1)
I = gq(0, 1)
MINUS_ONE = gq(-1)
# i**k as a Gaussian rational, k = 0..3
POWERS_OF_I = (ONE, I, MINUS_ONE, -I)


def dense_entries(m):
    """(r, c, value) for the nonzero entry of each row of a monomial matrix,
    the value a Gaussian rational."""
    for r, c in enumerate(m.col):
        yield r, c, POWERS_OF_I[m.phase[r]]


def gq_trace(m) -> GQ:
    """The trace of a monomial matrix as a Gaussian rational."""
    return sum((v for r, c, v in dense_entries(m) if r == c), ZERO)


def gq_vectors(vectors):
    """Phase vectors {u: k}, as phase_nullspace returns them, with every
    entry i**k as a Gaussian rational."""
    return [{u: POWERS_OF_I[k] for u, k in vec.items()} for vec in vectors]


def field_eliminate(rows, one):
    """Exact Gaussian elimination over a field: Fraction or GQ.

    Row-reduces a copy of the n-row matrix ``rows`` (n or more columns) until
    its leading n x n block is upper unitriangular.  Returns (determinant of
    that block, reduced rows); at the first column without a pivot it stops
    and returns a zero determinant.  ``one`` is the field's unit; entries test
    for zero by truth value.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return one - one, a
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = one / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            f = a[r][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, a


def form_from_solution(sol, n, sym):
    """The dense Gaussian-rational form B with B^T = sym * B of a solution
    of invariant_form_space, a phase per unknown upper-triangle entry."""
    unknowns = form_unknowns(n, sym)
    mat = [[ZERO] * n for _ in range(n)]
    for idx, phase in sol.items():
        a, b = unknowns[idx]
        val = POWERS_OF_I[phase]
        mat[a][b] = mat[a][b] + val
        if a != b:
            mat[b][a] = mat[b][a] + (val if sym == 1 else -val)
    return tuple(tuple(row) for row in mat)


def row_lattice_index(vectors, n):
    """Index in Z^n of the lattice generated by the given row vectors, by an
    integer echelon; 0 when the rows do not span a finite-index sublattice."""
    basis = {}  # leading column -> echelon row
    for vec in vectors:
        v = list(vec)
        while True:
            lead = next((i for i, x in enumerate(v) if x != 0), None)
            if lead is None:
                break
            if lead not in basis:
                basis[lead] = v
                break
            b = basis[lead]
            q = v[lead] // b[lead]
            v = [x - q * y for x, y in zip(v, b)]
            if v[lead]:
                basis[lead], v = v, b
    if len(basis) < n:
        return 0
    det = 1
    for lead, b in basis.items():
        det *= b[lead]
    return abs(det)


def rational_inverse(m):
    """Exact inverse of a square integer matrix, entries as Fractions:
    field_eliminate's forward pass on [m | I], then back-substitution."""
    n = len(m)
    augmented = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
                 for i, row in enumerate(m)]
    det, a = field_eliminate(augmented, Fraction(1))
    if not det:
        raise ZeroDivisionError("singular matrix")
    for col in reversed(range(n)):
        for r in range(col):
            f = a[r][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def reference_enumerate_roots(lat):
    """enumerate_roots by independent means: the index check over all the
    roots, the simple roots as the positive roots that are no difference of
    two positive roots (a search over all pairs), and every root's simple
    coordinates through the rational inverse of the simple roots."""
    if not lat.is_even():
        raise lattice.LatticeError("lattice is not even")
    raw = lattice.short_vectors(lat.gram, 2)
    n = lat.rank
    if row_lattice_index(raw, n) != 1:
        raise lattice.LatticeError("roots do not generate the lattice")
    positives = [c for c in raw if c > (0,) * n]
    pos_set = set(positives)
    simple = sorted(c for c in positives
                    if not any(tuple(a - b for a, b in zip(c, q)) in pos_set
                               for q in positives))
    if len(simple) != n:
        raise lattice.LatticeError("failed to extract a simple system")
    s_inv = rational_inverse(simple)
    new_roots = []
    for c in raw:
        coords = [sum(a * row[j] for a, row in zip(c, s_inv)) for j in range(n)]
        if any(x.denominator != 1 for x in coords):
            raise lattice.LatticeError("root has non-integral simple coordinates")
        new_roots.append(tuple(int(x) for x in coords))
    new_gram = tuple(tuple(lat.inner(a, b) for b in simple) for a in simple)
    ordered = tuple(sorted(new_roots, key=lambda c: (sum(c), c)))
    idx = {c: i for i, c in enumerate(ordered)}
    simple_indices = tuple(idx[tuple(int(j == k) for j in range(n))] for k in range(n))
    return lattice.RootDatum(lattice.IntLattice(new_gram), ordered, simple_indices)


def with_mats(rep, mats, dim_w=None):
    """``rep`` with its matrices replaced by ``mats``, of size ``dim_w`` (by
    default rep's), and the report of their full table attached, as
    build_heisrep attaches it."""
    changed = HeisRep(rep.cocycle, dim_w or rep.dim_w, tuple(mats))
    changed.report = _check_table(changed)
    return changed


def reference_table_failures(rep):
    """The failing signed pairs ((su, u), (sv, v)) of the full multiplication
    table, found pair by pair with MonoMat products, in (u, v) order: the
    reference for heisrep._check_table's one translate per column."""
    coc, mats = rep.cocycle, rep.mats
    failures = []
    for u in range(len(mats)):
        beta_u = coc.beta(u)
        for v in range(len(mats)):
            # su sv cancels from both sides: the four signed pairs hold together
            t = mats[u ^ v]
            if mats[u] * mats[v] != (-t if parity(beta_u & v) else t):
                failures += [((su, u), (sv, v))
                             for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return failures


def gq_entries(terms):
    """Sum of c * M over (c, M), as a dict of its nonzero entries."""
    acc = {}
    for c, m in terms:
        for r, col, v in dense_entries(m):
            acc[r, col] = acc.get((r, col), ZERO) + gq(c) * v
    return {k: v for k, v in acc.items() if v}


def reference_r_failures(rmap):
    """The pairs (i, j), i < j, at which R([z_i, z_j]) = [R(z_i), R(z_j)]
    fails, read in Gaussian rationals: rmap.mats holds U_k = 2 R(z_k), so
    the identity is 2 sum_k c_k U_k = U_i U_j - U_j U_i."""
    fixed, mats = rmap.fixed, rmap.mats
    return [(i, j) for i, j in combinations(range(fixed.dim), 2)
            if gq_entries([(2 * c, mats[k]) for k, c in fixed.bracket_basis(i, j)])
            != gq_entries([(1, mats[i] * mats[j]), (-1, mats[j] * mats[i])])]


def reference_random_triples(n, count, seed):
    """``count`` triples i < j < k < n, each uniform over the C(n, 3) such
    triples, the sequence determined by ``seed``: the sampled Jacobi scan must
    draw exactly these, in this order.

    A draw is one getrandbits(3 b), b the bits of n - 1, cut into three b-bit
    indices and drawn again unless they are distinct and below n: every
    ordered triple of distinct indices is equally likely, so every unordered
    one, its sorted form, is.
    """
    draw = random.Random(seed).getrandbits
    b = (n - 1).bit_length()
    bits, b2, mask = 3 * b, 2 * b, (1 << b) - 1
    while count:
        x = draw(bits)
        i, j, k = sorted((x & mask, x >> b & mask, x >> b2))
        if i < j < k < n:
            count -= 1
            yield i, j, k


def upper_table(alg):
    """The nonzero brackets [e_i, e_j] with i < j of a sparse Lie algebra,
    read from its flat table, in (i, j) order."""
    n, flat = alg.dim, alg.flat
    return {(i, j): entries for i in range(n) for j in range(i + 1, n)
            if (entries := flat[i * n + j])}


def f2_kernel(rows, ncols):
    """Basis of {x : row . x = 0 for every row}, as bitmasks: for the gram
    rows of a mod-2 space, a basis of the radical of its pairing."""
    reduced = f2_echelon(rows, ncols)
    pivot_cols = {col for col, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for col, row in reduced:
            if (row >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


class ReferenceEchelon(_SparseEchelon):
    """The sparse echelon with Gauss-Jordan back-substitution: the general
    field solver that the representation's two-term systems are checked
    against."""

    def reduced(self):
        """The pivot rows by lead, each reduced to zero at every other pivot
        column.  A pivot row has no entry left of its lead, so clearing the
        larger leads first brings no cleared entry back."""
        reduced = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for other_lead, other in reduced.items():
                if other_lead in row:
                    neg = -row[other_lead]
                    add_terms(row, ((c, neg * v) for c, v in other.items()))
            reduced[lead] = row
        return reduced

    def nullspace(self, ncols):
        """Basis of the solution space of (rows) x = 0, one vector per free
        column, by back-substitution into the reduced rows."""
        reduced = self.reduced()
        basis = []
        for f_col in range(ncols):
            if f_col in reduced:
                continue
            vec = {f_col: ONE}
            for lead, row in reduced.items():
                if f_col in row:
                    vec[lead] = -row[f_col]
            basis.append(vec)
        return basis


def sparse_nullspace(rows, ncols):
    """Basis of the solutions of sparse Gaussian-rational rows, one vector
    per free column."""
    ech = ReferenceEchelon()
    for row in rows:
        ech.insert(row)
    return ech.nullspace(ncols)


def phase_rows(equations):
    """The distinct rows of homogeneous equations sum i**p x_u = 0 with at
    most two terms each; ``sparse_nullspace`` of them is the solution space
    of the equations.

    Each equation becomes, in integers, a normal form with 1 on its lowest
    unknown: two terms on one unknown cancel (opposite phases; the equation
    is dropped) or force x_u = 0; two on distinct unknowns u < v become
    x_u + i**k x_v.  Equal normal forms are unit multiples of each other, so
    each is converted to a Gaussian-rational row once.
    """
    distinct = {}
    for eq in equations:
        if len(eq) > 2:
            raise ValueError("a phase equation has at most two terms")
        if not eq:
            continue
        if len(eq) == 1:
            distinct[(eq[0][0],)] = None
            continue
        (u, p), (v, q) = eq
        if u == v:
            if (p - q) & 3 != 2:
                distinct[(u,)] = None
        elif u < v:
            distinct[(u, v, (q - p) & 3)] = None
        else:
            distinct[(v, u, (p - q) & 3)] = None
    return [{key[0]: ONE} if len(key) == 1
            else {key[0]: ONE, key[1]: POWERS_OF_I[key[2]]} for key in distinct]


# -- the two-term phase solver, and the commutant and invariant-form systems
# it solves: the general references that the character norm and the
# exhibited invariant form are checked against


def phase_nullspace(equations, ncols):
    """Basis of the solutions of homogeneous equations sum i**p x_u = 0 with
    at most two terms each, over the unknowns 0 .. ncols - 1.

    The system is a graph, solved by union-find with path compression and
    potentials in Z/4 (Tarjan, JACM 22, 1975): i**p x_u + i**q x_v = 0 is the
    edge x_v = i**(p - q + 2) x_u.  A component is zero when it holds a
    one-term equation, a self-loop (i**p + i**q) x_u = 0 with p - q != 2
    mod 4, or a cycle whose labels do not sum to 0 mod 4.  Every other one
    gives a basis vector x_u = i**pot(u), scaled to 1 at its largest unknown
    as back-substitution into reduced rows would be, in the order of those
    unknowns; a vector is returned as its phases, {u: pot(u) mod 4}.
    """
    parent = list(range(ncols))
    pot = [0] * ncols               # x_u = i**pot[u] x_parent[u]
    zero = [False] * ncols          # read at roots

    def find(u):
        # climb to the root, then point the path at it with summed labels
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        acc = 0
        for w in reversed(path):
            acc = (acc + pot[w]) & 3
            pot[w], parent[w] = acc, u
        return u

    for eq in equations:
        if len(eq) > 2:
            raise ValueError("a phase equation has at most two terms")
        if len(eq) == 1:
            zero[find(eq[0][0])] = True
        elif eq:
            (u, p), (v, q) = eq
            ru, rv = find(u), find(v)
            d = (p - q + 2 + pot[u] - pot[v]) & 3      # x_rv = i**d x_ru
            if ru != rv:
                parent[rv], pot[rv] = ru, d
                zero[ru] |= zero[rv]
            elif d:                 # an inconsistent cycle or self-loop
                zero[ru] = True

    members = {}
    for u in range(ncols):
        members.setdefault(find(u), []).append(u)
    return [{u: (pot[u] - pot[comp[-1]]) & 3 for u in comp}
            for root, comp in sorted(members.items(), key=lambda item: item[1][-1])
            if not zero[root]]


def form_unknowns(n, sym):
    """The entries (a, b) of a form with B^T = sym * B that are unknowns:
    the upper triangle, strict for sym = -1."""
    return [(a, b) for a in range(n) for b in range(a if sym == 1 else a + 1, n)]


def invariant_form_space(mats, sym):
    """Solve R^T B + B R = 0 over forms with B^T = sym * B.

    Unknowns are the upper-triangle entries (strict for sym = -1); returns a
    basis of the solution space, each vector a dict from unknown index to
    the phase of its entry (the other unknowns are 0).  The equations
    are homogeneous in R, so they are solved on the unit monomials U = 2R
    (``RMap.mats``): each is two phase terms i**p x_u (see
    phase_nullspace).
    """
    n = mats[0].n
    unknowns = form_unknowns(n, sym)
    # B[a, b] = i**p x_u as ref[a, b] = (u, p); absent on the zero diagonal
    # of an antisymmetric form
    ref = {}
    for u, (a, b) in enumerate(unknowns):
        ref[a, b] = (u, 0)
        if a != b:
            ref[b, a] = (u, 0 if sym == 1 else 2)

    def equations():
        for m in mats:
            colinv = [0] * n
            for r, c in enumerate(m.col):
                colinv[c] = r
            for a in range(n):
                k0 = colinv[a]
                for b in range(n):
                    # (R^T B + B R)[a, b] = R[k0, a] B[k0, b] + B[a, k1] R[k1, b]
                    k1 = colinv[b]
                    yield [(t[0], t[1] + m.phase[k])
                           for k, t in ((k0, ref.get((k0, b))), (k1, ref.get((a, k1))))
                           if t is not None]

    return phase_nullspace(equations(), len(unknowns))


def solver_commutant_dimension(rep):
    """Dimension of {B : B M = M B for the generator images M}, solved
    exactly: every entry of M is a power of i, so each equation is two phase
    terms (see phase_nullspace)."""
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

    return len(phase_nullspace(equations(), n * n))


def reference_build_payload(kind):
    """The payload of ``build --type kind`` with every table a nested list,
    as the command built it before its tables rendered themselves."""
    cfg = RunConfig("build")
    cfg.lattice_type = kind
    pipe = build_pipeline(kind)
    lie, cover = pipe.lie, pipe.cocycle
    payload = {
        "config": cfg.stamp(),
        "lattice": pipe.datum.to_json_dict(),
        "cover": {"dim": cover.dim,
                  "beta": [[(row >> j) & 1 for j in range(cover.dim)]
                           for row in cover.upper_rows]},
        "algebra": {"type": pipe.datum.type_name, "dim": lie.dim,
                    "basis": list(lie.labels),
                    "brackets": [[i, j, [[k, c] for k, c in entries]]
                                 for (i, j), entries in upper_table(lie).items()]},
        "theta": [[i, s * (j + 1)]
                  for i, (j, s) in enumerate(map(lie.theta_image, range(lie.dim)))],
        "trace_theta": lie.theta_trace(),
        "dim": lie.dim,
        "fixed_dim": pipe.fixed.dim,
    }
    if pipe.rep is not None:
        payload["rep"] = {"dim_w": pipe.rep.dim_w,
                          "mats": [[[r, c, str(v.re), str(v.im)] for r, c, v in dense_entries(m)]
                                   for m in pipe.rep.mats]}
    return payload


@pytest.fixture(scope="session")
def a2_stack():
    # the pipeline builds a representation only for E6 and E7; A2 gets one here
    pipe = build_pipeline("A2")
    rep = build_heisrep(pipe.cocycle)
    return Pipeline(pipe.datum, pipe.cocycle, pipe.lie, pipe.fixed,
                    rep, RMap(pipe.fixed, rep))


@pytest.fixture(scope="session")
def e6_stack():
    return build_pipeline("E6")


@pytest.fixture(scope="session")
def e7_stack():
    return build_pipeline("E7")


@pytest.fixture(scope="session")
def e6_weyl(e6_stack):
    return lattice.weyl_enumerate(e6_stack.datum)


def weyl_layers(datum):
    """The Weyl group's root permutations by length layer: the exhaustive
    reference that weyl_enumerate's order and involutions are checked
    against.  l(w s_i) = l(w) + 1 exactly when w(alpha_i) > 0 (Humphreys,
    Reflection Groups and Coxeter Groups, 1.6-1.7), so layer k + 1 is
    {w s_i : w in layer k, w(alpha_i) > 0} and no element repeats across
    layers."""
    size = len(datum.roots)
    pad = bytes(range(size, 256))
    positive = set(datum.positive)
    gens = tuple(zip(datum.simple, datum.simple_reflections))
    layer = [bytes(range(size))]
    while layer:
        yield layer
        # a dict keeps each element once, in the order first met
        ascents = {}
        for p in layer:
            table = p + pad
            for si, g in gens:
                if p[si] in positive:
                    ascents[g.translate(table)] = None
        layer = list(ascents)


def weyl_elements(datum):
    """Every element of the Weyl group, layer after layer."""
    return [p for layer in weyl_layers(datum) for p in layer]


@pytest.fixture(scope="session")
def e6_elements(e6_stack):
    """All 51,840 elements of W(E6) as root permutations, in closure order."""
    return weyl_elements(e6_stack.datum)


@pytest.fixture(scope="session")
def e6_classes(e6_stack, e6_weyl):
    return lattice.classify_involutions(e6_stack.datum, e6_weyl)


# -- the integer-matrix route of a Weyl element, the reference that the
# permutation route of src is checked against: the matrix, its reduction mod
# 2 row by row, and the product of bit rows with a vector


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def weyl_matrix(datum, perm):
    """The integer matrix of a root permutation: column j is the image of
    the j-th simple root."""
    images = [datum.roots[perm[si]] for si in datum.simple]
    n = datum.rank
    return tuple(tuple(images[j][i] for j in range(n)) for i in range(n))


def mul_vec(rows, v):
    """The matrix with bit rows ``rows`` times the column vector ``v``."""
    out = 0
    for i, row in enumerate(rows):
        if parity(row & v):
            out |= 1 << i
    return out


def mod2_rank_one_plus(matrix):
    """Rank of (1 + matrix) mod 2."""
    rows = [mod2_bits(row) ^ (1 << i) for i, row in enumerate(matrix)]
    return f2_rank(rows, len(matrix))


def involution_key(datum, perm):
    """(trace, rank of (1 + w) mod 2), two conjugacy invariants, from the
    integer matrix: classify_involutions groups the involutions by the trace
    alone."""
    matrix = weyl_matrix(datum, perm)
    return (sum(matrix[i][i] for i in range(len(matrix))),
            mod2_rank_one_plus(matrix))


@pytest.fixture(scope="session")
def e6_members(e6_weyl):
    """The identity and the E6 involutions, as root permutations grouped by
    involution_key."""
    datum = e6_weyl.datum
    ident = bytes(range(len(datum.roots)))
    groups = {involution_key(datum, ident): [ident]}
    for p in e6_weyl.involutions:
        groups.setdefault(involution_key(datum, p), []).append(p)
    return groups


# -- the general routes that src's closed forms are checked against: sparse
# brackets, the fixed subalgebra bracketed in the ambient algebra, the
# twisted-plane search, the Arf invariant of a symplectic basis and the
# topology columns of the real table


def bracket(alg, x, y):
    """[x, y] for sparse vectors {basis index: coefficient}, by bilinearity
    over the flat table."""
    return add_terms({}, [(k, ci * cj * c) for i, ci in x.items()
                          for j, cj in y.items()
                          for k, c in alg.bracket_basis(i, j)])


def basis_of_root(L, root_index):
    """The basis index of X_gamma for the root of that index."""
    return L.n_cartan + root_index


def theta_apply(L, x):
    """theta(x) for a sparse vector x of L, by linearity over theta_image."""
    terms = []
    for i, c in x.items():
        j, s = L.theta_image(i)
        terms.append((j, s * c))
    return add_terms({}, terms)


def ambient(L, root_index):
    """Z_gamma = X_gamma + theta(X_gamma) as a sparse vector of L."""
    x = {basis_of_root(L, root_index): 1}
    return add_terms(x, theta_apply(L, x).items())


def reference_fixed_table(L):
    """The upper bracket table of the fixed subalgebra, each [Z_a, Z_b]
    bracketed in full in L and read off at the positive roots.  Raises
    LieError when a bracket has a Cartan component, or when it is not fixed
    by theta: its coefficient at theta(X_c) = s_c X_-c is not s_c times its
    coefficient at X_c."""
    nc = L.n_cartan
    pos_index = {ri: i for i, ri in enumerate(L.datum.positive)}
    zs = [ambient(L, ri) for ri in L.datum.positive]
    table = {}
    for i, zi in enumerate(zs):
        for j in range(i + 1, len(zs)):
            res = bracket(L, zi, zs[j])
            entries = {}
            for k, c in res.items():
                if k < nc:
                    raise LieError("fixed-subalgebra bracket has a Cartan component")
                ri = k - nc
                if ri in pos_index:
                    image, sign = L.theta_image(k)
                    if res.get(image, 0) != sign * c:
                        raise LieError("fixed-subalgebra bracket is not theta-symmetric")
                    entries[pos_index[ri]] = c
            if entries:
                table[(i, j)] = tuple(sorted(entries.items()))
    return table


def search_normal_form_pairs(cocycle):
    """normal_form_pairs with each two twisted planes re-split by exhaustive
    search inside their span (possible because the Arf invariant of that
    4-dimensional piece is 0)."""
    pairs, radical = symplectic_decomposition(cocycle)
    q, pairing = cocycle.q, cocycle.pairing
    fixed = []
    twists = []
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


def arf(space):
    """Arf invariant sum q(e_i) q(eps_i) over a computed symplectic basis."""
    if space.dim % 2:
        raise F2Error("odd dimension")
    pairs, radical = symplectic_decomposition(space)
    if radical:
        raise F2Error("degenerate pairing")
    a = 0
    for v, w in pairs:
        a ^= space.q(v) & space.q(w)
    return a


# (n(C), a(C)) of each E6 involution class, as the table carried them before
# it computed them
CARRIED_TOPOLOGY = {
    "1": (4, 0),
    "s1": (3, 1),
    "s1s2": (2, 1),
    "s1s2s3": (1, 1),
    "tau": (2, 0),
}


# -- the root-lift commutation rule, the reference for what src reads from
# the verified multiplication table


class CommReport:
    def __init__(self) -> None:
        self.pairs_checked = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_comm_relation(rep, datum) -> CommReport:
    """Check rho(c(g)) rho(c(d)) = (-1)^<g, d> rho(c(d)) rho(c(g)) on every
    pair g < d of roots, with <g, d> from the lattice form; a failing pair
    is named by its root indices."""
    report = CommReport()
    roots = datum.roots
    rho = [rep.mats[datum.root_classes[i]] for i in range(len(roots))]
    for g, d in combinations(range(len(roots)), 2):
        other = rho[d] * rho[g]
        if rho[g] * rho[d] != (-other if datum.inner(roots[g], roots[d]) % 2 else other):
            report.failures.append((g, d))
        report.pairs_checked += 1
    return report


# -- dense Gaussian-rational matrices, and the 2x2 -> 3x3 map of the converse
# construction, a model for two modules

Dense = Tuple[Tuple[GQ, ...], ...]


def dense_mul(a: Dense, b: Dense) -> Dense:
    n, m = len(a), len(b[0])
    k = len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), ZERO)
                       for j in range(m)) for i in range(n))


def dense_neg(a: Dense) -> Dense:
    return tuple(tuple(-x for x in row) for row in a)


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
