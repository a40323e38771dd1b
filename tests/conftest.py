from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Tuple

import pytest

from rootcover import lattice
from rootcover.cmd_pipeline import Pipeline, build_pipeline
from rootcover.f2 import f2_echelon
from rootcover.gaussian import GQ, I, ONE, ZERO, _SparseEchelon, add_terms, gq
from rootcover.heisrep import HeisRep, build_heisrep
from rootcover.liealg import build_R


def with_mats(rep, mats):
    """``rep`` with its matrices replaced by ``mats``; like any representation
    assembled by hand, it carries no build-time report."""
    return HeisRep(rep.cocycle, rep.dim_w, tuple(mats))


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
    powers = (ONE, I, -ONE, -I)
    return [{key[0]: ONE} if len(key) == 1
            else {key[0]: ONE, key[1]: powers[key[2]]} for key in distinct]


@pytest.fixture(scope="session")
def a2_stack():
    # the pipeline builds a representation only for E6 and E7; A2 gets one here
    pipe = build_pipeline("A2")
    rep = build_heisrep(pipe.cocycle)
    return Pipeline(pipe.datum, pipe.cocycle, pipe.lie, pipe.theta, pipe.fixed,
                    rep, build_R(pipe.fixed, rep))


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


def involution_key(matrix):
    """(trace, rank of (1 + w) mod 2), two conjugacy invariants:
    classify_involutions groups the involutions by the trace alone."""
    return (sum(matrix[i][i] for i in range(len(matrix))),
            lattice.mod2_rank_one_plus(matrix))


@pytest.fixture(scope="session")
def e6_members(e6_weyl):
    """The identity and the E6 involutions, as root permutations grouped by
    involution_key."""
    ident = bytes(range(len(e6_weyl.datum.roots)))
    groups = {involution_key(e6_weyl.matrix(ident)): [ident]}
    for p in e6_weyl.involutions:
        groups.setdefault(involution_key(e6_weyl.matrix(p)), []).append(p)
    return groups


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
    rho = [rep.mats[datum.root_class_bits(i)] for i in range(len(roots))]
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
