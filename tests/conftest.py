from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Tuple

import pytest

from rootcover import lattice
from rootcover.cmd_pipeline import Pipeline, build_pipeline
from rootcover.f2 import f2_echelon
from rootcover.gaussian import GQ, I, ONE, ZERO, gq
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


def weyl_elements(datum):
    """Every element the closure makes, layer after layer: weyl_enumerate
    keeps only the involutions."""
    return [p for layer in lattice.weyl_layers(datum) for p in layer]


@pytest.fixture(scope="session")
def e6_elements(e6_stack):
    """All 51,840 elements of W(E6) as root permutations, in closure order."""
    return weyl_elements(e6_stack.datum)


@pytest.fixture(scope="session")
def e6_classes(e6_stack, e6_weyl):
    return lattice.classify_involutions(e6_stack.datum, e6_weyl)


def involution_key(matrix):
    """(trace, rank of (1 + w) mod 2): the invariants by which
    classify_involutions groups the involutions."""
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
