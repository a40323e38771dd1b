from __future__ import annotations

from fractions import Fraction

import pytest

from rootcover import lattice
from rootcover.cmd_pipeline import Pipeline, build_pipeline
from rootcover.f2 import f2_echelon
from rootcover.gaussian import Dense, I, ONE, gq
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
    for p in e6_weyl.involutions():
        groups.setdefault(involution_key(e6_weyl.matrix(p)), []).append(p)
    return groups


# -- the 2x2 -> 3x3 map of the converse construction, a model for two modules


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
