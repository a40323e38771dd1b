from __future__ import annotations

import pytest

from rootcover import lattice
from rootcover.cmd_pipeline import Pipeline, build_pipeline
from rootcover.heisrep import HeisRep, build_heisrep
from rootcover.liealg import build_R


def with_mats(rep, mats):
    """``rep`` with its matrices replaced by ``mats``; like any representation
    assembled by hand, it carries no build-time report."""
    return HeisRep(rep.cocycle, rep.dim_w, tuple(mats), rep.pairs, rep.radical,
                   rep.radical_scalars)


@pytest.fixture(scope="session")
def a2_stack():
    # the pipeline builds a representation only for E6 and E7; A2 gets one here
    pipe = build_pipeline("A2")
    rep = build_heisrep(pipe.cocycle, radical=lattice.mod2_space(pipe.datum).radical)
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
