from __future__ import annotations

import dataclasses

import pytest

from rootcover import lattice
from rootcover.cmd_pipeline import build_pipeline
from rootcover.heisrep import build_heisrep
from rootcover.liealg import build_R


@pytest.fixture(scope="session")
def a2_stack():
    # the pipeline builds a representation only for E6 and E7; A2 gets one here
    pipe = build_pipeline("A2")
    rep = build_heisrep(pipe.cocycle, radical=lattice.mod2_space(pipe.datum).radical)
    return dataclasses.replace(pipe, rep=rep, rmap=build_R(pipe.fixed, rep))


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
