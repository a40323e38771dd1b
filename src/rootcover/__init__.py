"""Exact constructions from simply laced root lattices and double covers.

The pipeline: enumerate the roots of an even positive-definite lattice,
reduce mod 2 to a quadratic F2 space, build the double cover whose squares
realize the quadratic form, assemble the integral Lie algebra with its
stable involution and fixed subalgebra, and represent the cover by exact
unit monomial matrices over Z[i].  Side quests: Arf invariant counting,
the blow-up lattice of a degree-2 surface, the real 2-descent orbit table,
and marked plane-quartic normal forms.

The package loads none of its modules: import names from the submodules
(``rootcover.lattice``, ``rootcover.liealg``, ...).
"""

import sys
import time

__version__ = "0.1.0"


def note(line: str) -> None:
    """Write one diagnostic line to stderr, best-effort: stderr carries no
    result, so a failed write there changes neither stdout nor the exit code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def clock(name: str, t0: float, detail: str = "") -> None:
    """Note the time since ``t0`` (``time.perf_counter``) as the stage line
    ``[name] 0.123s``, then ``detail``."""
    note(f"[{name}] {time.perf_counter() - t0:.3f}s{detail}")
