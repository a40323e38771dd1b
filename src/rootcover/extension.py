"""The double cover of V by {+-1} whose squares realize the quadratic form.

The group is pairs (sign, v) multiplied through an explicit bilinear
cocycle beta: upper-triangular bit rows whose diagonal carries the
refinement values on the basis and whose strict upper part carries the
pairing.  Then (s, v)(t, w) = (st * (-1)^beta(v, w), v + w), every element
squares to ((-1)^q(v), 0), and commutators descend to (-1)^<v, w>.  Those
rows are f2.F2QuadraticSpace.upper_rows, so the quadratic space is the
cocycle (its ``beta``), and no command imports this module.
"""

# perfbench/tracer.py imports this module and counts the calls of Cocycle.beta
from .f2 import F2QuadraticSpace as Cocycle  # noqa: F401
