"""Exact constructions from simply laced root lattices and double covers.

The pipeline: enumerate the roots of an even positive-definite lattice,
reduce mod 2 to a quadratic F2 space, build the double cover whose squares
realize the quadratic form, assemble the integral Lie algebra with its
stable involution and fixed subalgebra, and represent the cover by exact
monomial Gaussian-rational matrices.  Side quests: Arf invariant counting,
the blow-up lattice of a degree-2 surface, the real 2-descent orbit table,
and marked plane-quartic normal forms.
"""

__version__ = "0.1.0"

from .f2 import (BitMatrix, BitVec, F2QuadraticSpace, arf,
                 count_refinements_by_arf, eval_q, h1_z2_dims,
                 standard_symplectic_space, translate_refinement)
from .lattice import (DelPezzoPicard, IntLattice, RootDatum, WeylGroup,
                      WeylInvolutionClass, bitangent_complement, cartan_gram,
                      classify_involutions, delpezzo_k_perp,
                      discriminant_group, enumerate_roots, lines,
                      lines_meeting, mod2_space, root_datum, weyl_enumerate)
from .extension import (Cocycle, ExtAutomorphism, ExtElement, RootLift,
                        build_extension, canonical_root_lift,
                        character_automorphism, transport_automorphism)
from .heisrep import HeisRep, build_heisrep, verify_rep
from .liealg import (FixedSubalgebra, IntegralLieAlgebra, Involution,
                     build_R, build_lie, build_theta, character_adjoint_check,
                     fixed_subalgebra, identify_fixed, killing_form,
                     verify_R, verify_jacobi)
from .grouplift import (pgl2_to_so3, sl2_to_so3_derivative,
                        verify_comm_relation)
from .realtable import TableRow, emit_table, orbit_count_crosscheck, \
    row_for_involution
from .quartic import (E6Params, E7Params, QuarticCurve, e6_family, e7_family,
                      smoothness_probe, tangent_contact_order)
