"""Exact-arithmetic spin double covers of the spatial and spacetime
symmetry groups, with finite double-group tooling.

Matrices work over Gaussian rationals, so covering-map identities, kernel
statements and multiplication tables are verified by exact equality.  The
finite double groups, whose matrix entries are irrational, are built as
monomial matrices with 4n-th roots of unity stored as integer exponents, so
they are exact too.
"""

from .cover import (
    HALF_TURN_Y,
    IDENTITY2,
    IDENTITY3,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPACE_INVERSION,
    OrthogonalMat3,
    UnitaryMat2,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
    quaternion_to_su2,
    rational_unit_quaternion,
    su2_from_zw,
)
from .groups import (
    FiniteGroup,
    IsomorphismWitness,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    double_group,
    double_group_verdict,
    find_isomorphism,
    generate_closure,
    spacetime_pt_group,
    spinor_pt_group,
    verify_isomorphism,
)
from .ptgroup import (
    Event,
    RayPoint,
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorSymmetry,
    SpinorValue,
    apply_symmetry,
    composition_defect,
    pt_symmetries,
    ray_project,
    spacetime_projection,
    time_reversal_operator,
)
from .scalars import GaussianRational
from .semidirect import (
    SemidirectElement,
    compose,
    from_unitary,
    project_to_o3,
    to_unitary,
    twist_automorphism,
)
from .verify import check_exact_sequence

__version__ = "0.1.0"
