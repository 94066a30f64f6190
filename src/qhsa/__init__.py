"""Exact verification of finite-dimensional Z2-graded quasi-Hopf superalgebras.

Structures are given by structure constants over Q or a cyclotomic field;
every axiom and derived identity is checked as an exact equality of sparse
tensor elements.  See the README for the document format and the CLI.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    apply_map_legs,
    embed_legs,
    invert_structure_map,
    invert_tensor_element,
    multiply_adjacent_legs,
    outer,
    permute_legs,
    tensor_multiply,
)
from .drinfeld import (
    DrinfeldData,
    DrinfeldError,
    compute_drinfeld_twist,
    drinfeld_construction,
    drinfeld_report,
)
from .reporting import CheckEntry, CheckReport
from .scalars import Cyclotomic, FieldSpec, ScalarError, cyclotomic_polynomial
from .structure import (
    QhsaStructure,
    check_antipode_axioms,
    check_eta_lemma,
    check_lemma11,
    check_pentagon_consequences,
    check_qqybe,
    check_quasi_bialgebra,
    check_quasi_triangular,
    check_triangular,
    run_suites,
    validate_algebra,
    validate_structure,
)
from .transforms import (
    Twistor,
    TwistorError,
    check_cocycle,
    check_prop6,
    check_twistor,
    opposite_structure,
    prime_structure,
    tensor_product_structure,
    twist_composition_check,
    twist_structure,
    verify_twist_by_r,
)
