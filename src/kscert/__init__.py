"""kscert: exact verification of Kochen-Specker proofs and mechanical
derivation of the state-independent noncontextuality inequalities they
induce."""

from .exact import ExactMatrix, Scalar, commutes, kron, mat_mul, pauli_matrix
from .model import (
    Observable,
    ObservableSet,
    Ray,
    dichotomize,
    make_observable,
    make_ray,
)
from .compat import (
    OrthogonalityGraph,
    build_orthogonality_graph,
    context_product,
    enumerate_bases,
    validate_context,
)
from .poly import (
    ContextPolynomial,
    Poly,
    eval_assignment,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    normalized_square,
    reduce,
    render,
)
from .assign import (
    BoundResult,
    ProofCertificate,
    classical_max,
    general_unsat,
    ks_colorability,
    parity_certify,
)
from .derive import (
    CompleteSet,
    Inequality,
    PresentedInequality,
    assemble_F,
    build_complete_set_bases_only,
    build_complete_set_general,
    build_complete_set_parity,
    build_complete_set_rays,
    expectation,
    present,
)
from . import catalog, errors

__version__ = "0.1.0"
