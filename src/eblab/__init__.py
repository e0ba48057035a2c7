"""Desk-scale numerics for separable states and entanglement-breaking channels.

Everything lives on truncated Fourier mode windows [-K, K]; quadrature
grids are sized so that periodic rectangle rules are exact for every
trigonometric polynomial the truncation can produce, which turns the
grid versions of all integrals into independent oracles rather than
approximations.
"""

from .errors import (
    ExtractionInconsistentError,
    InvariantViolationError,
    SchemaError,
    WindowMismatchError,
)
from .hilbert import (
    EPS_HERM,
    EPS_PSD,
    EPS_RANGE,
    EPS_SUPPORT,
    EPS_TRACE,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    basis_vector,
    eig_hermitian,
    factored_operator,
    factored_state,
    lowest_eigenvalue,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    relative_entropy,
    shannon_entropy,
    tensor,
    trace_norm_distance,
    von_neumann_entropy,
)
from .measures import (
    ProductMeasure,
    StateMeasure,
    barycenter,
    fourier_necessary_check,
    product_bound_probe,
    separable_from_measure,
)
from .channels import (
    ChannelBlocks,
    ChoiState,
    HolevoForm,
    SeparableChoiDecomposition,
    apply,
    apply_matrix,
    apply_with_identity,
    choi,
    cp_check,
    eb_extract,
    eb_necessary_test,
    holevo_apply,
    holevo_channel,
    separable_choi_from_holevo,
)
from .rotation import (
    ProbeSweepRow,
    RotationChannel,
    apply_closed_form,
    apply_quadrature,
    channel_blocks,
    covariance_residual,
    decomposability_probe_sweep,
    factored_channel,
    holevo_form,
    mu_density,
    orbit_state,
    phi_profile,
    rho12,
    rho12_n,
    rho12_n_distance,
    rho12_probe,
    rotate_state,
    rotate_vector,
    sweep_maxima,
)
from .capacity import (
    CapacityReport,
    InputEnsemble,
    ba_optimize,
    chi_quantity,
    closed_form_capacity,
    omega,
    sup_relative_entropy_check,
)

__version__ = "0.1.0"
