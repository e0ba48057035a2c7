"""Each library refusal raises its documented type.

These are the guards that the CLI cannot reach: it builds every operand
on the window it checked, so only a library caller can hand a function
a state on the wrong window, a zero grid or an unknown side.
"""

import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    ChoiState,
    HolevoForm,
    InputEnsemble,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductMeasure,
    ProductWindow,
    PureVector,
    RotationChannel,
    StateMeasure,
    StateOperator,
    WindowMismatchError,
    apply_closed_form,
    apply_matrix,
    apply_quadrature,
    apply_with_identity,
    ba_optimize,
    chi_quantity,
    fourier_necessary_check,
    holevo_apply,
    mu_density,
    partial_trace,
    phi_profile,
    product_bound_probe,
    rho12_n,
    rho12_n_distance,
)
from conftest import identity_channel

W1, W2 = ModeWindow(0, 0), ModeWindow(0, 1)  # dimensions 1 and 2
K1 = ModeWindow.symmetric(1)


def mixed(window):
    return StateOperator.maximally_mixed(window)


def unit(window):
    return PureVector(window, np.ones(window.dimension))


def channel():
    return RotationChannel(phi_profile("two-mode", 1))


def form():
    """The one-atom form on [0, 0]: measure the identity, prepare the only state."""
    return HolevoForm([(MatrixOperator(W1, np.eye(1)), mixed(W1))])


REFUSALS = [
    # capacity
    ("chi_quantity_window", WindowMismatchError,
     lambda: chi_quantity(channel(), InputEnsemble([(1.0, mixed(W2))]))),
    ("ba_optimize_zero_grid", InvariantViolationError, lambda: ba_optimize(channel(), 0)),
    # channels
    ("blocks_shape", InvariantViolationError, lambda: ChannelBlocks(W2, W2, np.zeros((2, 2, 2)))),
    ("apply_matrix_window", WindowMismatchError,
     lambda: apply_matrix(identity_channel(W2), MatrixOperator(K1, np.eye(3)))),
    ("holevo_form_empty", InvariantViolationError, lambda: HolevoForm([])),
    ("holevo_apply_window", WindowMismatchError, lambda: holevo_apply(form(), mixed(W2))),
    ("choi_reference_window", WindowMismatchError,
     lambda: ChoiState(identity_channel(W2), mixed(K1))),
    ("apply_with_identity_not_product", WindowMismatchError,
     lambda: apply_with_identity(identity_channel(W2), mixed(W2))),
    # hilbert
    ("window_fractional_mode", WindowMismatchError, lambda: ModeWindow(0.5, 1)),
    ("window_negative_half_width", WindowMismatchError, lambda: ModeWindow.symmetric(-1)),
    ("operator_not_square", InvariantViolationError,
     lambda: MatrixOperator(W2, np.ones((2, 3)))),
    ("operator_window", WindowMismatchError, lambda: MatrixOperator(W2, np.eye(3))),
    ("state_not_square", InvariantViolationError, lambda: StateOperator(K1, np.ones(3))),
    ("pure_vector_length", WindowMismatchError, lambda: PureVector(W2, [1.0, 0.0, 0.0])),
    ("partial_trace_side", ValueError,
     lambda: partial_trace(mixed(ProductWindow(W2, W2)), "third")),
    # measures
    ("state_measure_windows", WindowMismatchError,
     lambda: StateMeasure([(0.5, mixed(W1)), (0.5, mixed(W2))])),
    ("product_measure_left_windows", WindowMismatchError,
     lambda: ProductMeasure([(0.5, mixed(W1), mixed(W2)), (0.5, mixed(W2), mixed(W2))])),
    ("product_measure_right_windows", WindowMismatchError,
     lambda: ProductMeasure([(0.5, mixed(W2), mixed(W1)), (0.5, mixed(W2), mixed(W2))])),
    ("probe_not_product", WindowMismatchError,
     lambda: product_bound_probe(mixed(W2), unit(W2), unit(W2))),
    ("probe_candidate_window", WindowMismatchError,
     lambda: product_bound_probe(mixed(ProductWindow(W2, W2)), unit(K1), unit(W2))),
    ("fourier_check_windows", WindowMismatchError,
     lambda: fourier_necessary_check(unit(W2), PureVector(ModeWindow(1, 2), [1.0, 1.0]))),
    ("fourier_check_lengths", WindowMismatchError,
     lambda: fourier_necessary_check(np.ones(2), np.ones(3))),
    # rotation
    ("mu_density_window", WindowMismatchError, lambda: mu_density(channel(), mixed(W2))),
    ("closed_form_window", WindowMismatchError, lambda: apply_closed_form(channel(), mixed(W2))),
    ("quadrature_window", WindowMismatchError, lambda: apply_quadrature(channel(), mixed(W2))),
    ("rho12_n_zero", InvariantViolationError,
     lambda: rho12_n(unit(K1), unit(K1), 0)),
    ("rho12_n_distance_no_sector_factor", InvariantViolationError,
     lambda: rho12_n_distance(mixed(ProductWindow(K1, K1)), 1)),
]


@pytest.mark.parametrize("error, call", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_library_refusal_raises_its_documented_type(error, call):
    with pytest.raises(error):
        call()


def test_partial_trace_of_a_non_state_stays_an_operator():
    op = MatrixOperator(ProductWindow(W2, K1), np.arange(36.0).reshape(6, 6))
    reduced = partial_trace(op, "first")
    assert type(reduced) is MatrixOperator and reduced.window == K1
    assert np.array_equal(reduced.entries, np.arange(36.0).reshape(2, 3, 2, 3).trace(axis1=0, axis2=2))
