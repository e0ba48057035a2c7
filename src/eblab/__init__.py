"""Desk-scale numerics for separable states and entanglement-breaking channels.

Everything lives on truncated Fourier mode windows [-K, K]; quadrature
grids are sized so that periodic rectangle rules are exact for every
trigonometric polynomial the truncation can produce, which turns the
grid versions of all integrals into independent oracles rather than
approximations.

`import eblab` loads only `errors`, which needs no numpy. _HOMES lists every
public name under its home module; the module `__getattr__` below (PEP 562)
imports a name's home, or a submodule, on first access, so numpy loads with
the first numeric name a program touches.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

_HOMES = {
    "errors": (
        "ExtractionInconsistentError", "InvariantViolationError", "SchemaError",
        "WindowMismatchError",
    ),
    "hilbert": (
        "EPS_HERM", "EPS_PSD", "EPS_RANGE", "EPS_SUPPORT", "EPS_TRACE",
        "MatrixOperator", "ModeWindow", "ProductWindow", "PureVector", "StateOperator",
        "basis_vector", "eig_hermitian", "factored_operator", "factored_state",
        "lowest_eigenvalue", "min_eigenvalue", "partial_trace", "partial_transpose",
        "relative_entropy", "shannon_entropy", "tensor", "trace_norm_distance",
        "von_neumann_entropy",
    ),
    "measures": (
        "ProductMeasure", "StateMeasure", "barycenter", "fourier_necessary_check",
        "product_bound_probe", "separable_from_measure",
    ),
    "channels": (
        "ChannelBlocks", "ChoiState", "HolevoForm", "SeparableChoiDecomposition", "apply",
        "apply_matrix", "apply_with_identity", "choi", "cp_check", "eb_extract",
        "eb_necessary_test", "holevo_apply", "holevo_channel", "separable_choi_from_holevo",
    ),
    "rotation": (
        "ProbeSweepRow", "RotationChannel", "apply_closed_form", "apply_quadrature",
        "channel_blocks", "covariance_residual", "decomposability_probe_sweep",
        "factored_channel", "holevo_form", "mu_density", "orbit_state", "phi_profile",
        "rho12", "rho12_n", "rho12_n_distance", "rho12_probe", "rotate_state",
        "rotate_vector", "sweep_maxima",
    ),
    "capacity": (
        "CapacityReport", "InputEnsemble", "ba_optimize", "chi_quantity",
        "closed_form_capacity", "omega", "sup_relative_entropy_check",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name):
    """The submodule or the public name, imported on first access and then bound here."""
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME_OF, *_HOMES})
