"""`import eblab` binds its public names lazily and loads numpy on first use.

The package namespace maps each public name to its home module and imports
that module on first access (PEP 562). SURFACE pins every public name and its
home, so a name dropped from the package fails here, not at a user's first
AttributeError.
"""

import importlib
import json
import subprocess
import sys

import pytest

import eblab

SURFACE = {
    "errors": {
        "ExtractionInconsistentError", "InvariantViolationError", "SchemaError",
        "WindowMismatchError",
    },
    "hilbert": {
        "EPS_HERM", "EPS_PSD", "EPS_RANGE", "EPS_SUPPORT", "EPS_TRACE", "MatrixOperator",
        "ModeWindow", "ProductWindow", "PureVector", "StateOperator", "basis_vector",
        "eig_hermitian", "factored_operator", "factored_state", "lowest_eigenvalue",
        "min_eigenvalue", "partial_trace", "partial_transpose", "relative_entropy",
        "shannon_entropy", "tensor", "trace_norm_distance", "von_neumann_entropy",
    },
    "measures": {
        "ProductMeasure", "StateMeasure", "barycenter", "fourier_necessary_check",
        "product_bound_probe", "separable_from_measure",
    },
    "channels": {
        "ChannelBlocks", "ChoiState", "HolevoForm", "SeparableChoiDecomposition", "apply",
        "apply_matrix", "apply_with_identity", "choi", "cp_check", "eb_extract",
        "eb_necessary_test", "holevo_apply", "holevo_channel", "separable_choi_from_holevo",
    },
    "rotation": {
        "ProbeSweepRow", "RotationChannel", "apply_closed_form", "apply_quadrature",
        "channel_blocks", "covariance_residual", "decomposability_probe_sweep",
        "factored_channel", "holevo_form", "mu_density", "orbit_state", "phi_profile",
        "rho12", "rho12_n", "rho12_n_distance", "rho12_probe", "rotate_state", "rotate_vector",
        "sweep_maxima",
    },
    "capacity": {
        "CapacityReport", "InputEnsemble", "ba_optimize", "chi_quantity",
        "closed_form_capacity", "omega", "sup_relative_entropy_check",
    },
}
PUBLIC = set().union(*SURFACE.values())
NUMERIC = ("hilbert", "measures", "channels", "rotation", "capacity")

COLD = """
import json, sys
import eblab

def loaded():
    return sorted(m for m in ("numpy", *(f"eblab.{n}" for n in %r)) if m in sys.modules)

seen = {"import": loaded(), "bound": sorted(n for n in ("jsonio", "cli") if hasattr(eblab, n))}
eblab.rho12
seen["rho12"] = loaded()
eblab.ba_optimize
seen["ba_optimize"] = loaded()
seen["submodules"] = {n: getattr(eblab, n) is sys.modules["eblab." + n] for n in %r}
print(json.dumps(seen))
""" % (NUMERIC, ("errors", *NUMERIC))


def test_the_surface_is_every_public_name_once():
    assert sum(len(names) for names in SURFACE.values()) == len(PUBLIC) == 73
    assert set(eblab.__all__) == PUBLIC and len(eblab.__all__) == len(PUBLIC)


def test_every_public_name_is_its_home_modules_object_and_is_cached():
    for module, names in SURFACE.items():
        home = importlib.import_module(f"eblab.{module}")
        for name in names:
            assert getattr(eblab, name) is getattr(home, name), name
            assert vars(eblab)[name] is getattr(home, name), name


def test_a_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from eblab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    for module, names in SURFACE.items():
        home = importlib.import_module(f"eblab.{module}")
        assert all(namespace[name] is getattr(home, name) for name in names)


def test_dir_lists_the_surface_and_the_submodules():
    assert PUBLIC | set(SURFACE) <= set(dir(eblab))


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'eblab' has no attribute 'no_such_name'$"):
        eblab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from eblab import no_such_name", {})
    assert not hasattr(eblab, "__wrapped__")


def test_a_bare_import_loads_no_numpy_and_each_name_loads_its_home():
    result = subprocess.run([sys.executable, "-c", COLD], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["import"] == [] and seen["bound"] == []
    chain = ["eblab.channels", "eblab.hilbert", "eblab.measures", "eblab.rotation", "numpy"]
    assert seen["rho12"] == chain
    assert seen["ba_optimize"] == sorted(chain + ["eblab.capacity"])
    assert seen["submodules"] == dict.fromkeys(("errors", *NUMERIC), True)


def test_the_submodules_resolve_from_a_bare_import():
    script = "import eblab; print(sorted(n for n in %r if hasattr(eblab, n)))" % (
        ("errors", *NUMERIC, "jsonio", "cli"),)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{sorted(('errors', *NUMERIC))}\n"
