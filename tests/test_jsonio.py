import numpy as np
import pytest

from eblab import (
    HolevoForm,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductMeasure,
    ProductWindow,
    SchemaError,
    StateMeasure,
    StateOperator,
    identity_channel,
    phi_profile,
    rho12,
)
from eblab import jsonio
from conftest import random_density


def test_float_formatting_is_canonical():
    assert jsonio.format_float(0.5) == "0.5"
    assert jsonio.format_float(1e-5) == "1.0000000000000001e-05"
    assert jsonio.format_float(1.0 / 3.0) == "0.33333333333333331"
    assert jsonio.dumps({"a": True, "b": [1, 2.5]}) == '{"a":true,"b":[1,2.5]}'


def test_operator_round_trip(rng):
    w = ModeWindow.symmetric(2)
    rho = StateOperator(w, random_density(rng, 5))
    doc = jsonio.operator_to_json(rho)
    back = jsonio.state_from_json(jsonio.loads(jsonio.dumps(doc)))
    assert back.window == w
    assert np.abs(back.entries - rho.entries).max() < 1e-16


def test_product_window_operator_round_trip(rng):
    w = ProductWindow(ModeWindow.symmetric(1), ModeWindow.symmetric(1))
    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    doc = jsonio.operator_to_json(state)
    back = jsonio.state_from_json(jsonio.loads(jsonio.dumps(doc)))
    assert back.window == w
    assert np.abs(back.entries - state.entries).max() < 1e-16


def test_serialization_is_deterministic(rng):
    w = ModeWindow.symmetric(2)
    rho = StateOperator(w, random_density(rng, 5))
    text1 = jsonio.dumps(jsonio.operator_to_json(rho))
    text2 = jsonio.dumps(jsonio.operator_to_json(
        jsonio.state_from_json(jsonio.loads(text1))))
    assert text1 == text2


def test_pure_vector_round_trip():
    psi = phi_profile("geometric(0.7)", 3)
    back = jsonio.pure_vector_from_json(jsonio.loads(jsonio.dumps(jsonio.pure_vector_to_json(psi))))
    assert back.window == psi.window
    # construction renormalizes, which may cost one ulp
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-15


def test_measure_round_trip(rng):
    w = ModeWindow(0, 1)
    measure = StateMeasure([(0.25, StateOperator(w, random_density(rng, 2))),
                            (0.75, StateOperator(w, random_density(rng, 2)))])
    back = jsonio.measure_from_json(jsonio.loads(jsonio.dumps(jsonio.measure_to_json(measure))))
    for (w1, s1), (w2, s2) in zip(measure.atoms, back.atoms):
        assert abs(w1 - w2) < 1e-16
        assert np.abs(s1.entries - s2.entries).max() < 1e-16


def test_product_measure_round_trip(rng):
    w = ModeWindow(0, 1)
    measure = ProductMeasure([
        (0.5, StateOperator(w, random_density(rng, 2)), StateOperator(w, random_density(rng, 2))),
        (0.5, StateOperator(w, random_density(rng, 2)), StateOperator(w, random_density(rng, 2))),
    ])
    doc = jsonio.product_measure_to_json(measure)
    back = jsonio.product_measure_from_json(jsonio.loads(jsonio.dumps(doc)))
    assert len(back.atoms) == 2


def test_channel_round_trip():
    chan = identity_channel(ModeWindow(0, 2))
    back = jsonio.channel_from_json(jsonio.loads(jsonio.dumps(jsonio.channel_to_json(chan))))
    assert back.in_window == chan.in_window
    assert np.abs(back.blocks - chan.blocks).max() < 1e-16


def test_holevo_round_trip(rng):
    w = ModeWindow(0, 1)
    form = HolevoForm([
        (MatrixOperator(w, np.diag([1.0, 0.0])), StateOperator(w, random_density(rng, 2))),
        (MatrixOperator(w, np.diag([0.0, 1.0])), StateOperator(w, random_density(rng, 2))),
    ])
    back = jsonio.holevo_from_json(jsonio.loads(jsonio.dumps(jsonio.holevo_to_json(form))))
    assert len(back.atoms) == 2


def test_schema_errors_are_informative():
    with pytest.raises(SchemaError):
        jsonio.loads("{broken")
    with pytest.raises(SchemaError):
        jsonio.window_from_json({"k_min": 0})
    with pytest.raises(SchemaError):
        jsonio.operator_from_json({"k_min": 0, "k_max": 1, "entries": [[1, 2], [3, 4]]})
    with pytest.raises(SchemaError):
        jsonio.operator_from_json({"k_min": 0, "k_max": 1,
                                   "entries": [[[1.0, 0.0]], [[0.0, 0.0]]]})


@pytest.mark.parametrize("cell", [
    [True, 0.0], ["1", 0.0], [0.0, None], [1.0], 1.0,
    [float("nan"), 0.0], [0.0, float("inf")], [10 ** 400, 0],
])
def test_non_numeric_or_non_finite_cells_are_schema_errors(cell):
    entries = [[cell, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(SchemaError):
        jsonio.state_from_json({"k_min": 0, "k_max": 1, "entries": entries})
    with pytest.raises(SchemaError):
        jsonio.pure_vector_from_json({"k_min": 0, "k_max": 1, "amplitudes": [cell, [1.0, 0.0]]})


def test_boolean_mode_indices_are_schema_errors():
    with pytest.raises(SchemaError):
        jsonio.window_from_json({"k_min": False, "k_max": True})
    with pytest.raises(SchemaError):
        jsonio.state_from_json({"k_min": False, "k_max": True,
                                "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})


def test_amplitudes_must_be_an_array():
    with pytest.raises(SchemaError):
        jsonio.pure_vector_from_json({"k_min": 0, "k_max": 1, "amplitudes": 3})
    back = jsonio.pure_vector_from_json({"k_min": 0, "k_max": 1, "amplitudes": [[3, 0], [0, 4]]})
    assert np.abs(back.amplitudes - [0.6, 0.8j]).max() < 1e-15


def test_channel_block_rows_must_be_arrays():
    window = {"k_min": 0, "k_max": 1}
    with pytest.raises(SchemaError):
        jsonio.channel_from_json({"in": window, "out": window, "blocks": [1, 2]})


def test_csv_text_formatting():
    text = jsonio.csv_text(["a", "b", "c"], [[1, 0.5, True], [2, 1e-3, False]])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,true"
    assert lines[2].startswith("2,0.001")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_floats_are_never_written(value):
    with pytest.raises(InvariantViolationError):
        jsonio.format_float(value)
    with pytest.raises(InvariantViolationError):
        jsonio.dumps({"x": [1.0, value]})
    with pytest.raises(InvariantViolationError):
        jsonio.csv_text(["a", "b"], [[1, value]])


def test_csv_and_json_share_the_float_text():
    for value in (0.1, 1.0 / 3.0, 1e-300, 2.5e17, -0.0):
        assert jsonio.csv_text(["x"], [[value]]).splitlines()[1] == jsonio.dumps(value)
