import numpy as np
import pytest

from eblab import (
    HolevoForm,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    SchemaError,
    StateOperator,
    factored_operator,
    phi_profile,
    rho12,
)
from eblab import jsonio
from conftest import identity_channel, random_density, random_pure
from oracles import per_cell_json


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
    for cell in (value, complex(0.0, value)):
        entries = np.eye(3, dtype=complex)
        entries[2, 1] = cell
        with pytest.raises(InvariantViolationError, match="non-finite"):
            jsonio.dumps(jsonio.operator_to_json(MatrixOperator(ModeWindow(0, 2), entries)))


def test_csv_and_json_share_the_float_text():
    for value in (0.1, 1.0 / 3.0, 1e-300, 2.5e17, -0.0):
        assert jsonio.csv_text(["x"], [[value]]).splitlines()[1] == jsonio.dumps(value)


def test_row_writer_matches_the_per_cell_writer(rng):
    w = ModeWindow.symmetric(2)
    docs = [jsonio.operator_to_json(StateOperator(w, random_density(rng, 5)),
                                    extra={"metadata": {"trace": 1.0, "method": "x"}})]
    for _ in range(3):
        phi1 = PureVector(w, random_pure(rng, 5))
        phi2 = PureVector(w, random_pure(rng, 5))
        docs.append(jsonio.operator_to_json(rho12(phi1, phi2)))
    docs.append(jsonio.holevo_to_json(HolevoForm([
        (MatrixOperator(ModeWindow(0, 1), np.eye(2)),
         StateOperator(ModeWindow(0, 1), random_density(rng, 2)))])))
    for doc in docs:
        assert jsonio.dumps(doc) == per_cell_json(doc)


def test_row_writer_matches_the_per_cell_writer_on_edge_values():
    m = np.array([[-0.0, 5e-324, 1e308],
                  [1.0 / 3.0, 2.0, -7.0],
                  [1e16, -1e-300, 123456789.0]])
    entries = np.empty((3, 3), dtype=complex)
    entries.real, entries.imag = m, m[::-1, ::-1]
    entries[1, 1] = complex(2.0, -0.0)
    doc = jsonio.operator_to_json(MatrixOperator(ModeWindow(0, 2), entries))
    text = jsonio.dumps(doc)
    assert text == per_cell_json(doc)
    assert '"entries":[[[-0,123456789],[4.9406564584124654e-324,' in text
    assert ',[2,-0],' in text
    assert np.array_equal(jsonio.operator_from_json(jsonio.loads(text)).entries, entries)


def _doc(entries):
    entries = np.asarray(entries, dtype=complex)
    return jsonio.operator_to_json(MatrixOperator(ModeWindow(0, len(entries) - 1), entries))


def test_row_writer_matches_the_per_cell_writer_on_rho12_at_k10():
    rng = np.random.default_rng(11)
    phi = PureVector(ModeWindow.symmetric(10), rng.normal(size=21) + 1j * rng.normal(size=21))
    doc = jsonio.operator_to_json(rho12(phi, phi))
    text = jsonio.dumps(doc)
    assert text == per_cell_json(doc)
    # charge conservation leaves most cells +0.0, so this exercises the [0,0] literal
    assert text.count("[0,0]") > 0.9 * 21 ** 4


def test_row_writer_formats_every_signed_zero():
    cells = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    entries = np.array([[complex(*c) for c in cells[n:] + cells[:n]] for n in range(4)])
    text = jsonio.dumps(_doc(entries))
    assert text == per_cell_json(_doc(entries))
    assert '"entries":[[[0,-0],[-0,0],[-0,-0],[0,0]],[[-0,0],' in text


@pytest.mark.parametrize("entries", [
    np.zeros((4, 4)),
    np.diag([0.0, 1.0, 0.0]) + np.diag([2j, 0.0], 1),  # an all-zero last row
    [[0.5 - 0.25j]],
    [[0.0]],
    np.random.default_rng(17).normal(size=(17, 17, 2)) @ [1.0, 1j],  # dense
])
def test_row_writer_matches_the_per_cell_writer_on_small_matrices(entries):
    assert jsonio.dumps(_doc(entries)) == per_cell_json(_doc(entries))


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 3), (3, 5), (5, 3)])
def test_row_writer_matches_the_per_cell_writer_on_arrays_of_any_shape(shape):
    rng = np.random.default_rng(sum(shape))
    entries = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.5)
    entries[rng.random(shape) < 0.2] = complex(-0.0, 0.0)
    assert jsonio.dumps({"entries": entries}) == per_cell_json({"entries": entries})


@pytest.mark.parametrize("factor", [np.zeros((3, 0)), np.zeros((3, 2)), np.eye(3)[:, :2] * 0.5,
                                    [[0.6j], [0.0], [0.8]]])
def test_row_writer_writes_one_nonzero_per_row_factors_as_their_entries(factor):
    doc = jsonio.operator_to_json(factored_operator(ModeWindow(0, 2), factor))
    assert jsonio.dumps(doc) == per_cell_json(doc)


@pytest.mark.parametrize("cell", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                  complex(-np.inf, 0.0)])
def test_non_finite_cell_in_a_zero_row_writes_nothing(cell):
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 0] = 1.0
    entries[2, 1] = cell
    pieces = []
    with pytest.raises(InvariantViolationError, match="non-finite"):
        jsonio._write(entries, pieces)
    assert pieces == []
    with pytest.raises(InvariantViolationError, match="non-finite"):
        jsonio.dumps(_doc(entries))


def test_csv_cells_follow_the_json_scalar_rules():
    row = [np.True_, np.False_, True, np.int64(3), np.float32(0.5), 2.5, "x"]
    line = jsonio.csv_text(["c"], [row]).splitlines()[1]
    assert line == ",".join(jsonio.dumps(v) for v in row[:-1]) + ",x"
    assert line == "true,false,true,3,0.5,2.5,x"
    for value in (1 + 0j, np.complex128(1), None, [1.0], np.array([1.0])):
        with pytest.raises(SchemaError, match="cannot serialize"):
            jsonio.csv_text(["a", "b"], [[1, value]])
