"""The JSON readers refuse each malformed table with one class and message, and read the rest exactly.

Every table of [re, im] cells (a state's entries, a channel block, a Holevo
atom, a pure vector's amplitudes) is read one row at a time. The first
table pins the class and the full message of each refusal through the four
public readers; a file with two faults reports the fault the reader meets
first, row by row. The second compares what the readers build with the
per-cell oracle, bit for bit, on seeded tables of ints, signed zeros,
subnormals and numbers at the double range's edge.
"""

import json

import numpy as np
import pytest

from eblab import MatrixOperator, ModeWindow, PureVector, SchemaError, WindowMismatchError
from eblab import jsonio
from conftest import same_bits
from oracles import json_cell

PAIR = '{"k_min":0,"k_max":1'
STATE = PAIR + ',"entries":[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]}'
CELL = "each cell must be a [re, im] pair of finite numbers"
SQUARE = "entries must be square"
HUGE = "1" + "0" * 400  # an integer literal past the float range

# (id, entries of a 2 x 2 table, the refusal's message after its context)
TABLES = [
    ("non-list row", '[5,[[0.5,0],[0,0]]]', SQUARE),
    ("ragged row", '[[[0.5,0],[0,0]],[[0,0],[0.5,0],[0,0]]]', SQUARE),
    ("short row", '[[[0.5,0],[0,0]],[[0.5,0]]]', SQUARE),
    ("three-part cell", '[[[0.5,0,0],[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("nested cell", '[[[[0.5],0],[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("non-list cell", '[[0.5,[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("true", '[[[true,0],[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("string", '[[["0.5",0],[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("null", '[[[0.5,0],[0,null]],[[0,0],[0.5,0]]]', CELL),
    ("NaN", '[[[0.5,0],[0,0]],[[0,NaN],[0.5,0]]]', CELL),
    ("Infinity", '[[[0.5,0],[0,0]],[[0,0],[-Infinity,0]]]', CELL),
    ("over-range integer", f'[[[{HUGE},0],[0,0]],[[0,0],[0.5,0]]]', CELL),
    ("bad cell before a short row", '[[[true,0],[0,0]],[[0.5,0]]]', CELL),
    ("short row before a bad cell", '[[[0.5,0],[0,0]],[[0.5,0]],[[true,0],[0,0]]]', SQUARE),
]

# (id, amplitudes of a 2-vector, refusal class, message after the context)
AMPLITUDES = [
    ("non-list amplitudes", "5", SchemaError, "'amplitudes' must be an array of [re, im] pairs"),
    ("short amplitudes", "[[1,0]]", WindowMismatchError,
     "amplitude length 1 does not match window dimension 2"),
    ("empty amplitudes", "[]", WindowMismatchError,
     "amplitude length 0 does not match window dimension 2"),
    ("three-part cell", "[[1,0,0],[0,1]]", SchemaError, CELL),
    ("nested cell", "[[[1],0],[0,1]]", SchemaError, CELL),
    ("non-list cell", "[5,[0,1]]", SchemaError, CELL),
    ("true", "[[1,0],[true,1]]", SchemaError, CELL),
    ("string", '[[1,"0"],[0,1]]', SchemaError, CELL),
    ("null", "[[1,0],[0,null]]", SchemaError, CELL),
    ("NaN", "[[NaN,0],[0,1]]", SchemaError, CELL),
    ("Infinity", "[[1,Infinity],[0,1]]", SchemaError, CELL),
    ("over-range integer", f"[[1,0],[-{HUGE},1]]", SchemaError, CELL),
    ("bad cell in a short list", "[[true,0]]", SchemaError, CELL),
]


def _refusal(read, text):
    with pytest.raises(Exception) as info:
        read(jsonio.loads(text))
    return type(info.value), str(info.value)


def _table_cases():
    channel = ('{"in":{"k_min":0,"k_max":0},"out":{"k_min":0,"k_max":1},"blocks":[['
               + PAIR + ',"entries":%s}]]}')
    holevo = '{"atoms":[{"M":' + PAIR + ',"entries":%s},"rho_out":' + STATE + '}]}'
    readers = [("state", jsonio.state_from_json, PAIR + ',"entries":%s}', "state"),
               ("channel", jsonio.channel_from_json, channel, "channel.blocks[0][0]"),
               ("holevo", jsonio.holevo_from_json, holevo, "holevo form.atom0.M")]
    return [pytest.param(read, template % entries, SchemaError, f"{context}: {message}",
                         id=f"{name}-{case}")
            for name, read, template, context in readers for case, entries, message in TABLES]


def _vector_cases():
    return [pytest.param(jsonio.pure_vector_from_json, PAIR + ',"amplitudes":%s}' % amplitudes,
                         cls, f"pure vector: {message}", id=f"vector-{case}")
            for case, amplitudes, cls, message in AMPLITUDES]


@pytest.mark.parametrize("read, text, cls, message", _table_cases() + _vector_cases())
def test_each_malformed_table_is_refused_with_its_class_and_message(read, text, cls, message):
    assert _refusal(read, text) == (cls, message)


def test_the_well_formed_tables_of_the_refusal_table_read():
    state = jsonio.state_from_json(jsonio.loads(STATE))
    assert same_bits(state.entries, np.diag([0.5, 0.5]).astype(complex))
    vector = jsonio.pure_vector_from_json(jsonio.loads(PAIR + ',"amplitudes":[[3,0],[0,4]]}'))
    assert np.abs(vector.amplitudes - [0.6, 0.8j]).max() < 1e-15


EDGES = [0, 1, -1, 7, 2 ** 53 + 1, -(2 ** 63), 10 ** 300, -(10 ** 308), 0.0, -0.0, 5e-324,
         -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1, -1.0 / 3.0]


def _seeded_cells(rng, count):
    """count [re, im] cells, each part an edge value or a normal draw, ints kept as ints."""
    picks = rng.integers(0, len(EDGES) + 1, size=(count, 2))
    draws = rng.normal(size=(count, 2))
    return [[EDGES[p] if p < len(EDGES) else float(x) for p, x in zip(pair, row)]
            for pair, row in zip(picks.tolist(), draws.tolist())]


@pytest.mark.parametrize("seed, d", [(0, 1), (1, 2), (2, 5), (3, 17)])
def test_the_reader_matches_the_per_cell_oracle_bit_for_bit(seed, d):
    rng = np.random.default_rng(seed)
    window = ModeWindow(0, d - 1)
    rows = [_seeded_cells(rng, d) for _ in range(d)]
    text = json.dumps({"k_min": 0, "k_max": d - 1, "entries": rows})
    read = jsonio.operator_from_json(jsonio.loads(text))
    expected = np.array([[json_cell(cell) for cell in row] for row in rows], dtype=complex)
    assert type(read) is MatrixOperator and read.window == window
    assert same_bits(read.entries, expected)
    cells = _seeded_cells(rng, d)
    text = json.dumps({"k_min": 0, "k_max": d - 1, "amplitudes": cells})
    vector = jsonio.pure_vector_from_json(jsonio.loads(text))
    assert same_bits(vector.amplitudes, PureVector(window, [json_cell(c) for c in cells]).amplitudes)


@pytest.mark.parametrize("seed", range(6))
def test_the_reader_refuses_a_table_exactly_when_the_oracle_refuses_a_cell(seed):
    rng = np.random.default_rng(100 + seed)
    bad = [True, False, None, "1", [1.0], float("nan"), float("-inf"), 10 ** 400, -(10 ** 400)]
    rows = [_seeded_cells(rng, 3) for _ in range(3)]
    for _ in range(rng.integers(0, 3)):
        i, j, part = rng.integers(0, 3), rng.integers(0, 3), rng.integers(0, 2)
        rows[i][j][part] = bad[rng.integers(0, len(bad))]
    refused = any(json_cell(cell) is None for row in rows for cell in row)
    doc = {"k_min": 0, "k_max": 2, "entries": rows}
    if refused:
        with pytest.raises(SchemaError, match=r"^operator: each cell must be"):
            jsonio.operator_from_json(doc)
    else:
        assert same_bits(jsonio.operator_from_json(doc).entries,
                         np.array([[json_cell(c) for c in row] for row in rows]))
