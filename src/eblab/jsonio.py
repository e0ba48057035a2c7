"""JSON and CSV serialization with deterministic, locale-independent formatting.

Operator format (simple window):
    {"k_min": int, "k_max": int, "entries": [[[re, im], ...], ...]}   row-major
Product-window operators replace the flat window fields by
    {"left_window": {...}, "right_window": {...}, "entries": ...}
where each side is either a flat window or another product descriptor.
operator_to_json keeps the operator itself as "entries", and dumps writes
it through one row assembly: each row's cells that may be nonzero, with
the gaps filled by cached runs of the literal [0,0]. A dense operator (or
a complex array) supplies its written cells; one whose factor is a
SectorFactor, as rotation's are, supplies the cells of its rank-one sector
blocks (hilbert._sector_cells), so rho12 is written with no d^2 x d^2
array and with the bytes of its dense entries. dump_pieces returns the
text as its pieces, which write_pieces writes without joining them.
Floats are written with up to 17 significant digits (lowercase exponent,
"." separator), so identical inputs always produce identical bytes.
Every reader names its context (the CLI passes the file path) in each
refusal: its own SchemaError, and the WindowMismatchError or
InvariantViolationError of the object it builds, re-raised as the same
class.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvariantViolationError, SchemaError, WindowMismatchError
from .hilbert import (
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    _adopt,
    _sector_cells,
)
from .channels import ChannelBlocks, HolevoForm

ZERO_CELL = "[0,0],"


def format_float(value):
    """Canonical decimal text for a float (17 significant digits); NaN and +-inf raise."""
    v = float(value)
    if not math.isfinite(v):
        raise InvariantViolationError(f"refusing to write the non-finite number {v!r}")
    return format(v, ".17g")


def dumps(obj):
    """Serialize nested dicts/lists/scalars to canonical JSON text."""
    return "".join(dump_pieces(obj))


def dump_pieces(obj):
    """The canonical JSON text of obj as its list of pieces, in order; dumps joins them."""
    pieces = []
    _write(obj, pieces)
    return pieces


def _write(obj, pieces):
    if isinstance(obj, dict):
        pieces.append("{")
        for n, (key, value) in enumerate(obj.items()):
            if n:
                pieces.append(",")
            pieces.append(json.dumps(key))
            pieces.append(":")
            _write(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for n, value in enumerate(obj):
            if n:
                pieces.append(",")
            _write(value, pieces)
        pieces.append("]")
    elif isinstance(obj, MatrixOperator):
        _write_operator(obj, pieces)
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        _write_rows(obj.shape, *_dense_cells(obj), pieces)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        pieces.append(_scalar_text(obj))


def _scalar_text(value):
    """A bool, int or float (numpy scalars included) as canonical text, else a SchemaError."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    raise SchemaError(f"cannot serialize value of type {type(value).__name__}")


def _write_operator(op, pieces):
    """An operator's entries as rows of [re, im] cells.

    A SectorFactor (rotation's charge-sector factors) supplies its sector
    blocks, the cells its dense entries are made of; any other operator
    supplies its dense entries.
    """
    x = op.sectors
    if x is not None:
        _write_rows((x.shape[0],) * 2, *_sector_cells(x), pieces)
    else:
        _write(op.entries, pieces)


def _dense_cells(matrix):
    """Row, column and value of each written cell of a complex matrix, row-major."""
    m = np.ascontiguousarray(matrix)
    floats = m.view(float).reshape(m.shape + (2,))
    written = ((floats != 0.0) | np.signbit(floats)).any(axis=2)  # NaN != 0.0, so it is listed
    rows, cols = np.nonzero(written)
    return rows, cols, m[rows, cols]


def _write_rows(shape, rows, cols, values, pieces):
    """Rows of the complex matrix of this shape whose cells are values at (rows, cols), else +0.0.

    The cells come row-major. A cell whose parts are both +0.0 is the
    literal [0,0]; every other cell, a -0.0 part included ("%.17g" % -0.0
    is "-0"), writes both parts with "%.17g". The parts are told apart by
    their bit patterns, which keep -0.0 apart from +0.0, so each distinct
    double is formatted once. The zero cells before a written cell, and
    those that close a row, are one cached string per run length, so a row
    is two pieces per written cell plus its opening and closing pieces,
    and the text of the zero cells is never copied. A non-finite part is
    refused before anything is appended.
    "%.17g" % v and format_float(v) give the same bytes for every finite
    double, so this writes what a per-cell walk would.
    """
    floats = np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2)
    bad = floats[~np.isfinite(floats)]
    if bad.size:
        raise InvariantViolationError(f"refusing to write the non-finite number {float(bad[0])!r}")
    written = ((floats != 0.0) | np.signbit(floats)).any(axis=1)
    rows, cols, floats = rows[written], cols[written], floats[written]
    bits, inverse = np.unique(floats.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    parts = texts[inverse].tolist()
    first = np.diff(rows, prepend=-1) != 0
    skipped = cols - np.where(first, -1, np.roll(cols, 1)) - 1  # zero cells before each cell
    leads, lead = np.unique(2 * skipped + first, return_inverse=True)
    leads = [("" if key % 2 else ",") + ZERO_CELL * (key // 2) for key in leads.tolist()]
    flat = [""] * (2 * len(lead))
    flat[0::2] = [leads[k] for k in lead.tolist()]
    flat[1::2] = ["[" + re_part + "," + im_part + "]"
                  for re_part, im_part in zip(parts[0::2], parts[1::2])]
    height, width = shape
    ends = np.cumsum(np.bincount(rows, minlength=height)).tolist()
    last = np.full(height, -1)
    last[rows] = cols
    closings = {}  # by the number of zero cells after the row's last written one
    start = 0
    pieces.append("[")
    for n, (end, tail) in enumerate(zip(ends, (width - 1 - last).tolist())):
        pieces.append(",[" if n else "[")
        pieces.extend(flat[2 * start:2 * end])
        if tail not in closings:  # a row with no written cell has tail == width
            closings[tail] = ("," if 0 < tail < width else "") + ",".join(["[0,0]"] * tail) + "]"
        pieces.append(closings[tail])
        start = end
    pieces.append("]")


def write_text(path, text):
    write_pieces(path, [text])


def write_pieces(path, pieces):
    """Write the text made of these pieces, ending in a newline, without joining them first.

    A large text (rho12's at K = 40 is 0.26 GB) is then held once, as its
    pieces, and never also as one string and its UTF-8 bytes.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)
        if not pieces or not pieces[-1].endswith("\n"):
            fh.write("\n")


def loads(text, context="JSON text"):
    """Parsed JSON text; text that json cannot parse is a SchemaError naming context.

    That covers malformed text, nesting past the recursion limit and an
    integer literal past Python's digit limit.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError(f"{context}: invalid JSON: nested too deeply") from None
    except ValueError as err:  # JSONDecodeError, or the int digit limit
        raise SchemaError(f"{context}: invalid JSON: {err}") from None


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise SchemaError(f"{path}: not UTF-8 text: {err}") from None
    return loads(text, path)


def _complex_row(row, context):
    """A JSON row of [re, im] cells as a complex vector, in a fixed number of numpy calls.

    A three-part or nested cell, a bool, string or null, an integer past the
    float range, NaN or an infinity fails its shape, type, cast or finiteness check.
    """
    cells = np.array(row, dtype=object)
    if (cells.shape == (len(row), 2) or not row) and set(map(type, cells.flat)) <= {int, float}:
        try:
            values = cells.astype(float)
        except OverflowError:  # an integer literal beyond the float range
            values = np.array(math.inf)
        if np.isfinite(values).all():
            return values.view(complex).ravel()
    raise SchemaError(f"{context}: each cell must be a [re, im] pair of finite numbers")


def _built(context, make, *args):
    """make(*args), its WindowMismatchError or InvariantViolationError re-raised naming context."""
    try:
        return make(*args)
    except (WindowMismatchError, InvariantViolationError) as err:
        raise type(err)(f"{context}: {err}") from None


def _entries_from_json(raw, context):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{context}: 'entries' must be a non-empty array of rows")
    m = np.empty((len(raw),) * 2, dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise SchemaError(f"{context}: entries must be square")
        m[i] = _complex_row(row, context)
    return m


def window_to_json(window):
    if isinstance(window, ProductWindow):
        return {"left_window": window_to_json(window.left),
                "right_window": window_to_json(window.right)}
    return {"k_min": int(window.k_min), "k_max": int(window.k_max)}


def window_from_json(raw, context="window"):
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object")
    if "left_window" in raw or "right_window" in raw:
        if "left_window" not in raw or "right_window" not in raw:
            raise SchemaError(f"{context}: product window needs both sides")
        return ProductWindow(window_from_json(raw["left_window"], context + ".left"),
                             window_from_json(raw["right_window"], context + ".right"))
    for key in ("k_min", "k_max"):
        if key not in raw or not isinstance(raw[key], int) or isinstance(raw[key], bool):
            raise SchemaError(f"{context}: missing integer field {key!r}")
    return _built(context, ModeWindow, raw["k_min"], raw["k_max"])


def operator_to_json(op, extra=None):
    doc = window_to_json(op.window)
    doc["entries"] = op  # dumps writes its entries
    if extra:
        doc.update(extra)
    return doc


def operator_from_json(raw, context="operator"):
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object")
    if "entries" not in raw:
        raise SchemaError(f"{context}: missing 'entries'")
    window = window_from_json(raw, context)
    entries = _entries_from_json(raw["entries"], context)
    return _built(context, _adopt, MatrixOperator, window, entries)


def state_from_json(raw, context="state"):
    op = operator_from_json(raw, context)
    return _built(context, StateOperator, op.window, op.entries)


def pure_vector_to_json(psi):
    doc = window_to_json(psi.window)
    doc["amplitudes"] = [[float(z.real), float(z.imag)] for z in psi.amplitudes]
    return doc


def pure_vector_from_json(raw, context="pure vector"):
    if not isinstance(raw, dict) or "amplitudes" not in raw:
        raise SchemaError(f"{context}: missing 'amplitudes'")
    window = window_from_json(raw, context)
    if not isinstance(raw["amplitudes"], list):
        raise SchemaError(f"{context}: 'amplitudes' must be an array of [re, im] pairs")
    return _built(context, PureVector, window, _complex_row(raw["amplitudes"], context))


def channel_to_json(channel):
    out_window = channel.out_window
    return {
        "in": window_to_json(channel.in_window),
        "out": window_to_json(out_window),
        "blocks": [[operator_to_json(_adopt(MatrixOperator, out_window, block)) for block in row]
                   for row in channel.blocks],
    }


def channel_from_json(raw, context="channel"):
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object")
    for key in ("in", "out", "blocks"):
        if key not in raw:
            raise SchemaError(f"{context}: missing {key!r}")
    in_window = window_from_json(raw["in"], context + ".in")
    out_window = window_from_json(raw["out"], context + ".out")
    rows = raw["blocks"]
    d = in_window.dimension
    if not isinstance(rows, list) or len(rows) != d or any(
            not isinstance(r, list) or len(r) != d for r in rows):
        raise SchemaError(f"{context}: blocks must form a {d} x {d} grid")
    blocks = [[None] * d for _ in range(d)]  # every block read and window-checked, then stacked
    for i in range(d):
        for j in range(d):
            op = operator_from_json(rows[i][j], f"{context}.blocks[{i}][{j}]")
            if op.window != out_window:
                raise SchemaError(f"{context}: block ({i},{j}) window differs from 'out'")
            blocks[i][j] = op.entries
    return _built(context, ChannelBlocks, in_window, out_window, blocks)


def holevo_to_json(form):
    return {"atoms": [{"M": operator_to_json(m_op), "rho_out": operator_to_json(rho_out)}
                      for m_op, rho_out in form.atoms]}


def holevo_from_json(raw, context="holevo form"):
    if not isinstance(raw, dict) or not isinstance(raw.get("atoms"), list) or not raw["atoms"]:
        raise SchemaError(f"{context}: missing or empty 'atoms' array")
    atoms = []
    for n, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "M" not in atom or "rho_out" not in atom:
            raise SchemaError(f"{context}: atom {n} needs 'M' and 'rho_out'")
        atoms.append((operator_from_json(atom["M"], f"{context}.atom{n}.M"),
                      state_from_json(atom["rho_out"], f"{context}.atom{n}.rho_out")))
    return _built(context, HolevoForm, atoms)


def csv_text(header, rows):
    """Canonical CSV: header plus rows of bools/ints/floats/strings, written as dumps would."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(value if isinstance(value, str) else _scalar_text(value)
                              for value in row))
    return "\n".join(lines) + "\n"
