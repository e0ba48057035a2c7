"""JSON and CSV serialization with deterministic, locale-independent formatting.

Operator format (simple window):
    {"k_min": int, "k_max": int, "entries": [[[re, im], ...], ...]}   row-major
Product-window operators replace the flat window fields by
    {"left_window": {...}, "right_window": {...}, "entries": ...}
where each side is either a flat window or another product descriptor.
operator_to_json keeps the entries as the complex array, and dumps writes
such an array a row at a time: a cell whose parts are both +0.0 is the
literal [0,0], and each row's template is cached by its zero pattern, so
the cells that charge conservation zeroes in rho12 cost no formatting.
Floats are written with up to 17 significant digits (lowercase exponent,
"." separator), so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvariantViolationError, SchemaError
from .hilbert import (
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
)
from .channels import ChannelBlocks, HolevoForm


def format_float(value):
    """Canonical decimal text for a float (17 significant digits); NaN and +-inf raise."""
    v = float(value)
    if not math.isfinite(v):
        raise InvariantViolationError(f"refusing to write the non-finite number {v!r}")
    return format(v, ".17g")


def dumps(obj):
    """Serialize nested dicts/lists/scalars to canonical JSON text."""
    pieces = []
    _write(obj, pieces)
    return "".join(pieces)


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
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        _write_complex_rows(obj, pieces)
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


def _write_complex_rows(matrix, pieces):
    """A complex matrix as rows of [re, im] cells, formatting only the cells that need it.

    A cell whose parts are both +0.0 is the literal [0,0]; every other cell,
    a -0.0 part included ("%.17g" % -0.0 is "-0"), goes through
    "[%.17g,%.17g]". Each row's "%" template is built from its zero pattern
    and cached by it: the rows of rho12 that share a charge k1 + k2 share
    one template, and a dense matrix uses a single all-formatted one. Rows
    go straight into pieces, so the matrix text is copied only by the
    final join.
    "%.17g" % v and format_float(v) give the same bytes for every finite
    double, so this writes what a per-cell walk would.
    """
    floats = np.ascontiguousarray(matrix, dtype=complex).view(float)
    bad = floats[~np.isfinite(floats)]
    if bad.size:
        raise InvariantViolationError(f"refusing to write the non-finite number {float(bad[0])!r}")
    templates = {}
    pieces.append("[")
    for n, row in enumerate(floats):
        parts = (row != 0.0) | np.signbit(row)
        written = parts[0::2] | parts[1::2]
        key = written.tobytes()
        template = templates.get(key)
        if template is None:
            template = templates[key] = "[" + ",".join(
                "[%.17g,%.17g]" if w else "[0,0]" for w in written.tolist()) + "]"
        if n:
            pieces.append(",")
        pieces.append(template % tuple(row.reshape(-1, 2)[written].ravel().tolist()))
    pieces.append("]")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
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


def _complex_from_json(cell, context):
    """One [re, im] cell; anything but two finite numbers (bools excluded) is a SchemaError."""
    if isinstance(cell, list) and len(cell) == 2 and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in cell):
        try:
            re_part, im_part = float(cell[0]), float(cell[1])
        except OverflowError:  # an integer literal beyond the float range
            re_part = im_part = math.inf
        if math.isfinite(re_part) and math.isfinite(im_part):
            return complex(re_part, im_part)
    raise SchemaError(f"{context}: each cell must be a [re, im] pair of finite numbers")


def _entries_from_json(raw, context):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{context}: 'entries' must be a non-empty array of rows")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != len(raw):
            raise SchemaError(f"{context}: entries must be square")
        rows.append([_complex_from_json(cell, context) for cell in row])
    return np.array(rows, dtype=complex)


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
    return ModeWindow(raw["k_min"], raw["k_max"])


def operator_to_json(op, extra=None):
    doc = window_to_json(op.window)
    doc["entries"] = op.entries
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
    return MatrixOperator(window, entries)


def state_from_json(raw, context="state"):
    op = operator_from_json(raw, context)
    return StateOperator(op.window, op.entries)


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
    return PureVector(window, [_complex_from_json(cell, context) for cell in raw["amplitudes"]])


def channel_to_json(channel):
    d = channel.in_window.dimension
    return {
        "in": window_to_json(channel.in_window),
        "out": window_to_json(channel.out_window),
        "blocks": [[operator_to_json(channel.block(i, j)) for j in range(d)]
                   for i in range(d)],
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
    blocks = np.empty((d, d, out_window.dimension, out_window.dimension), dtype=complex)
    for i in range(d):
        for j in range(d):
            op = operator_from_json(rows[i][j], f"{context}.blocks[{i}][{j}]")
            if op.window != out_window:
                raise SchemaError(f"{context}: block ({i},{j}) window differs from 'out'")
            blocks[i, j] = op.entries
    return ChannelBlocks(in_window, out_window, blocks)


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
    return HolevoForm(atoms)


def csv_text(header, rows):
    """Canonical CSV: header plus rows of bools/ints/floats/strings, written as dumps would."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(value if isinstance(value, str) else _scalar_text(value)
                              for value in row))
    return "\n".join(lines) + "\n"
