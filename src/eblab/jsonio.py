"""JSON and CSV serialization with deterministic, locale-independent formatting.

Operator format (simple window):
    {"k_min": int, "k_max": int, "entries": [[[re, im], ...], ...]}   row-major
Product-window operators replace the flat window fields by
    {"left_window": {...}, "right_window": {...}, "entries": ...}
where each side is either a flat window or another product descriptor.
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
from .measures import ProductMeasure, StateMeasure


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
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise SchemaError(f"cannot serialize value of type {type(obj).__name__}")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _entries_to_json(entries):
    return [[[float(z.real), float(z.imag)] for z in row] for row in entries]


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
    doc["entries"] = _entries_to_json(op.entries)
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


def measure_to_json(measure):
    return {"atoms": [{"w": float(w), "state": operator_to_json(s)}
                      for w, s in measure.atoms]}


def measure_from_json(raw, context="measure"):
    if not isinstance(raw, dict) or not isinstance(raw.get("atoms"), list):
        raise SchemaError(f"{context}: missing 'atoms' array")
    atoms = []
    for n, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "w" not in atom or "state" not in atom:
            raise SchemaError(f"{context}: atom {n} needs 'w' and 'state'")
        atoms.append((float(atom["w"]), state_from_json(atom["state"], f"{context}.atom{n}")))
    return StateMeasure(atoms)


def product_measure_to_json(measure):
    return {"atoms": [{"w": float(w),
                       "left": operator_to_json(l),
                       "right": operator_to_json(r)}
                      for w, l, r in measure.atoms]}


def product_measure_from_json(raw, context="product measure"):
    if not isinstance(raw, dict) or not isinstance(raw.get("atoms"), list):
        raise SchemaError(f"{context}: missing 'atoms' array")
    atoms = []
    for n, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or not {"w", "left", "right"} <= atom.keys():
            raise SchemaError(f"{context}: atom {n} needs 'w', 'left' and 'right'")
        atoms.append((float(atom["w"]),
                      state_from_json(atom["left"], f"{context}.atom{n}.left"),
                      state_from_json(atom["right"], f"{context}.atom{n}.right")))
    return ProductMeasure(atoms)


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
    if not isinstance(raw, dict) or not isinstance(raw.get("atoms"), list):
        raise SchemaError(f"{context}: missing 'atoms' array")
    atoms = []
    for n, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "M" not in atom or "rho_out" not in atom:
            raise SchemaError(f"{context}: atom {n} needs 'M' and 'rho_out'")
        atoms.append((operator_from_json(atom["M"], f"{context}.atom{n}.M"),
                      state_from_json(atom["rho_out"], f"{context}.atom{n}.rho_out")))
    return HolevoForm(atoms)


def csv_text(header, rows):
    """Canonical CSV: header plus rows of floats/ints/bools/strings."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            elif isinstance(value, (float, np.floating)):
                cells.append(format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
