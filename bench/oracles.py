"""Output checks for the benchmark, written with numpy alone.

Nothing here imports eblab: each check rebuilds the expected numbers from
the definitions (selection rules, sector ranges, grid averages, Shannon
entropy), so a defect in the package cannot hide behind a shared code
path. Every check takes the bytes of the files one CLI call wrote and
returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

# The package's own slacks, restated so the checks stay independent of it.
EPS_PSD = 1e-10
EXTRACT_TOL = 1e-8

RANGE_TOL = 1e-9  # relative residual above which a candidate lies outside a sector's range


def modes(half_width):
    return np.arange(-half_width, half_width + 1)


def normalized(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def geometric(half_width, ratio):
    return normalized(ratio ** np.abs(modes(half_width)).astype(float))


def basis(half_width, k):
    v = np.zeros(2 * half_width + 1, dtype=complex)
    v[k + half_width] = 1.0
    return v


def two_mode(half_width):
    return normalized(basis(half_width, 0) + basis(half_width, 1))


def operator_entries(doc):
    """Complex matrix from the program's [[[re, im], ...], ...] entries."""
    pairs = np.asarray(doc["entries"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def operator_json(matrix, half_width):
    return {"k_min": -half_width, "k_max": half_width,
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}


def _is_number(value):
    # Canonical JSON writes 1.0 as "1", so a float field may load as an int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_json(data, errors):
    try:
        return json.loads(data)
    except ValueError as err:
        errors.append(f"output is not JSON: {err}")
        return None


def _load_csv(data, header, errors):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != header:
        errors.append(f"CSV header {rows[:1]} differs from {header}")
        return []
    return rows[1:]


# ---- selection-rule oracles -------------------------------------------------

def rho12(phi1, phi2, half_width):
    """Orbit average of |phi1 phi2><phi1 phi2|, assembled sector by sector.

    The full rotation orbit keeps exactly the entries whose total charges
    k1 + k2 and l1 + l2 agree, so the state is a direct sum of the rank-one
    blocks |v_s><v_s| with v_s the product vector restricted to k1 + k2 = s.
    """
    charge = np.add.outer(modes(half_width), modes(half_width)).ravel()
    v = np.kron(phi1, phi2)
    out = np.zeros((v.size, v.size), dtype=complex)
    for s in np.unique(charge):
        idx = np.flatnonzero(charge == s)
        out[np.ix_(idx, idx)] = np.outer(v[idx], v[idx].conj())
    return out


def domination_bound(phi1, phi2, alpha, beta, half_width):
    """Exact largest eps with rho12 - eps |ab><ab| >= 0 (Lewenstein-Sanpera).

    The bound is 1 / <w|rho^+|w> when w = alpha x beta lies in the range of
    rho12 and 0 otherwise. rho12 is rank one per charge sector, so the
    pseudo-inverse and the range test both act sector by sector.
    """
    charge = np.add.outer(modes(half_width), modes(half_width)).ravel()
    v = np.kron(phi1, phi2)
    w = np.kron(alpha, beta)
    total = 0.0
    for s in np.unique(charge):
        idx = charge == s
        vs, ws = v[idx], w[idx]
        weight = float(np.vdot(vs, vs).real)
        overlap = np.vdot(vs, ws)
        residual = np.linalg.norm(ws - (overlap / weight) * vs) if weight > 0 else np.linalg.norm(ws)
        if residual > RANGE_TOL * max(1.0, float(np.linalg.norm(ws))):
            return 0.0
        if weight > 0:
            total += abs(overlap) ** 2 / weight ** 2
    return 1.0 / total if total > 0 else 0.0


def diagonal_sum_apply(phi, rho):
    """Phi(rho)_{kl} = phi_k conj(phi_l) sum_{i - j = k - l} rho_ij."""
    d = rho.shape[0]
    i, j = np.indices((d, d))
    sums = np.zeros(2 * d - 1, dtype=complex)
    np.add.at(sums, (i - j).ravel() + d - 1, rho.ravel())
    return np.outer(phi, phi.conj()) * sums[(i - j) + d - 1]


def rho12_n_distance(phi, half_width, n):
    """Trace distance from the partial-orbit average over [0, 2pi/n) to the product.

    The grid has ceil(max(4K + 1, 32) / n) nodes, the program's documented
    rule; the rotation phase of |k1 k2> is e^{ix(k1 + k2)}.
    """
    nodes = math.ceil(max(4 * half_width + 1, 32) / n)
    xs = (2.0 * np.pi / n) * np.arange(nodes) / nodes
    charge = np.add.outer(modes(half_width), modes(half_width)).ravel()
    v = np.kron(phi, phi)
    orbit = np.exp(1j * np.outer(charge, xs)) * v[:, None]
    diff = orbit @ orbit.conj().T / nodes - np.outer(v, v.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def shannon_nats(phi):
    p = np.abs(phi) ** 2
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


# ---- checks, one per kind of CLI call ---------------------------------------

def check_eb_report(files, name):
    errors = []
    report = _load_json(files[name], errors)
    if report is None:
        return errors
    if report.get("cp") is not True:
        errors.append(f"cp is {report.get('cp')!r}, expected true")
    if report.get("ppt") is not True:
        errors.append(f"ppt is {report.get('ppt')!r}, expected true")
    for key in ("min_eig_stacked", "min_eig_pt"):
        value = report.get(key)
        if not _is_number(value) or not value >= -EPS_PSD:
            errors.append(f"{key} = {value!r} is below -{EPS_PSD}")
    residual = report.get("extraction_residual")
    if not _is_number(residual) or not 0.0 <= residual <= EXTRACT_TOL:
        errors.append(f"extraction_residual = {residual!r} exceeds {EXTRACT_TOL}")
    return errors


def check_operator(files, name, expected, half_width, tol):
    """The file holds an operator on [-K, K] (or its square) equal to expected."""
    errors = []
    doc = _load_json(files[name], errors)
    if doc is None:
        return errors
    window = {"k_min": -half_width, "k_max": half_width}
    if "left_window" in doc:
        if doc["left_window"] != window or doc["right_window"] != window:
            errors.append(f"windows {doc['left_window']}, {doc['right_window']} differ from {window}")
    elif {k: doc.get(k) for k in window} != window:
        errors.append(f"window {doc.get('k_min')}..{doc.get('k_max')} differs from {window}")
    if "metadata" in doc:
        trace = doc["metadata"].get("trace")
        if not _is_number(trace) or not abs(trace - 1.0) <= 1e-10:
            errors.append(f"metadata trace {trace!r} differs from 1")
    entries = operator_entries(doc)
    if entries.shape != expected.shape:
        return errors + [f"entries shape {entries.shape} differs from {expected.shape}"]
    deviation = float(np.abs(entries - expected).max())
    if not deviation <= tol:
        errors.append(f"entries deviate from the oracle by {deviation:.3e} > {tol}")
    return errors


def check_n_sweep(files, name, phi, half_width, sweep):
    errors = []
    rows = _load_csv(files[name], ["n", "trace_distance_to_product"], errors)
    if [int(r[0]) for r in rows] != list(sweep):
        return errors + [f"n-sweep rows {[r[0] for r in rows]} differ from {list(sweep)}"]
    for n_text, value in rows:
        expected = rho12_n_distance(phi, half_width, int(n_text))
        if not abs(float(value) - expected) <= 1e-9:
            errors.append(f"n={n_text}: distance {value} differs from the grid average {expected!r}")
    return errors


def probe_table(files, name, phi, half_widths, candidates, errors):
    """(K, candidate id, eps, exact bound, candidate vector) for each requested row.

    candidates are (profile, vector(K), closed-form bound(K)) triples, each
    probed as the pair profile x profile. The sector oracle's bound must
    agree with the closed form, so neither can drift unnoticed.
    """
    rows = _load_csv(files[name], ["K", "candidate_id", "eps_max"], errors)
    wanted = [(k, f"{spec}|{spec}") for k in half_widths for spec, _, _ in candidates]
    if [(int(r[0]), r[1]) for r in rows] != wanted:
        errors.append(f"probe rows {[tuple(r[:2]) for r in rows]} differ from {wanted}")
        return []
    table = []
    for row, (k, cand), (_, vector, closed) in zip(
            rows, wanted, [c for _ in half_widths for c in candidates]):
        alpha = vector(k)
        exact = domination_bound(phi(k), phi(k), alpha, alpha, k)
        if abs(exact - closed(k)) > 1e-12:
            errors.append(f"K={k} {cand}: sector oracle {exact!r} disagrees with {closed(k)!r}")
        table.append((k, cand, float(row[2]), exact, alpha))
    return table


def check_probe(files, name, phi, half_widths, candidates):
    errors = []
    maxima = {}
    for k, cand, eps, exact, alpha in probe_table(files, name, phi, half_widths, candidates, errors):
        if not eps >= exact - 1e-9:
            errors.append(f"K={k} {cand}: eps {eps!r} is below the exact bound {exact!r}")
        w = np.kron(alpha, alpha)
        low = float(np.linalg.eigvalsh(rho12(phi(k), phi(k), k) - eps * np.outer(w, w.conj()))[0])
        if not low >= -EPS_PSD - 1e-12:
            errors.append(f"K={k} {cand}: rho12 - eps P has eigenvalue {low:.3e}, eps infeasible")
        maxima[k] = max(maxima.get(k, 0.0), eps)
    ordered = [maxima[k] for k in sorted(maxima)]
    if any(b > a for a, b in zip(ordered, ordered[1:])):
        errors.append(f"per-K maxima {ordered} increase with K")
    return errors


def probe_excess(files, name, phi, half_widths, candidates):
    """max |eps - exact bound| over the probe rows (0 when the rows are unusable)."""
    table = probe_table(files, name, phi, half_widths, candidates, [])
    return max((abs(eps - exact) for _, _, eps, exact, _ in table), default=0.0)


def check_capacity(files, name, phi, half_widths, grids):
    errors = []
    header = ["K", "n", "closed_form_nats", "optimizer_nats", "gap", "iterations", "converged",
              "closed_form_bits", "optimizer_bits"]
    rows = _load_csv(files[name], header, errors)
    wanted = [(k, n) for k in half_widths for n in grids]
    if [(int(r[0]), int(r[1])) for r in rows] != wanted:
        return errors + [f"capacity rows differ from {wanted}"]
    for row in rows:
        k, n = int(row[0]), int(row[1])
        closed, optimizer, gap = (float(x) for x in row[2:5])
        expected = shannon_nats(phi(k))
        if not abs(closed - expected) <= 1e-12:
            errors.append(f"K={k} n={n}: closed form {closed!r} differs from H(|phi|^2) {expected!r}")
        if not abs(gap - (closed - optimizer)) <= 1e-12:
            errors.append(f"K={k} n={n}: gap {gap!r} is not closed - optimizer")
        if n >= 2 * k + 1 and not abs(gap) <= 1e-9:
            errors.append(f"K={k} n={n}: |gap| {gap!r} exceeds 1e-9 on a grid >= 2K+1")
        for nats, bits in ((closed, row[7]), (optimizer, row[8])):
            if not abs(float(bits) - nats / math.log(2.0)) <= 1e-12:
                errors.append(f"K={k} n={n}: bits column {bits} differs from nats / ln 2")
    return errors


# ---- corruptions for the self-test ------------------------------------------

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _bump_digit(number):
    """number with its first nonzero mantissa digit changed (1->2, ..., 9->1), or None."""
    for n, ch in enumerate(number):
        if ch in "eE":
            return None
        if ch in "123456789":
            return number[:n] + str(int(ch) % 9 + 1) + number[n + 1:]
    return None


def corrupt_after(data, marker):
    """Change one digit of the first nonzero number that follows marker."""
    text = data.decode("utf-8")
    for match in _NUMBER.finditer(text, text.index(marker) + len(marker)):
        bumped = _bump_digit(match.group())
        if bumped is not None:
            return (text[:match.start()] + bumped + text[match.end():]).encode("utf-8")
    raise ValueError(f"no nonzero number after {marker!r}")


def set_json_number(data, key, value):
    """Replace the number stored under key with value."""
    text = data.decode("utf-8")
    match = re.search(r'"%s":(%s)' % (re.escape(key), _NUMBER.pattern), text)
    return (text[:match.start(1)] + value + text[match.end(1):]).encode("utf-8")
