"""Command-line front end.

Subcommands: channel-apply, eb-report, capacity, rho12, probe. Each
result has one entry: capacity and probe sweep a --k list, the other three
work at one window and refuse a list, and only probe writes the
domination sweep. Exit codes: 0 success, 2 input or schema error, 3
numerical invariant violation. Output files are byte-deterministic for
identical configs: fixed-order reductions, canonical number formatting,
no timestamps.

main(argv) parses, runs one subcommand and returns its exit code; it
leaves the interpreter's state alone, so tests and tracers call it
in-process. run() is the one process entry (the `eblab` script,
`python -m eblab` and `python -m eblab.cli`): it calls main and then
freezes the garbage collector, so the collections at interpreter exit
skip the objects the imports left behind.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from functools import partial

import numpy as np

from . import capacity as cap
from . import channels as ch
from . import jsonio
from . import rotation as rot
from .errors import InvariantViolationError, SchemaError, WindowMismatchError
from .hilbert import ModeWindow, StateOperator, min_eigenvalue

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
MAX_DENSE_BYTES = 2 ** 30  # limit on the dense complex arrays a request may need


def _parse_int_list(text, flag):
    try:
        values = [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise SchemaError(f"{flag} expects a comma-separated integer list, got {text!r}") from None
    if not values:
        raise SchemaError(f"{flag} received an empty list")
    below = [value for value in values if value < 1]
    if below:
        raise SchemaError(f"{flag} values must be >= 1, got {below[0]}")
    return values


def _parse_candidates(text):
    pairs = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise SchemaError(f"candidate {chunk!r} must be 'alpha_profile,beta_profile'")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise SchemaError("--candidates received an empty list")
    return pairs


def _resolve_phi(spec, half_width):
    """Profile name, or a path to a pure-vector JSON file on the window [-K, K]."""
    if spec is None:
        raise SchemaError("--phi is required for this command")
    if os.path.exists(spec) or spec.endswith(".json"):
        psi = jsonio.pure_vector_from_json(jsonio.read_json(spec), context=spec)
        if psi.window != ModeWindow.symmetric(half_width):
            raise SchemaError(f"{spec}: window is not [-{half_width}, {half_width}] from --k")
        return psi
    return rot.phi_profile(spec, half_width)


def _resolve_sigma(spec, window):
    if spec == "mixed":
        return StateOperator.maximally_mixed(window)
    return jsonio.state_from_json(jsonio.read_json(spec), context=spec)


def _refuse_above_limit(entries, command, source):
    """Refuse a request whose largest dense complex array of entries would exceed MAX_DENSE_BYTES."""
    need = 16 * entries
    if need > MAX_DENSE_BYTES:
        raise SchemaError(f"{command} needs a {need / 2 ** 30:.3g} GiB array for {source}, "
                          f"above the {MAX_DENSE_BYTES / 2 ** 30:g} GiB limit")


def _phi_report_entries(half):
    """Complex entries eb-report --phi holds at its peak, at the QR of a joined factor.

    With d = 2K + 1 and the grid's G = 4K + 2 nodes, the channel's two
    factors and the Choi state's two are d^2 x (4K + 1) each, and the
    reconstruction is d^2 x G. Both the decomposition's trace distance and
    the extraction's residual take a QR of a joined d^2 x (G + 4K + 1)
    factor, which is held three times: the join, numpy's astype(copy=True)
    and the LAPACK work copy. The G x d vector atoms are counted once.
    """
    d, nodes = 2 * half + 1, rot.grid_nodes(half)
    columns = 4 * (4 * half + 1) + nodes + 3 * (nodes + 4 * half + 1)
    return d * d * columns + nodes * d


def _check_size(args):
    """Refuse a --k request whose dense arrays exceed MAX_DENSE_BYTES.

    With d = 2 max(K) + 1, every subcommand, the O(K^2) probe included,
    holds d^2 entries. rho12 builds no d^2-square matrix, but it writes the
    text of all d^4 cells of one (at least 6 bytes each), which its charge
    of d^4 entries bounds; that admits K up to 44, as before.
    channel-apply's quadrature holds the grid phases, one row of d
    per node. capacity holds only the d mode weights, whatever its --grid.
    eb-report --phi is charged every factor it holds at its peak
    (_phi_report_entries). eb-report --channel does not read --k: a blocks
    file holds every entry in its JSON, and an atoms file is measured once
    read (_check_atoms_size).
    """
    if args.command == "eb-report" and args.channel is not None:
        return
    half = max(args.k)
    d = 2 * half + 1
    peak = {"channel-apply": rot.grid_nodes(half) * d, "eb-report": _phi_report_entries(half),
            "rho12": d ** 4}
    _refuse_above_limit(max(d * d, peak.get(args.command, 0)), args.command, "this --k request")


def _check_atoms_size(form, path):
    """Refuse a Holevo form whose extraction would join more than MAX_DENSE_BYTES.

    eb_extract's [A, X] has d_in d_out rows and at most 2c columns, with
    c = sum_b cols(F_b) cols(G_b) over the atoms' factors M_b = F_b F_b^dag
    and rho'_b = G_b G_b^dag; it is the largest array of the atoms path.
    """
    columns = sum(m_op.factor.shape[1] * rho_out.factor.shape[1] for m_op, rho_out in form.atoms)
    rows = form.in_window.dimension * form.out_window.dimension
    _refuse_above_limit(rows * 2 * columns, "eb-report", f"the atoms in {path}")


def _emit(pieces, out_path):
    """Write the text made of these pieces, unjoined, to out_path or stdout, ending in a newline."""
    if out_path is None:
        sys.stdout.writelines(pieces)
        if not pieces[-1].endswith("\n"):
            sys.stdout.write("\n")
    else:
        jsonio.write_pieces(out_path, pieces)


def cmd_channel_apply(args):
    """The closed-form action, with its largest entry gap to the grid action as a check."""
    channel = rot.RotationChannel(_resolve_phi(args.phi, args.k[0]))
    rho = jsonio.state_from_json(jsonio.read_json(args.state), context=args.state)
    if rho.window != channel.window:
        raise WindowMismatchError(
            f"input state window {rho.window} differs from the channel window {channel.window}")
    closed = rot.apply_closed_form(channel, rho)
    metadata = {
        "trace": float(closed.trace().real),
        "min_eigenvalue": min_eigenvalue(closed.entries),
        "method": "closed_form",
        "agreement_residual": float(np.abs(closed.entries
                                           - rot.apply_quadrature(channel, rho).entries).max()),
    }
    _emit(jsonio.dump_pieces(jsonio.operator_to_json(closed, extra={"metadata": metadata})),
          args.out)
    return EXIT_OK


def cmd_eb_report(args):
    if args.channel is not None and args.phi is not None:
        raise SchemaError("eb-report takes --channel or --phi, not both")
    if args.channel is not None:
        raw = jsonio.read_json(args.channel)
        if isinstance(raw, dict) and "blocks" in raw:
            channel = jsonio.channel_from_json(raw, context=args.channel)
            form = None
        elif isinstance(raw, dict) and "atoms" in raw:
            form = jsonio.holevo_from_json(raw, context=args.channel)
            _check_atoms_size(form, args.channel)
            channel = ch.holevo_channel(form)
        else:
            raise SchemaError(f"{args.channel}: expected 'blocks' or 'atoms'")
    elif args.phi is not None:
        channel_obj = rot.RotationChannel(_resolve_phi(args.phi, args.k[0]))
        channel = rot.factored_channel(channel_obj)
        form = rot.holevo_form(channel_obj)
    else:
        raise SchemaError("eb-report needs --channel <file> or --phi <profile>")
    sigma = _resolve_sigma(args.sigma, channel.in_window)
    is_cp, min_eig_stacked = ch.cp_check(channel)
    report = {"cp": bool(is_cp), "min_eig_stacked": float(min_eig_stacked)}
    if is_cp:  # a non-CP map has no Choi state to screen or decompose
        state = ch.choi(channel, sigma)
        ppt, min_eig_pt = ch.eb_necessary_test(state)
        report.update(ppt=bool(ppt), min_eig_pt=float(min_eig_pt))
        if form is not None:
            _, report["extraction_residual"] = ch.eb_extract(
                ch.separable_choi_from_holevo(form, state))
    _emit(jsonio.dump_pieces(report), args.out)
    return EXIT_OK


def cmd_capacity(args):
    header = ["K", "n", "closed_form_nats", "optimizer_nats", "gap", "iterations", "converged"]
    if args.base == "2":
        header += ["closed_form_bits", "optimizer_bits"]
    rows = []
    for half in args.k:
        phi = _resolve_phi(args.phi, half)
        channel = rot.RotationChannel(phi)
        for n in args.grid:
            report = cap.ba_optimize(channel, n)
            row = [half, n, report.closed_form, report.optimizer_value, report.gap,
                   report.iterations, report.converged]
            if args.base == "2":
                row += [report.closed_form / math.log(2.0),
                        report.optimizer_value / math.log(2.0)]
            rows.append(row)
    _emit([jsonio.csv_text(header, rows)], args.out)
    return EXIT_OK


def cmd_rho12(args):
    """rho12 JSON and the --n-sweep CSV next to it; both are computed before either is written.

    The JSON is written from rho12's charge sectors and the sweep's distances
    are taken on their S = 4K + 1 rows, so no d^2 x d^2 array is built.
    """
    if args.n_sweep and args.out is None:
        raise SchemaError("--n-sweep needs --out to place the CSV next to the JSON")
    half = args.k[0]
    phi1 = _resolve_phi(args.phi, half)
    phi2 = _resolve_phi(args.phi2, half) if args.phi2 else phi1
    pieces = jsonio.dump_pieces(jsonio.operator_to_json(rot.rho12(phi1, phi2)))
    csv = None
    if args.n_sweep:
        rows = [[n, rot.rho12_n_distance(phi1, phi2, n)] for n in args.n_sweep]
        csv = jsonio.csv_text(["n", "trace_distance_to_product"], rows)
    _emit(pieces, args.out)
    if csv is not None:
        jsonio.write_text(f"{os.path.splitext(args.out)[0]}.n_sweep.csv", csv)
    return EXIT_OK


def cmd_probe(args):
    """Probe-sweep CSV over every --k; mode(0)|mode(0) when no --candidates are given."""
    rows = rot.decomposability_probe_sweep(partial(_resolve_phi, args.phi),
                                           partial(_resolve_phi, args.phi2 or args.phi), args.k,
                                           args.candidates or [("mode(0)", "mode(0)")])
    _emit([jsonio.csv_text(["K", "candidate_id", "eps_max"],
                           [[r.half_width, r.candidate, r.eps_max] for r in rows])], args.out)
    return EXIT_OK


_COMMANDS = {
    "channel-apply": cmd_channel_apply,
    "eb-report": cmd_eb_report,
    "capacity": cmd_capacity,
    "rho12": cmd_rho12,
    "probe": cmd_probe,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eblab",
        description="Desk-scale numerics for separable states and entanglement-breaking channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--k", default="4", help="window half-width K, or comma list for sweeps")
        p.add_argument("--phi", default=None, help="fiducial profile name or pure-vector JSON file")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    p_apply = sub.add_parser("channel-apply", help="apply the rotation channel to a state file")
    add_common(p_apply)
    p_apply.add_argument("--state", required=True, help="input state JSON file")

    p_eb = sub.add_parser("eb-report", help="CP / PPT / extraction report for a channel")
    add_common(p_eb)
    p_eb.add_argument("--channel", default=None, help="channel JSON file (blocks or Holevo atoms)")
    p_eb.add_argument("--sigma", default="mixed", help="'mixed' or a state JSON file")

    p_cap = sub.add_parser("capacity", help="closed-form capacity vs orbit-grid optimizer")
    add_common(p_cap)
    p_cap.add_argument("--base", choices=("e", "2"), default="e", help="entropy display base")
    p_cap.add_argument("--grid", default="2", help="orbit grid size(s), comma list")

    p_rho = sub.add_parser("rho12", help="orbit-averaged product state at one window")
    add_common(p_rho)
    p_rho.add_argument("--phi2", default=None, help="second-factor profile (defaults to --phi)")
    p_rho.add_argument("--n-sweep", default=None, help="comma list of subinterval counts")

    p_probe = sub.add_parser("probe", help="pure-product domination sweep over window sizes")
    add_common(p_probe)
    p_probe.add_argument("--phi2", default=None)
    p_probe.add_argument("--candidates", default=None,
                         help="semicolon-separated 'alpha,beta' profile pairs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.k = _parse_int_list(args.k, "--k")
        # only capacity and probe sweep --k; eb-report --channel does not read it
        if args.command in ("channel-apply", "rho12") or (args.command == "eb-report"
                                                          and args.channel is None):
            if len(args.k) > 1:
                raise SchemaError(f"{args.command} takes a single --k value, got {len(args.k)}")
        if args.command == "capacity":
            args.grid = _parse_int_list(args.grid, "--grid")
        if args.command == "rho12" and args.n_sweep:
            args.n_sweep = _parse_int_list(args.n_sweep, "--n-sweep")
        if args.command == "probe" and args.candidates:
            args.candidates = _parse_candidates(args.candidates)
        _check_size(args)
        return _COMMANDS[args.command](args)
    except (SchemaError, WindowMismatchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvariantViolationError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


def run():
    """The process entry: main's exit code, with the garbage collector frozen once main returns."""
    code = main()
    gc.freeze()  # the exit-time collections would only walk the import graph
    return code


if __name__ == "__main__":
    sys.exit(run())
