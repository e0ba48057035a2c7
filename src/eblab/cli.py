"""Command-line front end.

Subcommands: channel-apply, eb-report, capacity, rho12, probe. Each
result has one entry: capacity and probe sweep a --k list, the other three
work at one window and refuse a list, and only probe writes the
domination sweep. Exit codes: 0 success, 2 input or schema error, 3
numerical invariant violation. Output files are byte-deterministic for
identical configs: fixed-order reductions, canonical number formatting,
no timestamps.

main(argv) parses argv against one table of each subcommand's flags
(parse_args, FLAGS; argparse is not imported, which a cold call would pay
for), runs one subcommand and returns its exit code, or raises
SystemExit(2) on a usage error; it leaves the interpreter's state alone,
so tests and tracers call it in-process. run() is the one process entry
(the `eblab` script, `python -m eblab` and `python -m eblab.cli`): it
calls main and then freezes the garbage collector, so the collections at
interpreter exit skip the objects the imports left behind.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from functools import partial
from types import SimpleNamespace

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
    """Complex entries eb-report --phi holds at its peak, under any --sigma.

    With d = 2K + 1, the peak is in the chain's one comparison as it
    demodulates K's columns: eight d x 2d arrays (the form's two, the
    decomposition's two unit sides, its POVM vectors and their conjugate,
    the two demodulated sides: 16 d^2), a node-phase index (int64, d^2),
    sigma's entries and eigenbasis (2 d^2), numpy's iteration buffer (at
    most 8192 entries or 2 d^2) and 2048 for small objects. No --sigma adds
    more: ChoiState keeps every reference's factors unformed.
    """
    d = 2 * half + 1
    return 21 * d * d + 2048


def _check_size(args):
    """Refuse a --k request whose dense arrays exceed MAX_DENSE_BYTES.

    With d = 2 max(K) + 1, every subcommand is charged at least d^2 entries.
    probe walks rho12's sector rows in O(K); its d^2 + 1024 (small objects)
    bounds the walk's d^2 row products too (K <= 4095). rho12 writes the
    text of all d^4 cells of a d^2-square matrix, at least 6 bytes each
    (d^4, K <= 44). channel-apply writes the text of its d x d result beside
    what it holds (20 d^2 + 4096); its --state file's parse, about 15 d^2,
    lies below (K <= 915). capacity holds the d mode weights,
    whatever its --grid. eb-report --phi is charged its peak
    (_phi_report_entries) under every --sigma; a --sigma file's parse,
    about 14 d^2, lies below it. eb-report --channel does not read --k: a
    blocks file holds every entry in its JSON, and an atoms file is
    measured once read (_check_atoms_size).
    """
    if args.command == "eb-report" and args.channel is not None:
        return
    half = max(args.k)
    d = 2 * half + 1
    peak = {"channel-apply": 20 * d * d + 4096,
            "eb-report": _phi_report_entries(half), "probe": d * d + 1024, "rho12": d ** 4}
    _refuse_above_limit(max(d * d, peak.get(args.command, 0)), args.command, "this --k request")


def _check_atoms_size(form, path):
    """Refuse a Holevo form whose chain would join more than MAX_DENSE_BYTES.

    The chain's one QR, of [A, X], has d_in d_out rows and at most 2c columns, with
    c = sum_b cols(F_b) cols(G_b) the form's Kraus pair count over the atoms' factors
    M_b = F_b F_b^dag and rho'_b = G_b G_b^dag; it is the largest array of the atoms
    path. The count is read off the atoms, before the form forms its pairs.
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
        sigma = _resolve_sigma(args.sigma, channel.in_window)
    elif args.phi is not None:
        phi = _resolve_phi(args.phi, args.k[0])
        sigma = _resolve_sigma(args.sigma, phi.window)
        channel_obj = rot.RotationChannel(phi)
        channel = rot.factored_channel(channel_obj)
        form = rot.holevo_form(channel_obj)
    else:
        raise SchemaError("eb-report needs --channel <file> or --phi <profile>")
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
    state = rot.rho12(phi1, phi2)
    pieces = jsonio.dump_pieces(jsonio.operator_to_json(state))
    csv = None
    if args.n_sweep:
        rows = [[n, rot.rho12_n_distance(state, n)] for n in args.n_sweep]
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


# Each subcommand's own flags with their defaults (REQUIRED: no default), beside
# the --k, --phi and --out that every subcommand takes; README's flag table
# lists the same flags.
REQUIRED = object()
COMMON_FLAGS = {"--k": "4", "--phi": None, "--out": None}
FLAGS = {
    "channel-apply": {"--state": REQUIRED},
    "eb-report": {"--channel": None, "--sigma": "mixed"},
    "capacity": {"--grid": "2", "--base": "e"},
    "rho12": {"--phi2": None, "--n-sweep": None},
    "probe": {"--phi2": None, "--candidates": None},
}
CHOICES = {"--base": ("e", "2")}


def _print_usage(command, stream):
    if command is None:
        print(f"usage: eblab {{{','.join(FLAGS)}}} [flags]", file=stream)
        return
    parts = []
    for flag, default in {**COMMON_FLAGS, **FLAGS[command]}.items():
        value = ("{" + ",".join(CHOICES[flag]) + "}" if flag in CHOICES
                 else flag[2:].replace("-", "_").upper())
        parts.append(f"{flag} {value}" if default is REQUIRED else f"[{flag} {value}]")
    print(f"usage: eblab {command} {' '.join(parts)}", file=stream)


def _usage_error(command, message):
    """The usage line and the message on stderr, then SystemExit(2)."""
    _print_usage(command, sys.stderr)
    print(f"eblab{'' if command is None else ' ' + command}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_SCHEMA)


def parse_args(argv):
    """The call in argv: a subcommand, then its flags as --flag value or --flag=value.

    Returns a namespace of the command and of each flag (--n-sweep as
    n_sweep). A flag given twice keeps its last value, and a flag is never
    abbreviated. -h or --help prints the usage and exits 0. A usage error
    (no subcommand or an unknown one, a flag without its value, a value
    outside CHOICES, a missing REQUIRED flag, unrecognized tokens, which
    are named in order) prints the usage and the error on stderr and raises
    SystemExit(2).
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _print_usage(None, sys.stdout)
        raise SystemExit(EXIT_OK)
    if command not in FLAGS:
        _usage_error(None, "the following arguments are required: command" if command is None
                     else f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, FLAGS))})")
    values = {**COMMON_FLAGS, **FLAGS[command]}
    tokens, unknown = list(argv[1:]), []
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            _print_usage(command, sys.stdout)
            raise SystemExit(EXIT_OK)
        flag, joined, value = token.partition("=")
        if flag not in values:
            unknown.append(token)
            continue
        if not joined:
            if not tokens or tokens[0].startswith("--"):
                _usage_error(command, f"argument {flag}: expected one argument")
            value = tokens.pop(0)
        if flag in CHOICES and value not in CHOICES[flag]:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, CHOICES[flag]))})")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **{flag[2:].replace("-", "_"): value
                                               for flag, value in values.items()})


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
