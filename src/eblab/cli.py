"""Command-line front end.

Subcommands: channel-apply, eb-report, capacity, rho12, probe.
Exit codes: 0 success, 2 input or schema error, 3 numerical invariant
violation. Output files are byte-deterministic for identical configs:
fixed-order reductions, canonical number formatting, no timestamps.
"""

from __future__ import annotations

import argparse
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
from .hilbert import (
    ModeWindow,
    ProductWindow,
    StateOperator,
    factored_state,
    min_eigenvalue,
    trace_norm_distance,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
MAX_DENSE_BYTES = 2 ** 30  # largest dense complex array a request may need


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


def _check_size(args):
    """Refuse a --k/--nodes/--grid request whose largest dense array exceeds MAX_DENSE_BYTES.

    Every subcommand, the O(K^2) probe included, holds (2K+1)^2 entries at
    the largest K; rho12 builds (2K+1)^2-square matrices on the product
    window at the first K. eb-report --phi holds factors of (2K+1)^2 rows:
    the widest joins the nodes columns of the extracted form to the 4K + 1
    of the channel, next to the nodes x (2K+1) vector atoms. Quadrature
    holds nodes x (2K+1) phases in channel-apply; capacity holds grid x
    (2K+1) orbit outputs. eb-report --channel reads none of these flags: a
    blocks file holds every entry in its JSON, and an atoms file is
    measured once read (_check_atoms_size).
    """
    if args.command == "eb-report" and args.channel is not None:
        return
    d_first, d_max = 2 * args.k[0] + 1, 2 * max(args.k) + 1
    nodes = getattr(args, "nodes", None) or 0
    terms = [d_max ** 2, max(getattr(args, "grid", [0])) * d_max]
    if args.command == "eb-report":
        nodes = nodes or 2 * d_first  # the default 4K + 2
        terms.append(d_first ** 2 * (nodes + 2 * d_first - 1) + nodes * d_first)
    else:
        terms += [d_first ** 4 if args.command == "rho12" else 0, nodes * d_first]
    _refuse_above_limit(max(terms), args.command, "this --k/--nodes/--grid request")


def _check_atoms_size(form, path):
    """Refuse a Holevo form whose extraction would join more than MAX_DENSE_BYTES.

    eb_extract's [A, X] has d_in d_out rows and at most 2c columns, with
    c = sum_b cols(F_b) cols(G_b) over the atoms' factors M_b = F_b F_b^dag
    and rho'_b = G_b G_b^dag; it is the largest array of the atoms path.
    """
    columns = sum(m_op.factor.shape[1] * rho_out.factor.shape[1] for m_op, rho_out in form.atoms)
    rows = form.in_window.dimension * form.out_window.dimension
    _refuse_above_limit(rows * 2 * columns, "eb-report", f"the atoms in {path}")


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        jsonio.write_text(out_path, text)


def _sibling_path(out_path, suffix):
    stem, _ = os.path.splitext(out_path)
    return f"{stem}.{suffix}"


def cmd_channel_apply(args):
    half = args.k[0]
    phi = _resolve_phi(args.phi, half)
    channel = rot.RotationChannel(phi, args.nodes)
    if args.state is None:
        raise SchemaError("channel-apply needs --state <file>")
    rho = jsonio.state_from_json(jsonio.read_json(args.state), context=args.state)
    if rho.window != channel.window:
        raise WindowMismatchError(
            f"input state window {rho.window} differs from the channel window {channel.window}")
    closed = rot.apply_closed_form(channel, rho) if args.method in ("both", "closed-form") else None
    quad = rot.apply_quadrature(channel, rho) if args.method in ("both", "quadrature") else None
    result = closed if closed is not None else quad
    metadata = {
        "trace": float(result.trace().real),
        "min_eigenvalue": min_eigenvalue(result.entries),
        "method": "closed_form" if closed is not None else "quadrature",
    }
    if closed is not None and quad is not None:
        metadata["agreement_residual"] = float(np.abs(closed.entries - quad.entries).max())
    _emit(jsonio.dumps(jsonio.operator_to_json(result, extra={"metadata": metadata})), args.out)
    return EXIT_OK


def cmd_eb_report(args):
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
        half = args.k[0]
        channel_obj = rot.RotationChannel(_resolve_phi(args.phi, half), args.nodes)
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
    _emit(jsonio.dumps(report), args.out)
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
            report = cap.ba_optimize(channel, n, max_iter=args.max_iter, tol=args.tol)
            row = [half, n, report.closed_form, report.optimizer_value, report.gap,
                   report.iterations, report.converged]
            if args.base == "2":
                row += [report.closed_form / math.log(2.0),
                        report.optimizer_value / math.log(2.0)]
            rows.append(row)
    _emit(jsonio.csv_text(header, rows), args.out)
    return EXIT_OK


def cmd_rho12(args):
    """rho12 JSON plus the --n-sweep and --probe CSVs; every output is computed before any is written."""
    for flag, wanted in (("--n-sweep", args.n_sweep), ("--probe", args.probe)):
        if wanted and args.out is None:
            raise SchemaError(f"{flag} needs --out to place the CSV next to the JSON")
    half = args.k[0]
    phi1 = _resolve_phi(args.phi, half)
    phi2 = _resolve_phi(args.phi2, half) if args.phi2 else phi1
    # serialized before the sweeps, whose freed temporaries would add to its peak memory
    text = jsonio.dumps(jsonio.operator_to_json(rot.rho12(phi1, phi2)))
    siblings = {}
    if args.n_sweep:
        product = factored_state(ProductWindow(phi1.window, phi2.window),
                                 np.kron(phi1.amplitudes, phi2.amplitudes)[:, None])
        rows = [[n, trace_norm_distance(rot.rho12_n(phi1, phi2, n), product)]
                for n in args.n_sweep]
        siblings["n_sweep.csv"] = jsonio.csv_text(["n", "trace_distance_to_product"], rows)
    if args.probe:
        siblings["probe.csv"] = _probe_csv(args)
    _emit(text, args.out)
    for suffix, csv in siblings.items():
        jsonio.write_text(_sibling_path(args.out, suffix), csv)
    return EXIT_OK


def _probe_csv(args):
    """Probe-sweep CSV shared by `probe` and `rho12 --probe`; mode(0)|mode(0) by default."""
    rows = rot.decomposability_probe_sweep(partial(_resolve_phi, args.phi),
                                           partial(_resolve_phi, args.phi2 or args.phi), args.k,
                                           args.candidates or [("mode(0)", "mode(0)")])
    return jsonio.csv_text(["K", "candidate_id", "eps_max"],
                           [[r.half_width, r.candidate, r.eps_max] for r in rows])


def cmd_probe(args):
    _emit(_probe_csv(args), args.out)
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

    def add_common(p, nodes=False):
        p.add_argument("--k", default="4", help="window half-width K, or comma list for sweeps")
        p.add_argument("--phi", default=None, help="fiducial profile name or pure-vector JSON file")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        if nodes:
            p.add_argument("--nodes", type=int, default=None, help="quadrature nodes (>= 4K+1)")

    p_apply = sub.add_parser("channel-apply", help="apply the rotation channel to a state file")
    add_common(p_apply, nodes=True)
    p_apply.add_argument("--state", required=True, help="input state JSON file")
    p_apply.add_argument("--method", choices=("both", "closed-form", "quadrature"),
                         default="both")

    p_eb = sub.add_parser("eb-report", help="CP / PPT / extraction report for a channel")
    add_common(p_eb, nodes=True)
    p_eb.add_argument("--channel", default=None, help="channel JSON file (blocks or Holevo atoms)")
    p_eb.add_argument("--sigma", default="mixed", help="'mixed' or a state JSON file")

    p_cap = sub.add_parser("capacity", help="closed-form capacity vs orbit-grid optimizer")
    add_common(p_cap)
    p_cap.add_argument("--base", choices=("e", "2"), default="e", help="entropy display base")
    p_cap.add_argument("--grid", default="2", help="orbit grid size(s), comma list")
    p_cap.add_argument("--tol", type=float, default=1e-9, help="optimizer stopping tolerance")
    p_cap.add_argument("--max-iter", type=int, default=10000)

    p_rho = sub.add_parser("rho12", help="orbit-averaged product state and its diagnostics")
    add_common(p_rho)
    p_rho.add_argument("--phi2", default=None, help="second-factor profile (defaults to --phi)")
    p_rho.add_argument("--n-sweep", default=None, help="comma list of subinterval counts")
    p_rho.add_argument("--probe", action="store_true", help="also emit the probe sweep CSV")
    p_rho.add_argument("--candidates", default=None,
                       help="semicolon-separated 'alpha,beta' profile pairs")

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
        if args.command in ("channel-apply", "eb-report"):  # the two that take --nodes
            if len(args.k) > 1:
                raise SchemaError(f"{args.command} takes a single --k value, got {len(args.k)}")
            floor = 4 * args.k[0] + 1
            if args.nodes is not None and args.nodes < floor:
                raise SchemaError(
                    f"--nodes {args.nodes} below the exactness floor {floor} for K={args.k[0]}")
        if args.command == "capacity":
            args.grid = _parse_int_list(args.grid, "--grid")
            if args.max_iter < 1:
                raise SchemaError(f"--max-iter must be >= 1, got {args.max_iter}")
            if not 0.0 <= args.tol < math.inf:
                raise SchemaError(f"--tol must be finite and >= 0, got {args.tol!r}")
        if args.command == "rho12" and args.n_sweep:
            args.n_sweep = _parse_int_list(args.n_sweep, "--n-sweep")
        if args.command in ("rho12", "probe") and args.candidates:
            args.candidates = _parse_candidates(args.candidates)
        _check_size(args)
        return _COMMANDS[args.command](args)
    except (SchemaError, WindowMismatchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvariantViolationError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
