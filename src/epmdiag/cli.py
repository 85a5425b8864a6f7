"""Command-line front end.

Subcommands: sweep, fig1, fig3, reconstruct, protocol, haar-avg.
Exit codes: 0 success, 2 validation error, 3 I/O error, 4 parse error.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .errors import ParseError, ValidationError
from .gates import waveplate_settings
from .merit import MeritKind
from .reconstruct import CHI_LABELS, load_probability_table, protocol_plan, schmidt_rank
from .sweeps import (
    DEFAULT_MERITS,
    DEFAULT_RESOLUTION,
    DEFAULT_SAMPLES,
    ERROR_FAMILIES,
    SweepConfig,
    _check_angles,
    _check_target,
    _csv_lines,
    _sidecar,
    _sweep_rows,
    _write_output,
    preset_fig1,
    preset_fig3,
    run_reconstruction,
    run_sweep,
    write_fig3,
    write_reconstruction,
    write_sweep,
)
from .version import __version__

_MERIT_NAMES = [kind.value for kind in MeritKind]


def _out_path(text: str) -> str:
    """An --out value, refused when it names no file ('', '.', '/', 'results/'), before the
    command runs."""
    if not Path(text).name or text.endswith((os.sep, "/")):
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    return text


def _add_common(parser: argparse.ArgumentParser, samples: bool = True,
                out_required: bool = True) -> None:
    if samples:
        parser.add_argument("--seed", type=int, default=0, help="master seed")
        parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                            help="Haar samples per grid point")
    parser.add_argument("--out", type=_out_path, required=out_required, default=None,
                        help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="output_format", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epmdiag",
        description="Diagnose coherent errors of two-qubit controlled gates "
                    "from end-point energy-measurement statistics.",
    )
    parser.add_argument("--version", action="version", version=f"epmdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="Haar-averaged merits on a (theta, phi) grid")
    p.add_argument("--error", choices=sorted(ERROR_FAMILIES), default="axis")
    p.add_argument("--theta-range", type=float, nargs=2, default=(0.0, math.pi),
                   metavar=("LO", "HI"))
    p.add_argument("--phi-range", type=float, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="points per grid axis")
    p.add_argument("--merit", action="append", choices=_MERIT_NAMES, default=None,
                   help="merit to average (repeatable)")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("fig1", help="one of the four standard merit surfaces")
    p.add_argument("--panel", choices=("a", "b", "c", "d"), required=True)
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("fig3", help="single-state theory curves at fixed phi")
    p.add_argument("--theta-points", type=int, default=50)
    p.add_argument("--phi", type=float, default=math.pi / 9)
    _add_common(p, samples=False)

    p = sub.add_parser("reconstruct", help="coherence diagnostics from probability tables")
    p.add_argument("--measured", nargs="+", required=True, metavar="CSV",
                   help="measured probability-table CSV files, one per theta")
    p.add_argument("--ideal", nargs="+", default=None, metavar="CSV",
                   help="ideal tables; omitted = synthesize from the perfect gate")
    p.add_argument("--thetas", type=float, nargs="+", default=None,
                   help="theta per measured file (else read '# theta =' metadata)")
    p.add_argument("--phi", type=float, default=None,
                   help="error parameter, enables the theory coherence curve")
    p.add_argument("--error", choices=sorted(ERROR_FAMILIES), default="axis")
    p.add_argument("--sum-tolerance", type=float, default=0.02)
    p.add_argument("--renormalize", action="store_true",
                   help="renormalize rows whose sum deviates from 1")
    _add_common(p, samples=False)

    p = sub.add_parser("protocol", help="export reconstruction input states as JSON")
    p.add_argument("--kind", choices=("straightforward", "separable"), required=True)
    p.add_argument("--phase-theta", type=float, default=math.pi / 2)
    p.add_argument("--theta", type=float, default=None,
                   help="gate angle for waveplate settings (with --phi)")
    p.add_argument("--phi", type=float, default=None,
                   help="error parameter for waveplate settings (with --theta)")
    p.add_argument("--out", type=_out_path, default=None)

    p = sub.add_parser("haar-avg", help="Haar-averaged merits at a single (theta, phi)")
    p.add_argument("--error", choices=sorted(ERROR_FAMILIES), default="axis")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--merit", action="append", choices=_MERIT_NAMES, default=None)
    _add_common(p, out_required=False)

    return parser


def _merits(args) -> tuple[MeritKind, ...]:
    # argparse's choices have already refused any name that is not a merit
    return tuple(map(MeritKind, args.merit or ())) or DEFAULT_MERITS


def _cmd_sweep(args) -> list[Path]:
    phi_lo, phi_hi = (args.phi_range if args.phi_range is not None else (None, None))
    config = SweepConfig(
        error_family=args.error,
        theta_lo=args.theta_range[0], theta_hi=args.theta_range[1],
        theta_points=args.resolution,
        phi_lo=phi_lo, phi_hi=phi_hi, phi_points=args.resolution,
        merits=_merits(args), n_samples=args.samples, master_seed=args.seed,
    )
    return write_sweep(run_sweep(config, workers=args.workers), args.out, args.output_format)


def _cmd_fig1(args) -> list[Path]:
    result = preset_fig1(args.panel, resolution=args.resolution,
                         n_samples=args.samples, seed=args.seed, workers=args.workers)
    return write_sweep(result, args.out, args.output_format)


def _cmd_fig3(args) -> list[Path]:
    report = preset_fig3(theta_points=args.theta_points, phi=args.phi)
    return write_fig3(report, args.out, args.output_format)


def _load_table(path: str, args):
    """The table in `path`; a parse or validation error names the file."""
    try:
        table = load_probability_table(path, sum_tolerance=args.sum_tolerance,
                                       renormalize=args.renormalize)
        table.require(CHI_LABELS)
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc}",)  # a ParseError keeps its line
        raise
    return table


def _cmd_reconstruct(args) -> list[Path]:
    tables = [_load_table(path, args) for path in args.measured]
    if args.thetas is not None:
        if len(args.thetas) != len(tables):
            raise ValidationError(
                f"{len(args.measured)} measured files but {len(args.thetas)} --thetas values"
            )
        thetas = list(args.thetas)
    else:
        thetas = []
        for path, table in zip(args.measured, tables):
            if "theta" not in table.metadata:
                raise ValidationError(
                    f"{path} carries no '# theta =' metadata; pass --thetas explicitly"
                )
            thetas.append(table.metadata["theta"])
    measured = list(zip(thetas, tables))
    ideal = None if args.ideal is None else [_load_table(path, args) for path in args.ideal]
    phi, phis, without = args.phi, [], []
    if phi is None:
        phis = sorted({t.metadata["phi"] for t in tables if "phi" in t.metadata})
        without = [path for path, t in zip(args.measured, tables) if "phi" not in t.metadata]
        phi = phis[0] if len(phis) == 1 and not without else None
    report = run_reconstruction(measured, ideal=ideal, phi=phi, error_family=args.error)
    del tables, measured, ideal  # the report holds its own stack; free theirs before the write
    if len(phis) > 1:
        print(f"warning: the tables' '# phi =' values differ ({', '.join(map(repr, phis))}); "
              "the coherence curve is left out, pass --phi for it", file=sys.stderr)
    elif phis and without:
        print(f"warning: some tables carry '# phi =' metadata and these do not: "
              f"{', '.join(without)}; the coherence curve is left out, pass --phi for it",
              file=sys.stderr)
    # flags first: they explain a non-finite value the writer refuses
    for flag in report.flags:
        print(f"warning: {flag}", file=sys.stderr)
    return write_reconstruction(report, args.out, args.output_format)


def _cmd_protocol(args) -> None:
    if (args.theta is None) != (args.phi is None):
        raise ValidationError("waveplate settings need both --theta and --phi")
    _check_angles([x for x in (args.phase_theta, args.theta, args.phi) if x is not None],
                  "protocol angle")
    plan = protocol_plan(args.kind, phase_theta=args.phase_theta)
    doc = {
        "kind": plan.kind,
        "phase_theta": plan.phase_theta,
        "states": [
            {
                "label": label,
                "amplitudes": [[float(a.real), float(a.imag)] for a in state],
                "separable": schmidt_rank(state) == 1,
            }
            for label, state in plan.states
        ],
        "waveplate_settings": None if args.theta is None
        else dataclasses.asdict(waveplate_settings(args.theta, args.phi)),
    }
    _write_output(args.out, "json", None, None, doc)


def _cmd_haar_avg(args) -> None:
    """One grid point: a 1x1 sweep, so the values equal the sweep's at that point."""
    config = SweepConfig(
        error_family=args.error,
        theta_lo=args.theta, theta_hi=args.theta, theta_points=1,
        phi_lo=args.phi, phi_hi=args.phi, phi_points=1,
        merits=_merits(args), n_samples=args.samples, master_seed=args.seed,
    )
    columns = ("merit", "mean", "std_error", "n_samples", "seed")
    values = run_sweep(config).values
    rows = [(*row[2:], args.samples, args.seed) for row in _sweep_rows(config, values)]
    lines = (f"{merit},{mean!r},{std_error!r},{samples},{seed}"
             for merit, mean, std_error, samples, seed in rows)
    results = (dict(zip(columns, row)) for row in rows)
    _write_output(args.out, args.output_format, None, _csv_lines(",".join(columns), values, lines),
                  {"theta": args.theta, "phi": args.phi, "error_family": args.error,
                   "results": results})


_COMMANDS = {
    "sweep": _cmd_sweep,
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "reconstruct": _cmd_reconstruct,
    "protocol": _cmd_protocol,
    "haar-avg": _cmd_haar_avg,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a refused argv: argparse's exit code
        return exc.code
    try:
        if args.out is not None:  # anything but a regular file there or at a CSV's sidecar: refused first
            out = Path(args.out)
            sidecar = args.command in ("sweep", "fig1", "fig3", "reconstruct") \
                and args.output_format == "csv"
            for target in [out, _sidecar(out)] if sidecar else [out]:
                _check_target(target)
        written = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written or ():  # protocol and haar-avg print their document or nothing
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
