"""Command-line frontend: scans, figure-dataset regeneration, and
single-point QFI/fidelity evaluation, all emitted as deterministic CSV."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .scan_repro import (
    ESTIMANDS,
    FIGURE_TAGS,
    MODEL_IDS,
    ScanConfig,
    ScanDataset,
    point_fidelity,
    point_qfi,
    reproduce_figure,
    scan,
)

CSV_HEADER = "t,qfi,fidelity"


def emit_csv(dataset: ScanDataset, path) -> None:
    """Write a dataset as CSV: metadata as '#'-prefixed comments, then the
    header and one full-precision row per grid point (LF line endings)."""
    lines = [f"# {key}={value}" for key, value in dataset.metadata.items()]
    lines.append(CSV_HEADER)
    for t, q, f in zip(dataset.t, dataset.qfi, dataset.fidelity):
        lines.append(f"{t:.17g},{q:.17g},{f:.17g}")
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def parse_csv(path) -> ScanDataset:
    """Inverse of emit_csv; round-trips a dataset bit-for-bit."""
    metadata: dict[str, str] = {}
    rows: list[tuple[float, float, float]] = []
    seen_header = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key] = value
        elif not seen_header:
            if line != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {line!r}")
            seen_header = True
        else:
            t, q, f = (float(part) for part in line.split(","))
            rows.append((t, q, f))
    if not seen_header:
        raise ValueError("missing CSV header")
    data = np.array(rows, dtype=float).reshape(len(rows), 3)
    return ScanDataset(data[:, 0], data[:, 1], data[:, 2], metadata)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=MODEL_IDS)
    parser.add_argument(
        "--estimand",
        choices=ESTIMANDS,
        default="",
        help="defaults to the estimand the model supports",
    )
    parser.add_argument("--delta", type=float, default=5.0, help="detuning (cavity models)")
    parser.add_argument("--coupling", type=float, default=1.0, help="cavity coupling rate")
    parser.add_argument("--photons", type=int, default=0, help="cavity photon number")
    parser.add_argument("--m", type=float, default=0.1, help="reservoir mean occupation")
    parser.add_argument("--gamma", type=float, default=1.0, help="decay rate")
    parser.add_argument("--r", type=float, default=0.1, help="squeezing strength")
    parser.add_argument(
        "--alpha", type=float, default=45.0, help="initial-state angle in degrees"
    )
    parser.add_argument(
        "--freq-scale", type=float, default=1.0,
        help="transition frequency in temperature units",
    )


def _config_from_args(args, t_min=None, t_max=None, points=None) -> ScanConfig:
    return ScanConfig(
        model_id=args.model,
        estimand=args.estimand,
        t_min=args.tmin if t_min is None else t_min,
        t_max=args.tmax if t_max is None else t_max,
        points=args.points if points is None else points,
        alpha=math.radians(args.alpha),
        detuning=args.delta,
        coupling=args.coupling,
        photons=args.photons,
        mean_occupation=args.m,
        gamma=args.gamma,
        squeezing=args.r,
        freq_scale=args.freq_scale,
    )


def _handle_scan(args) -> int:
    emit_csv(scan(_config_from_args(args)), args.out)
    return 0


def _handle_figure(args) -> int:
    datasets = reproduce_figure(args.tag, points=args.points)
    base = Path(args.out)
    suffix = base.suffix or ".csv"
    for dataset in datasets:
        series = dataset.metadata["series"]
        emit_csv(dataset, base.with_name(f"{base.stem}_{series}{suffix}"))
    return 0


def _point_config(args) -> ScanConfig:
    # Single-point commands reuse ScanConfig; the grid fields are unused
    # beyond validation, so pick a window that always contains t.
    if not 0.0 < args.t < math.inf:
        raise ValueError("--t must be positive and finite")
    t_max = max(2.0 * args.t, 1.0)
    return _config_from_args(args, t_min=min(args.t, 0.01), t_max=t_max, points=2)


def _handle_qfi(args) -> int:
    print(f"{point_qfi(_point_config(args), args.t):.17g}")
    return 0


def _handle_fidelity(args) -> int:
    print(f"{point_fidelity(_point_config(args), args.t):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfi-probe",
        description="QFI and fidelity scans for qubit probes of cavity and reservoir parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan_p = sub.add_parser("scan", help="sweep a time grid and emit CSV")
    _add_model_arguments(scan_p)
    scan_p.add_argument("--tmin", type=float, default=0.01)
    scan_p.add_argument("--tmax", type=float, default=50.0)
    scan_p.add_argument("--points", type=int, default=2000)
    scan_p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    scan_p.set_defaults(handler=_handle_scan)

    fig_p = sub.add_parser("figure", help="regenerate a figure dataset")
    fig_p.add_argument("--tag", required=True, choices=FIGURE_TAGS)
    fig_p.add_argument("--points", type=int, default=2000)
    fig_p.add_argument(
        "--out", required=True,
        help="base CSV path; the series name is inserted before the suffix",
    )
    fig_p.set_defaults(handler=_handle_figure)

    qfi_p = sub.add_parser("qfi", help="single-point QFI evaluation")
    _add_model_arguments(qfi_p)
    qfi_p.add_argument("--t", type=float, required=True)
    qfi_p.set_defaults(handler=_handle_qfi)

    fid_p = sub.add_parser("fidelity", help="single-point fidelity evaluation")
    _add_model_arguments(fid_p)
    fid_p.add_argument("--t", type=float, required=True)
    fid_p.set_defaults(handler=_handle_fidelity)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code.

    Unknown flags or invalid parameters exit 2 with a one-line diagnostic
    on stderr; I/O failures exit 1.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"qfi-probe: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qfi-probe: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
