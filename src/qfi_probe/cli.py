"""Command-line frontend: scans, figure-dataset regeneration, and
single-point QFI/fidelity evaluation, all emitted as deterministic CSV."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .scan_repro import (
    FIGURE_TAGS,
    MODEL_IDS,
    ScanConfig,
    ScanDataset,
    UnreadField,
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
    rows = zip(dataset.t.tolist(), dataset.qfi.tolist(), dataset.fidelity.tolist())
    lines += map("%.17g,%.17g,%.17g".__mod__, rows)
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


def _degrees(text: str) -> float:
    return math.radians(float(text))


# (flag, ScanConfig field, type, help) of every model parameter; a flag the
# model does not read exits 2, and ScanConfig supplies every default
MODEL_FLAGS = (
    ("--delta", "detuning", float, "detuning (cavity models)"),
    ("--coupling", "coupling", float, "cavity coupling rate"),
    ("--photons", "photons", int, "cavity photon number"),
    ("--m", "mean_occupation", float, "reservoir mean occupation"),
    ("--gamma", "gamma", float, "decay rate"),
    ("--r", "squeezing", float, "squeezing strength"),
    ("--alpha", "alpha", _degrees, "initial-state angle in degrees"),
    ("--freq-scale", "freq_scale", float, "transition frequency in temperature units"),
)
_GRID_FLAGS = (
    ("--tmin", "t_min", float, "first grid time"),
    ("--tmax", "t_max", float, "last grid time"),
    ("--points", "points", int, "grid points"),
)


def _add_model_flags(parser: argparse.ArgumentParser, flags=MODEL_FLAGS) -> None:
    parser.add_argument("--model", required=True, choices=MODEL_IDS)
    for flag, name, kind, text in flags:
        parser.add_argument(flag, dest=name, type=kind, default=argparse.SUPPRESS, help=text)


def _config_from_args(args) -> ScanConfig:
    given = {name: getattr(args, name)
             for _, name, _, _ in MODEL_FLAGS + _GRID_FLAGS if name in args}
    try:
        return ScanConfig(args.model, **given)
    except UnreadField as exc:
        flag = next(flag for flag, name, _, _ in MODEL_FLAGS if name == exc.name)
        raise ValueError(f"model {args.model!r} does not read {flag}") from None


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


def _handle_point(args) -> int:
    # a point value reads no grid field, so the default grid stands
    if not 0.0 < args.t < math.inf:
        raise ValueError("--t must be positive and finite")
    point = point_qfi if args.command == "qfi" else point_fidelity
    print(f"{point(_config_from_args(args), args.t):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfi-probe",
        description="QFI and fidelity scans for qubit probes of cavity and reservoir parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan_p = sub.add_parser("scan", help="sweep a time grid and emit CSV")
    _add_model_flags(scan_p, MODEL_FLAGS + _GRID_FLAGS)
    scan_p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    scan_p.set_defaults(handler=_handle_scan)

    fig_p = sub.add_parser("figure", help="regenerate a figure dataset")
    fig_p.add_argument("--tag", required=True, choices=FIGURE_TAGS)
    fig_p.add_argument("--points", type=int, default=ScanConfig.points)
    fig_p.add_argument(
        "--out", required=True,
        help="base CSV path; the series name is inserted before the suffix",
    )
    fig_p.set_defaults(handler=_handle_figure)

    for name, text in (("qfi", "QFI"), ("fidelity", "fidelity")):
        point_p = sub.add_parser(name, help=f"single-point {text} evaluation")
        _add_model_flags(point_p)
        point_p.add_argument("--t", type=float, required=True)
        point_p.set_defaults(handler=_handle_point)

    return parser


# one parser per process, built on the first run, not at import; it holds
# only private handlers, so _handle_point finds the point functions per call
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code.

    Unknown flags or invalid parameters exit 2 with a one-line diagnostic
    on stderr; I/O failures exit 1.
    """
    try:
        args = _parser().parse_args(argv)
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
