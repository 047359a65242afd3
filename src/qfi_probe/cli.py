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

# Rows are "%.17g,%.17g,%.17g\n", converted exactly in numpy. A cell is four
# little-endian words, 32 bytes: sign and "0.000" in bytes 0-6, the lead
# digit in byte 7, the 16 other digits from byte 8 on (one byte later past
# the dot) and the separator in byte 31. NUL bytes print nothing.
_U64 = np.dtype("<u8")
_BLOCK_ROWS = 2048


def _veltkamp(a):  # split doubles into 26-bit halves, whose products are exact
    c = 134217729.0 * a
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _format_tables():
    q = np.arange(10_000, dtype=np.uint32)
    ascii4 = sum((48 + q // 10 ** (3 - i) % 10) << 8 * i for i in range(4)).astype("<u4")
    # digits up to the last nonzero one of a quad; -32 for 0000
    sig4 = np.where(q, 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0), -32).astype(np.int8)
    # per (exponent x, last digit kept): masks of words 1-3 that keep the
    # digits before the dot, keep the shifted digits after it, set the dot
    x, last = np.arange(-4, 17)[:, None, None, None], np.arange(17)[:, None, None]
    byte = np.arange(8, 32).reshape(3, 8)
    dot, keep = np.where(x >= 0, 8 + x, 64), byte <= 7 + last + ((x >= 0) & (last > x))
    masks = [np.where(m & keep, b, 0).astype(np.uint8).view(_U64).reshape(-1, 3).T.copy()
             for m, b in ((byte < dot, 255), (byte > dot, 255), (byte == dot, 46))]
    # per (x, lead digit): word 0, "0.000" cut to x, then the lead digit
    prefix = b"".join(b"\0" + b"0.000"[:(1 - x) * (x < 0)].ljust(7, b"\0") for x in range(-4, 17))
    head = np.frombuffer(prefix, _U64)[:, None] | (48 + np.arange(10, dtype=_U64)) << 56
    pow10 = _veltkamp(np.array([float(10 ** k) for k in range(23)]))
    return ascii4, sig4, pow10, masks, head.ravel()


def _scaled(a, pow10, k):
    """a * 10**k as hi + lo exactly (Dekker's two-product), for k <= 22."""
    bh, bl = pow10[0].take(k), pow10[1].take(k)
    hi, (ah, al) = a * (bh + bl), _veltkamp(a)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _csv_block(columns) -> bytes:
    """The rows of equal slices of the t, qfi and fidelity columns."""
    ascii4, sig4, pow10, (keep_lo, keep_hi, dots), head = _format_tables()
    values = np.stack(columns, axis=1, dtype=float).ravel()
    fast = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)  # no exponent in %.17g
    a = np.where(fast, np.abs(values), 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, pow10, 16 - x)
    # exact signs of hi + lo - 1e17 and - 1e16: |lo| is below the spacing there
    fix = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
    if fix.any():
        x += fix
        hi, lo = _scaled(a, pow10, 16 - x)
    # hi is an even integer, so lo rounded half to even rounds hi + lo; no
    # carry to 10**17, as no double lies within 5e-18 below 1e-3 ... 1e16
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top, lead = n // 10 ** 8, n // 10 ** 16
    eights = np.stack((top - lead * 10 ** 8, n - top * 10 ** 8))
    high = eights // 10 ** 4
    quads = high, eights - high * 10 ** 4  # digits 1-4 and 9-12, 5-8 and 13-16
    w1, w2 = np.stack([ascii4.take(q) for q in quads], axis=-1).view(_U64)[..., 0]
    last = np.maximum(sig4.take(quads[0]), sig4.take(quads[1]) + 4)
    code = (x + 4) * 17 + np.maximum(np.maximum(x, 0), np.maximum(last[0], last[1] + 8))
    shifted = w1 << 8, w2 << 8 | w1 >> 56, w2 >> 56
    cells = np.stack([head.take((x + 4) * 10 + lead) | (values < 0) * np.uint64(45),
                      *(w & keep_lo[i].take(code) | shifted[i] & keep_hi[i].take(code)
                        | dots[i].take(code) for i, w in enumerate((w1, w2, 0)))], axis=1)
    cells[:, 3] |= np.tile(np.array([44, 44, 10], _U64) << 56, len(a) // 3)  # , , \n
    if len(slow := np.flatnonzero(~fast)):  # zeros, tiny or huge, inf, nan
        texts = b"".join((b"%.17g" % v).ljust(31, b"\0") for v in values[slow].tolist())
        cells.view(np.uint8)[slow, :31] = np.frombuffer(texts, np.uint8).reshape(-1, 31)
    return cells.tobytes().translate(None, b"\0")


def emit_csv(dataset: ScanDataset, path) -> None:
    """Write a dataset as CSV: metadata as '#'-prefixed comments, then the
    header and one "%.17g" row per grid point (LF line endings)."""
    lines = [f"# {key}={value}" for key, value in dataset.metadata.items()]
    text = ("\n".join(lines + [CSV_HEADER]) + "\n").encode("utf-8")
    text += b"".join(_csv_block([c[start:start + _BLOCK_ROWS]
                                 for c in (dataset.t, dataset.qfi, dataset.fidelity)])
                     for start in range(0, len(dataset.t), _BLOCK_ROWS))
    if path is None:
        sys.stdout.write(text.decode("utf-8"))
    else:
        Path(path).write_bytes(text)


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


def _build() -> tuple[argparse.ArgumentParser, dict]:
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
        point_p.set_defaults(handler=_handle_point, command=name)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


# one parser per process, built on the first run, not at import; it holds no library function
_parser = functools.cache(_build)


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code.

    Unknown flags or invalid parameters exit 2 with a one-line diagnostic
    on stderr; I/O failures exit 1.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    try:
        command = commands.get(argv[0]) if argv else None
        args, extra = command.parse_known_args(argv[1:]) if command else (None, None)
        if command is None or extra:  # the top-level parser gives the message
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
