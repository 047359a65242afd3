"""Tests for the command-line interface and CSV serialization."""

import argparse
import contextlib
import decimal
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import csv_fstring
from qfi_probe import cli
from qfi_probe.cli import MODEL_FLAGS, build_parser, emit_csv, parse_csv, run
from qfi_probe.scan_repro import (
    MODEL_IDS,
    MODELS,
    ScanConfig,
    ScanDataset,
    point_fidelity,
    point_qfi,
    scan,
)

# what the point commands printed for seeded_queries(), "argv<TAB>stdout"
# per line; test_prints_the_recorded_bytes names the lines that moved
POINT_OUTPUTS = Path(__file__).with_name("cli_point_outputs.tsv")
# the range each model flag is drawn from (alpha in degrees, photons an
# integer)
FLAG_RANGES = {"detuning": (-10.0, 10.0), "coupling": (0.2, 3.0), "photons": (0, 5),
               "mean_occupation": (0.0, 1.0), "gamma": (0.5, 2.0), "squeezing": (0.0, 0.5),
               "alpha": (0.0, 90.0), "freq_scale": (0.5, 2.0)}


def seeded_queries(count=60, seed=19):
    """count point queries as (argv, command, config, t): the six models
    and both commands in turn, t in [0.01, 50], and each flag the model
    reads given with probability 3/4 (else its ScanConfig default)."""
    rng = np.random.default_rng(seed)
    queries = []
    for k in range(count):
        model, command = MODEL_IDS[k % 6], ("qfi", "fidelity")[k // 6 % 2]
        t = float(rng.uniform(0.01, 50.0))
        argv, given = [command, "--model", model], {}
        for flag, name, _, _ in MODEL_FLAGS:
            if name not in MODELS[model][1] or rng.random() >= 0.75:
                continue
            lo, hi = FLAG_RANGES[name]
            value = int(rng.integers(lo, hi)) if name == "photons" else float(rng.uniform(lo, hi))
            argv += [flag, repr(value)]
            given[name] = math.radians(value) if name == "alpha" else value
        queries.append((argv + ["--t", repr(t)], command, ScanConfig(model, **given), t))
    return queries


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def emitted(t, qfi, fidelity):
    """What emit_csv writes to stdout for these columns."""
    dataset = ScanDataset(*(np.asarray(c, dtype=float) for c in (t, qfi, fidelity)), {"model": "x"})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_csv(dataset, None)
    return out.getvalue(), csv_fstring(dataset)


def exact_ties():
    """4000 doubles a = j / 2**(k + 1), j odd, k = 1..20, whose exact
    decimal has 18 significant digits ending in 5: %.17g rounds a tie, half
    to even. Each k fills the decade [10**(16 - k), 10**(17 - k)), so the
    integer and the k + 1 fraction digits make 18; j < 2**53 is exact."""
    rng = np.random.default_rng(23)
    ties = []
    for k in range(1, 21):
        scale = 2 ** (k + 1)
        first = -(-scale * 10 ** 16 // 10 ** k)  # ceil(scale * 10**(16 - k))
        stop = min(scale * 10 ** 17 // 10 ** k, 2 ** 53)
        for half in rng.integers(first // 2, (stop - 1) // 2, 200).tolist():
            ties.append((2 * half + 1) / scale)
    assert len(ties) == 4000
    assert all(len(digits := decimal.Decimal(a).as_tuple().digits) == 18 and digits[-1] == 5
               for a in ties)
    return mirrored(np.array(ties))


def carry_and_below():
    """Doubles just below 10**e that %.17g rounds up to 10**e (all lie
    outside [1e-4, 1e16)), and the largest double below each 10**e inside
    it, which keeps its seventeen 9s, mixed into three columns."""
    exponents = (-305, -243, -176, -79, -73, -14, 98, 129, 153)
    carry = np.array([float(f"1e{e}") for e in exponents])
    assert all(decimal.Decimal(v) < 10 ** decimal.Decimal(e)
               for v, e in zip(carry.tolist(), exponents))
    below = np.nextafter(np.array([float(f"1e{e}") for e in range(-3, 17)]), 0.0)
    mixed = np.concatenate([carry, below])
    return mixed, np.concatenate([below, carry]), -mixed


def mirrored(values):
    """Three columns: the values, their negatives and the values reversed."""
    return values, -values, values[::-1]


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1, 1.0 / 3.0])
# each 10**e and its two neighbouring doubles, across the fixed-notation
# range of %.17g and past both of its ends
TENS = np.array([float(f"1e{e}") for e in range(-6, 18)])
POWERS_OF_TEN = np.concatenate([TENS, np.nextafter(TENS, 0.0), np.nextafter(TENS, np.inf)])


class TestEmitParse:
    @pytest.mark.parametrize("config", [ScanConfig("fock1", points=25, t_max=40.0),
                                        ScanConfig("squeezed1", points=40, t_max=5.0)],
                             ids=["fock1", "squeezed1"])
    def test_round_trip_bit_for_bit(self, tmp_path, config):
        # and the max comments name the row of the largest QFI
        dataset = scan(config)
        out = tmp_path / "roundtrip.csv"
        emit_csv(dataset, out)
        back = parse_csv(out)
        assert np.array_equal(back.t, dataset.t)
        assert np.array_equal(back.qfi, dataset.qfi)
        assert np.array_equal(back.fidelity, dataset.fidelity)
        assert back.metadata == dataset.metadata
        k = int(np.argmax(back.qfi))
        assert float(back.metadata["max_t"]) == back.t[k]
        assert float(back.metadata["max_qfi"]) == back.qfi[k]

    def test_parse_skips_blank_lines_and_needs_the_header(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# model=x\n\nt,qfi,fidelity\n\n1,2,0.5\n")
        back = parse_csv(path)
        assert (back.t.tolist(), back.qfi.tolist(), back.fidelity.tolist()) == ([1], [2], [0.5])
        assert back.metadata == {"model": "x"}
        path.write_text("# model=x\nt,q,f\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header 't,q,f'"):
            parse_csv(path)
        path.write_text("# model=x\n\n")
        with pytest.raises(ValueError, match="missing CSV header"):
            parse_csv(path)

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_bytes_equal_per_row_fstrings(self, tmp_path, model):
        dataset = scan(ScanConfig(model, points=200, t_max=30.0))
        out = tmp_path / "rows.csv"
        emit_csv(dataset, out)
        assert out.read_text(encoding="utf-8") == csv_fstring(dataset)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(*[st.one_of(st.floats(), st.floats(-1e16, 1e16))] * 3),
                    max_size=40))
    def test_rows_are_17g_on_any_doubles(self, rows):
        # nan, inf, -0.0 and subnormals take the per-cell path, the rest the
        # vectorised one; both must print what %.17g prints
        text, expected = emitted(*np.array(rows).reshape(-1, 3).T)
        assert text == expected

    @pytest.mark.parametrize("columns, rows", [
        (lambda: (EDGE_VALUES, EDGE_VALUES[::-1], np.abs(EDGE_VALUES)),
         ["\n-0,0.10000000000000001,0\n", "4.9406564584124654e-324"]),
        (exact_ties, []),  # %.17g rounds an exact tie half to even
        (lambda: mirrored(POWERS_OF_TEN), []),
        (carry_and_below, ["\n1e-14,", "\n0.099999999999999992,"]),
    ], ids=["edge_values", "exact_ties", "powers_of_ten", "carry_into_the_next_decade"])
    def test_rows_are_17g_on_chosen_doubles(self, columns, rows):
        text, expected = emitted(*columns())
        assert text == expected
        assert all(row in text for row in rows)


# argv that argparse rejects, printing its usage: (argv, exit code, a
# fragment of stderr)
USAGE_ERRORS = [
    (["scan", "--model", "nosuch"], 2, "--model"),
    (["scan", "--model", "thermal1", "--bogus", "1"], 2, "--bogus"),
    # the model fixes the estimand
    (["scan", "--model", "thermal1", "--estimand", "temperature", "--points", "3"], 2,
     "--estimand"),
    # nothing integrates any more, so an integrator tolerance would be
    # accepted and then ignored
    (["scan", "--model", "thermal2", "--points", "3", "--tol", "1e-9"], 2, "--tol"),
    (["figure", "--tag", "7q", "--out", "x.csv"], 2, "--tag"),
]
# argv that the checks behind the parser reject with a one-line diagnostic
ONE_LINE_ERRORS = [
    (["scan", "--model", "thermal1", "--gamma", "-1", "--points", "3"], 2, "gamma"),
    # rejected by ScanConfig before the time grid is allocated
    *((argv, 2, "points") for argv in (
        ["scan", "--model", "thermal1", "--points", "1000000000000"],
        ["figure", "--tag", "2a", "--points", "1000001", "--out", "never-written.csv"],
        ["scan", "--model", "thermal1", "--points", str(10**400)],  # no double holds it
        ["figure", "--tag", "2a", "--points", str(10**400), "--out", "never-written.csv"])),
    *((["scan", "--model", "thermal1", "--points", "3", flag, bad], 2, "finite")
      for bad in ("nan", "inf") for flag in ("--gamma", "--m", "--alpha", "--tmax")),
    *((["qfi", "--model", "fock1", "--delta", "inf", "--t", "1"], 2, "finite"),
      (["fidelity", "--model", "thermal2", "--gamma", "nan", "--t", "1"], 2, "finite"),
      (["qfi", "--model", "squeezed1", "--t", "nan"], 2, "finite"),
      (["qfi", "--model", "squeezed1", "--t", "inf"], 2, "finite")),
    (["qfi", "--model", "thermal1", "--t", "0"], 2, "--t"),
    # an unread flag is named as typed, not as the ScanConfig field behind
    # it; the two-qubit reservoir pairs start in a fixed Bell state
    (["scan", "--model", "fock2", "--photons", "3", "--points", "3"], 2,
     "model 'fock2' does not read --photons\n"),
    *((["scan", "--model", model, flag, "0.2", "--points", "3"], 2,
       f"model {model!r} does not read {flag}\n")
      for model, flag in (("fock1", "--m"), ("fock1", "--r"), ("thermal1", "--delta"),
                          ("fock2", "--gamma"), ("thermal2", "--alpha"), ("squeezed2", "--delta"))),
    *(([command, "--model", "fock2", "--photons", "3", "--t", "1"], 2,
       "model 'fock2' does not read --photons\n") for command in ("qfi", "fidelity")),
    # both point commands build the whole evaluator, chain factor and decay
    # or dressed rates included, and reject the value before numpy can
    # overflow; a phase rate * t past the double range is a NaN state
    *(([command, "--t", "1", *argv], 2, name) for argv, name in (
        (["--model", "thermal2", "--freq-scale", "0"], "freq_scale"),
        (["--model", "thermal2", "--freq-scale", "-1"], "freq_scale"),
        (["--model", "thermal2", "--freq-scale", "1e-300"], "chain factor"),
        (["--model", "thermal1", "--freq-scale", "1e300"], "chain factor"),
        (["--model", "thermal1", "--gamma", "0"], "gamma"),
        (["--model", "fock2", "--coupling", "0"], "coupling"),
        (["--model", "fock1", "--photons", "-1"], "photons"),
        (["--model", "thermal1", "--m", "-0.1"], "mean_occupation"),
        (["--model", "squeezed2", "--r", "-0.1"], "squeezing"),
        (["--model", "fock1", "--alpha", "120"], "alpha"),
        (["--model", "squeezed1", "--alpha", "-1"], "alpha"),
        (["--model", "squeezed1", "--r", "400"], "squeezing"),
        (["--model", "squeezed2", "--r", "400"], "squeezing"),
        (["--model", "squeezed2", "--r", "20", "--gamma", "1e300"], "squeezing"),
        (["--model", "thermal1", "--m", "1", "--gamma", "1e308"], "mean_occupation"),
        (["--model", "thermal2", "--m", "1", "--gamma", "1e308"], "mean_occupation"),
        (["--model", "fock1", "--photons", str(10**400)], "photons"),
        (["--model", "fock1", "--coupling", "1e308"], "coupling = 1e+308"),
        (["--model", "fock2", "--coupling", "1e160"], "coupling = 1e+160"),
        (["--model", "fock2", "--delta", "1e308", "--t", "10"], "detuning = 1e+308"),
        (["--model", "fock1", "--delta", "1e308", "--coupling", "8.9e307"], "detuning = 1e+308"),
        # value + h, the first stencil point whose rates overflow
        (["--model", "squeezed2", "--r", "354.89"], "squeezing = 354.8921490202306 at"),
        (["--model", "fock2", "--delta", "1.3407807929942e154", "--coupling", "1e-10"],
         "detuning = 1.3407889120312227e+154 at"),
        # 8 coupling^2 underflows to 0, and the value point's rate with it
        (["--model", "fock2", "--delta", "0", "--coupling", "1e-170"],
         "detuning = 0.0 at coupling = 1e-170 underflows the rate"),
        (["--model", "fock1", "--delta", "1e308", "--t", "10"], "NaN"),
        (["--model", "fock1", "--delta", "1e200", "--t", "1e200"], "NaN"),
        (["--model", "fock2", "--delta", "1e100", "--t", "1e300"], "NaN"),
    ) for command in ("qfi", "fidelity")),
    (["scan", "--model", "thermal1", "--points", "2", "--tmax", "1",
      "--out", "/nonexistent-dir/x.csv"], 1, "error"),
]


@pytest.mark.parametrize("argv, code, fragment, usage", [
    pytest.param(argv, code, fragment, usage, id=" ".join(arg[:12] for arg in argv))
    for table, usage in ((USAGE_ERRORS, True), (ONE_LINE_ERRORS, False))
    for argv, code, fragment in table])
def test_rejected_argv(capsys, argv, code, fragment, usage):
    # nothing on stdout and no floating-point warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and fragment in err and caught == []
    assert err.startswith("usage:") == usage
    assert usage or err.count("\n") == 1


class TestScanCommand:
    def test_writes_csv_to_out_or_stdout(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--model", "thermal1", "--m", "0.1", "--gamma", "1", "--alpha", "45",
                "--tmin", "0.01", "--tmax", "50", "--points", "8"]
        assert run(argv + ["--out", str(out)]) == 0
        lines = read_lines(out)
        assert "t,qfi,fidelity" in lines
        assert len([l for l in lines if l and not l.startswith("#")]) == 9
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_model_flags_map_onto_model_fields(self):
        flags = [flag for flag, _, _, _ in MODEL_FLAGS]
        names = [name for _, name, _, _ in MODEL_FLAGS]
        assert len(set(flags)) == len(flags) and len(set(names)) == len(names)
        assert set(names) == {name for _, read, *_ in MODELS.values() for name in read}
        parser = build_parser()
        # an absent flag leaves the ScanConfig default in place
        args = parser.parse_args(["qfi", "--model", "fock1", "--t", "1"])
        assert not any(name in args for name in names)
        for flag, name, _, _ in MODEL_FLAGS:
            args = parser.parse_args(["qfi", "--model", "fock1", flag, "0", "--t", "1"])
            assert getattr(args, name) == 0


def test_figure_writes_one_file_per_series(tmp_path):
    base = tmp_path / "fig2a.csv"
    assert run(["figure", "--tag", "2a", "--points", "10", "--out", str(base)]) == 0
    for series in ("alpha0", "alpha45"):
        rows = [l for l in read_lines(tmp_path / f"fig2a_{series}.csv")
                if l and not l.startswith("#")]
        assert len(rows) == 11  # header + 10 grid rows


class TestPointCommands:
    def test_fidelity_single_point(self, capsys):
        # pure reference state: f = (1 + 2 rho_12) / 2; acceptance criterion
        # 3 holds the steady-state QFI
        assert run(["fidelity", "--model", "thermal1", "--m", "0.1", "--gamma", "1", "--alpha",
                    "45", "--t", "1"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.5 * (1.0 + np.exp(-0.6)), abs=1e-10)

    @pytest.mark.parametrize("argv, steady", [
        (["qfi", "--model", "thermal1"], "2.525521320850745\n"),
        (["fidelity", "--model", "thermal2"], "0.77638539919628347\n"),
        # the tangent kernels' derivative rows multiply -rate t by
        # exp(-rate t): clipped to the doubles, rate * t = 1e310 gives 0
        # there, not inf * 0
        (["qfi", "--model", "thermal2"], "5.0510426406773137\n"),
        (["qfi", "--model", "squeezed2"], "7.6883438637289334\n"),
    ])
    def test_decay_exponent_past_the_double_range(self, capsys, argv, steady):
        # rate * t = 1e310 overflows to inf, and exp(-inf) = 0 is the
        # steady state, which prints with no warning; t = 1 reaches it
        # without overflowing
        argv = argv + ["--gamma", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in ("1e10", "1"):
                assert run(argv + ["--t", t]) == 0
                assert capsys.readouterr() == (steady, "")

    def test_prints_what_the_library_computes_and_the_recorded_bytes(self, capsys):
        # every line byte for byte; the thermal2 and squeezed2 QFI lines
        # were recorded from their tangent kernels
        recorded = [line.split("\t") for line in POINT_OUTPUTS.read_text().splitlines()]
        queries = seeded_queries()
        assert [" ".join(argv) for argv, *_ in queries] == [argv for argv, _ in recorded]
        for (argv, command, config, t), (_, expected) in zip(queries, recorded):
            point = point_qfi if command == "qfi" else point_fidelity
            assert run(argv) == 0
            assert capsys.readouterr() == (f"{point(config, t):.17g}\n", "")
            assert f"{point(config, t):.17g}" == expected


class TestParserReuse:
    """run parses every call with one parser per process."""

    VALID = ["qfi", "--model", "thermal2", "--m", "0.3", "--gamma", "1.5", "--t", "2.5"]

    @pytest.mark.parametrize("argv, code, text", [
        # argv that names no command, or leaves arguments over
        ([], 2, None),
        (["--help"], 0, None),
        (["bogus"], 2, None),
        (["qfi", "--model", "fock1", "--t", "1", "stray"], 2, None),
        (["qfi", "--model", "fock1", "--t", "1", "--bogus"], 2, None),
        (["--model", "fock1", "qfi", "--t", "1"], 2, None),
        # argv of one command
        (["qfi", "--", "--model", "fock1", "--t", "1"], 2, None),
        (["qfi", "--model", "fock1", "--t", "1", "--"], 2, None),
        (["qfi", "--mod", "fock1", "--t", "1"], 0, None),
        (["fidelity", "--model", "thermal1", "--t", "1", "--t", "2"], 0, None),
        (["qfi", "--model", "fock2", "--t", "1", "-h"], 0, None),
        (["qfi", "--model", "fock1", "--t", "x"], 2, None),
        (["fidelity", "--model", "fock3", "--t", "1"], 2, None),
        (["qfi", "--model", "fock1"], 2, None),
        (["fidelity", "--t", "1"], 2, None),
        (["scan", "--model", "fock1", "--points", "2", "stray"], 2, None),
        (["figure", "--tag", "1a", "--out", "{tmp}/f.csv", "stray"], 2, None),
        (["qfi", "--model", "fock1", "--bogus", "1", "--t", "1"], 2, "--bogus"),
        (["qfi", "--model", "fock1", "--gamma", "0.5", "--t", "1"], 2, "does not read --gamma"),
        (["fidelity", "--model", "squeezed1", "--r", "nan", "--t", "1"], 2, "finite"),
        (["qfi", "--help"], 0, "usage: qfi-probe qfi"),
    ], ids=["no-arguments", "help", "unknown-command", "stray-positional", "unknown-flag",
            "option-before-command", "dashes-first", "dashes-last", "abbreviated-flag",
            "repeated-flag", "help-last", "bad-float", "bad-model", "missing-t", "missing-model",
            "scan-stray", "figure-stray", "unknown-flag-value", "unread-flag", "nonfinite-flag",
            "command-help"])
    def test_answers_as_a_fresh_top_level_parser(self, capsys, monkeypatch, tmp_path, argv,
                                                 code, text):
        # exit code, stdout and stderr are those of a fresh top-level
        # parser, which run uses when argv names no command, and the
        # process's parser carries no state into the next valid query
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run(self.VALID) == 0
        first = capsys.readouterr()
        answer = (run(argv), *capsys.readouterr())
        assert answer[0] == code and (text is None or text in answer[1] + answer[2])
        assert run(self.VALID) == 0
        assert capsys.readouterr() == first and first.err == ""
        monkeypatch.setattr(cli, "_parser", lambda: (build_parser(), {}))
        assert (run(argv), *capsys.readouterr()) == answer
        assert not any(tmp_path.iterdir())

    def test_a_point_query_is_parsed_once(self, capsys, monkeypatch):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *args: calls.append(self.prog) or parse(self, *args))
        assert run(self.VALID) == 0
        assert calls == ["qfi-probe qfi"]

    def test_run_reads_sys_argv_and_entrypoint_exits_with_its_code(self, capsys, monkeypatch):
        assert run(self.VALID) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["qfi-probe", *self.VALID])
        assert run() == 0
        assert capsys.readouterr() == expected
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == 0 and capsys.readouterr() == expected
        monkeypatch.setattr(sys, "argv", ["qfi-probe", "qfi", "--model", "fock1", "--t", "0"])
        assert run() == 2
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == 2
        assert capsys.readouterr().err.count("--t must be positive and finite") == 2

    def test_point_functions_looked_up_per_call(self, capsys, monkeypatch):
        # the parser holds no library function, so a rebinding after the
        # first run (a tracer's wrapper, say) serves the next query
        assert run(self.VALID) == 0
        calls = []
        monkeypatch.setattr(cli, "point_qfi", lambda config, t: calls.append("qfi") or 1.5)
        monkeypatch.setattr(cli, "point_fidelity",
                            lambda config, t: calls.append("fidelity") or 0.25)
        assert run(self.VALID) == 0
        assert run(["fidelity", *self.VALID[1:]]) == 0
        assert calls == ["qfi", "fidelity"]
        assert capsys.readouterr().out.splitlines()[1:] == ["1.5", "0.25"]


def test_import_builds_no_parser_and_loads_numpy_only():
    # sympy, scipy, mpmath and hypothesis serve the tests only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, qfi_probe, qfi_probe.cli as c; print(c._parser.cache_info().currsize,"
            " sorted({'sympy', 'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "0 []\n"
