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
    FIGURE_TAGS,
    MODEL_IDS,
    MODELS,
    ScanConfig,
    ScanDataset,
    point_fidelity,
    point_qfi,
    reproduce_figure,
    scan,
)

GRID = ["t_min=0.01", "t_max=50", "points=2000"]
# the metadata lines of each model's default scan, in order; the max_index,
# max_t and max_qfi lines follow
DEFAULT_METADATA = {
    "fock1": ["model=fock1", "estimand=detuning", "alpha_deg=45", *GRID,
              "detuning=5", "coupling=1", "photons=0"],
    "thermal1": ["model=thermal1", "estimand=temperature", "alpha_deg=45", *GRID,
                 "mean_occupation=0.10000000000000001", "gamma=1", "freq_scale=1"],
    "squeezed1": ["model=squeezed1", "estimand=squeezing", "alpha_deg=45", *GRID,
                  "squeezing=0.10000000000000001", "gamma=1"],
    "fock2": ["model=fock2", "estimand=detuning", "alpha_deg=45", *GRID,
              "detuning=5", "coupling=1"],
    "thermal2": ["model=thermal2", "estimand=temperature", *GRID,
                 "mean_occupation=0.10000000000000001", "gamma=1", "freq_scale=1"],
    "squeezed2": ["model=squeezed2", "estimand=squeezing", *GRID,
                  "squeezing=0.10000000000000001", "gamma=1"],
}

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


def exact_ties(count_per_k=200, seed=23):
    """Doubles a = j / 2**(k + 1), j odd, k = 1..20, whose exact decimal
    has 18 significant digits ending in 5: %.17g rounds a tie, half to
    even. Each k fills the decade [10**(16 - k), 10**(17 - k)), so the
    integer and the k + 1 fraction digits make 18; j < 2**53 is exact."""
    rng = np.random.default_rng(seed)
    ties = []
    for k in range(1, 21):
        scale = 2 ** (k + 1)
        first = -(-scale * 10 ** 16 // 10 ** k)  # ceil(scale * 10**(16 - k))
        stop = min(scale * 10 ** 17 // 10 ** k, 2 ** 53)
        for half in rng.integers(first // 2, (stop - 1) // 2, count_per_k).tolist():
            ties.append((2 * half + 1) / scale)
    return np.array(ties)


class TestEmitParse:
    def test_layout(self, tmp_path):
        dataset = scan(ScanConfig("thermal1", points=2, t_max=1.0))
        out = tmp_path / "tiny.csv"
        emit_csv(dataset, out)
        lines = read_lines(out)
        comments = [l for l in lines if l.startswith("#")]
        assert len(comments) == len(dataset.metadata)
        assert lines[len(comments)] == "t,qfi,fidelity"
        assert len(lines) == len(comments) + 1 + 2
        assert any(l.startswith("# max_t=") for l in comments)
        assert any(l.startswith("# max_qfi=") for l in comments)

    def test_lf_endings_and_utf8(self, tmp_path):
        dataset = scan(ScanConfig("thermal1", points=3, t_max=1.0))
        out = tmp_path / "endings.csv"
        emit_csv(dataset, out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_round_trip_bit_for_bit(self, tmp_path):
        dataset = scan(ScanConfig("fock1", points=25, t_min=0.01, t_max=40.0))
        out = tmp_path / "roundtrip.csv"
        emit_csv(dataset, out)
        back = parse_csv(out)
        assert np.array_equal(back.t, dataset.t)
        assert np.array_equal(back.qfi, dataset.qfi)
        assert np.array_equal(back.fidelity, dataset.fidelity)
        assert back.metadata == dataset.metadata

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

    def test_bytes_equal_per_row_fstrings_on_edge_values(self, tmp_path):
        values = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1, 1.0 / 3.0])
        dataset = ScanDataset(values, values[::-1].copy(), np.abs(values), {"model": "x"})
        out = tmp_path / "edge.csv"
        emit_csv(dataset, out)
        text = out.read_text(encoding="utf-8")
        assert text == csv_fstring(dataset)
        assert "\n-0,0.10000000000000001,0\n" in text and "4.9406564584124654e-324" in text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.floats(), st.floats(-1e16, 1e16))] * 3),
                    max_size=40))
    def test_rows_are_17g_on_any_doubles(self, rows):
        # nan, inf, -0.0 and subnormals take the per-cell path, the rest the
        # vectorised one; both must print what %.17g prints
        text, expected = emitted(*np.array(rows).reshape(-1, 3).T)
        assert text == expected

    def test_rows_round_exact_ties_half_to_even(self):
        ties = exact_ties()
        assert len(ties) == 4000
        for a in ties.tolist():
            digits = decimal.Decimal(a).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        text, expected = emitted(ties, -ties, ties[::-1])
        assert text == expected

    def test_rows_at_powers_of_ten(self):
        # each 10**e and its two neighbouring doubles, both signs, across
        # the fixed-notation range of %.17g and past both of its ends
        tens = np.array([float(f"1e{e}") for e in range(-6, 18)])
        values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        text, expected = emitted(values, -values, values[::-1])
        assert text == expected

    def test_rows_that_carry_into_the_next_decade(self):
        # doubles just below 10**e that %.17g rounds up to 10**e (all lie
        # outside [1e-4, 1e16)), and the largest double below each 10**e
        # inside it, which keeps its seventeen 9s
        exponents = (-305, -243, -176, -79, -73, -14, 98, 129, 153)
        carry = np.array([float(f"1e{e}") for e in exponents])
        assert all(decimal.Decimal(v) < 10 ** decimal.Decimal(e)
                   for v, e in zip(carry.tolist(), exponents))
        below = np.nextafter(np.array([float(f"1e{e}") for e in range(-3, 17)]), 0.0)
        text, expected = emitted(np.concatenate([carry, below]), np.concatenate([below, carry]),
                                 -np.concatenate([carry, below]))
        assert text == expected
        assert "\n1e-14," in text and "\n0.099999999999999992," in text

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_default_metadata_lines(self, tmp_path, model):
        out = tmp_path / "default.csv"
        emit_csv(scan(ScanConfig(model)), out)
        comments = [l for l in read_lines(out) if l.startswith("#")]
        assert comments[:-3] == [f"# {line}" for line in DEFAULT_METADATA[model]]
        assert [l.partition("=")[0] for l in comments[-3:]] == [
            "# max_index", "# max_t", "# max_qfi"]

    def test_max_comment_consistent_with_rows(self, tmp_path):
        dataset = scan(ScanConfig("squeezed1", points=40, t_max=5.0))
        out = tmp_path / "maxrow.csv"
        emit_csv(dataset, out)
        back = parse_csv(out)
        k = int(np.argmax(back.qfi))
        assert float(back.metadata["max_t"]) == back.t[k]
        assert float(back.metadata["max_qfi"]) == back.qfi[k]


class TestScanCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "scan", "--model", "thermal1",
                "--m", "0.1", "--gamma", "1", "--alpha", "45",
                "--tmin", "0.01", "--tmax", "50", "--points", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = read_lines(out)
        assert "t,qfi,fidelity" in lines
        assert len([l for l in lines if l and not l.startswith("#")]) == 9

    def test_stdout_when_no_out(self, capsys):
        assert run(["scan", "--model", "thermal1", "--points", "3", "--tmax", "2"]) == 0
        captured = capsys.readouterr()
        assert "t,qfi,fidelity" in captured.out

    def test_unknown_model_exits_2(self, capsys):
        assert run(["scan", "--model", "nosuch"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["scan", "--model", "thermal1", "--bogus", "1"]) == 2
        assert "--bogus" in capsys.readouterr().err

    def test_invalid_parameter_exits_2(self, capsys):
        assert run(["scan", "--model", "thermal1", "--gamma", "-1", "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert "gamma" in err

    @pytest.mark.parametrize("argv", [
        ["scan", "--model", "thermal1", "--points", "1000000000000"],
        ["figure", "--tag", "2a", "--points", "1000001", "--out", "never-written.csv"],
        ["scan", "--model", "thermal1", "--points", str(10**400)],  # no double holds it
        ["figure", "--tag", "2a", "--points", str(10**400), "--out", "never-written.csv"],
    ])
    def test_too_many_points_exits_2(self, capsys, argv):
        # rejected by ScanConfig before the time grid is allocated
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "points" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--gamma", "--m", "--alpha", "--tmax"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_value_exits_2(self, capsys, flag, bad):
        assert run(["scan", "--model", "thermal1", "--points", "3", flag, bad]) == 2
        assert "finite" in capsys.readouterr().err

    def test_photons_on_two_qubit_model_exits_2(self, capsys):
        assert run(["scan", "--model", "fock2", "--photons", "3", "--points", "3"]) == 2
        assert capsys.readouterr().err.endswith("model 'fock2' does not read --photons\n")

    def test_unread_flag_exits_2(self, capsys):
        # the two-qubit reservoir pairs start in a fixed Bell state
        assert run(["scan", "--model", "thermal2", "--alpha", "30"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("model, flag", [("fock1", "--m"), ("fock1", "--r"),
                                             ("thermal1", "--delta"), ("fock2", "--gamma"),
                                             ("thermal2", "--alpha"), ("squeezed2", "--delta")])
    def test_unread_flag_is_named(self, capsys, model, flag):
        # the flag as typed, not the ScanConfig field behind it
        assert run(["scan", "--model", model, flag, "0.2", "--points", "3"]) == 2
        assert capsys.readouterr().err.endswith(f"model {model!r} does not read {flag}\n")

    @pytest.mark.parametrize("argv, name", [
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
    ])
    @pytest.mark.parametrize("command", ["qfi", "fidelity"])
    def test_out_of_domain_value_exits_2(self, capsys, command, argv, name):
        # both commands build the whole evaluator, chain factor and decay
        # or dressed rates included, and reject the value before numpy can
        # overflow; a phase rate * t past the double range is a NaN state
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command, "--t", "1", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert name in err and err.count("\n") == 1
        assert caught == []

    def test_estimand_flag_removed(self, capsys):
        # the model fixes the estimand
        argv = ["scan", "--model", "thermal1", "--estimand", "temperature", "--points", "3"]
        assert run(argv) == 2
        assert "--estimand" in capsys.readouterr().err

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

    def test_tol_flag_removed(self, capsys):
        # nothing integrates any more, so an integrator tolerance would be
        # accepted and then ignored
        assert run(["scan", "--model", "thermal2", "--points", "3", "--tol", "1e-9"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_unwritable_path_exits_1(self, capsys):
        code = run(
            ["scan", "--model", "thermal1", "--points", "2", "--tmax", "1",
             "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["scan", "--model", "squeezed1", "--r", "0.1", "--points", "12",
                "--tmax", "5", "--out", ""]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(argv[:-1] + [str(a)])
        run(argv[:-1] + [str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommand:
    def test_two_alpha_series_files(self, tmp_path):
        base = tmp_path / "fig2a.csv"
        assert run(["figure", "--tag", "2a", "--points", "10", "--out", str(base)]) == 0
        for series in ("alpha0", "alpha45"):
            path = tmp_path / f"fig2a_{series}.csv"
            assert path.exists()
            rows = [l for l in read_lines(path) if l and not l.startswith("#")]
            assert len(rows) == 11  # header + 10 grid rows

    def test_default_grid_is_2000_points(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "--tag", "1a", "--out", "x.csv"])
        assert args.points == 2000

    def test_unknown_tag_exits_2(self, capsys):
        assert run(["figure", "--tag", "7q", "--out", "x.csv"]) == 2
        assert "--tag" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", FIGURE_TAGS)
    def test_files_are_17g_rows(self, tmp_path, tag):
        # fig 1a's QFI column near t_min prints in scientific notation
        assert run(["figure", "--tag", tag, "--out", str(tmp_path / "fig.csv")]) == 0
        for dataset in reproduce_figure(tag):
            path = tmp_path / f"fig_{dataset.metadata['series']}.csv"
            assert path.read_bytes() == csv_fstring(dataset).encode("utf-8")


class TestPointCommands:
    def test_qfi_single_point(self, capsys):
        code = run(["qfi", "--model", "thermal1", "--m", "0.1", "--gamma", "1",
                    "--alpha", "45", "--t", "50"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2.5255, abs=1e-3)

    def test_fidelity_single_point(self, capsys):
        code = run(["fidelity", "--model", "thermal1", "--m", "0.1", "--gamma", "1",
                    "--alpha", "45", "--t", "1"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        # pure reference state: f = (1 + 2 rho_12) / 2
        assert value == pytest.approx(0.5 * (1.0 + np.exp(-0.6)), abs=1e-10)

    @pytest.mark.parametrize("argv, steady", [
        (["qfi", "--model", "thermal1"], "2.525521320850745\n"),
        (["fidelity", "--model", "thermal2"], "0.77638539919628347\n"),
    ])
    def test_decay_exponent_past_the_double_range(self, capsys, argv, steady):
        # rate * t = 1e310 overflows to inf, and exp(-inf) = 0 is the
        # steady state; t = 1 reaches it without overflowing
        argv = argv + ["--gamma", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--t", "1e10"]) == 0
            assert capsys.readouterr() == (steady, "")
            assert run(argv + ["--t", "1"]) == 0
            assert capsys.readouterr() == (steady, "")

    def test_nonpositive_time_rejected(self, capsys):
        assert run(["qfi", "--model", "thermal1", "--t", "0"]) == 2
        assert "--t" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["qfi", "--model", "fock1", "--delta", "inf", "--t", "1"],
        ["fidelity", "--model", "thermal2", "--gamma", "nan", "--t", "1"],
        ["qfi", "--model", "squeezed1", "--t", "nan"],
        ["qfi", "--model", "squeezed1", "--t", "inf"],
    ])
    def test_nonfinite_point_input_exits_2(self, capsys, argv):
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qfi", "fidelity"])
    def test_unread_flag_is_named(self, capsys, command):
        assert run([command, "--model", "fock2", "--photons", "3", "--t", "1"]) == 2
        assert capsys.readouterr().err.endswith("model 'fock2' does not read --photons\n")

    def test_prints_what_the_library_computes(self, capsys):
        for argv, command, config, t in seeded_queries():
            point = point_qfi if command == "qfi" else point_fidelity
            assert run(argv) == 0
            assert capsys.readouterr() == (f"{point(config, t):.17g}\n", "")

    def test_prints_the_recorded_bytes(self, capsys):
        # squeezed2 QFI lines recorded before its decay rates became exact
        # moved by at most 1e-12 relative on these draws; every other line
        # is compared byte for byte
        recorded = [line.split("\t") for line in POINT_OUTPUTS.read_text().splitlines()]
        queries = seeded_queries()
        assert [" ".join(argv) for argv, *_ in queries] == [argv for argv, _ in recorded]
        for (argv, command, config, _), (_, expected) in zip(queries, recorded):
            assert run(argv) == 0
            out = capsys.readouterr().out
            if command == "qfi" and config.model_id == "squeezed2":
                assert float(out) == pytest.approx(float(expected), rel=1e-12, abs=0.0)
            else:
                assert out == expected + "\n"


class TestParserReuse:
    """run parses every call with one parser per process."""

    VALID = ["qfi", "--model", "thermal2", "--m", "0.3", "--gamma", "1.5", "--t", "2.5"]

    @pytest.mark.parametrize("argv, code, text", [
        (["qfi", "--model", "fock1", "--bogus", "1", "--t", "1"], 2, "--bogus"),
        (["qfi", "--model", "fock1", "--gamma", "0.5", "--t", "1"], 2, "does not read --gamma"),
        (["fidelity", "--model", "squeezed1", "--r", "nan", "--t", "1"], 2, "finite"),
        (["qfi", "--help"], 0, "usage: qfi-probe qfi"),
    ])
    def test_no_state_carried_between_calls(self, capsys, argv, code, text):
        assert run(self.VALID) == 0
        first = capsys.readouterr()
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert text in (out if code == 0 else err)
        if code == 0:
            # the same help a fresh parser prints
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert capsys.readouterr().out == out
        assert run(self.VALID) == 0
        assert capsys.readouterr() == first and first.err == ""

    @pytest.mark.parametrize("argv", [
        [],
        ["--help"],
        ["bogus"],
        ["qfi", "--model", "fock1", "--t", "1", "stray"],
        ["qfi", "--model", "fock1", "--t", "1", "--bogus"],
        ["--model", "fock1", "qfi", "--t", "1"],
    ], ids=["no-arguments", "help", "unknown-command", "stray-positional", "unknown-flag",
            "option-before-command"])
    def test_top_level_messages_as_a_fresh_parser_gives_them(self, capsys, argv):
        # the messages of argv that names no command, or leaves arguments
        # over: the process's parser gives a fresh parser's exit code,
        # stdout and stderr
        assert run(self.VALID) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        expected = (exit_.value.code, *capsys.readouterr())
        assert (run(argv), *capsys.readouterr()) == expected
        assert run(self.VALID) == 0
        assert capsys.readouterr() == first

    @pytest.mark.parametrize("argv", [
        ["qfi", "--", "--model", "fock1", "--t", "1"],
        ["qfi", "--model", "fock1", "--t", "1", "--"],
        ["qfi", "--mod", "fock1", "--t", "1"],
        ["fidelity", "--model", "thermal1", "--t", "1", "--t", "2"],
        ["qfi", "--model", "fock2", "--t", "1", "-h"],
        ["qfi", "--model", "fock1", "--t", "x"],
        ["fidelity", "--model", "fock3", "--t", "1"],
        ["qfi", "--model", "fock1"],
        ["fidelity", "--t", "1"],
        ["scan", "--model", "fock1", "--points", "2", "stray"],
        ["figure", "--tag", "1a", "--out", "{tmp}/f.csv", "stray"],
    ], ids=["dashes-first", "dashes-last", "abbreviated-flag", "repeated-flag", "help-last",
            "bad-float", "bad-model", "missing-t", "missing-model", "scan-stray",
            "figure-stray"])
    def test_one_pass_answers_as_the_top_level_parser(self, capsys, monkeypatch, tmp_path,
                                                      argv):
        # exit code, stdout and stderr of the one-pass parse are those of
        # the top-level parser, which run uses when argv names no command
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        one_pass = (run(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "_parser", lambda: (build_parser(), {}))
        assert (run(argv), *capsys.readouterr()) == one_pass
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

    def test_no_parser_built_at_import(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import qfi_probe.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "0\n"


def test_package_imports_numpy_only():
    # sympy, scipy, mpmath and hypothesis serve the tests only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, qfi_probe, qfi_probe.cli; "
            "print(sorted({'sympy', 'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "[]\n"
