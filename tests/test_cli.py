"""Tests for the command-line interface and CSV serialization."""

import numpy as np
import pytest

from qfi_probe.cli import build_parser, emit_csv, parse_csv, run
from qfi_probe.scan_repro import ScanConfig, scan


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


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
                "scan", "--model", "thermal1", "--estimand", "temperature",
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
    ])
    def test_too_many_points_exits_2(self, capsys, argv):
        # rejected by ScanConfig before the time grid is allocated
        assert run(argv) == 2
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--m", "--alpha", "--tmax"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_value_exits_2(self, capsys, flag, bad):
        assert run(["scan", "--model", "thermal1", "--points", "3", flag, bad]) == 2
        assert "finite" in capsys.readouterr().err

    def test_photons_on_two_qubit_model_exits_2(self, capsys):
        assert run(["scan", "--model", "fock2", "--photons", "3", "--points", "3"]) == 2
        assert "photons" in capsys.readouterr().err

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
