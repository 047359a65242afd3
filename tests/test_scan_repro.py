"""Tests for scans, maxima refinement, backflow detection, and the figure
dataset builders. Grids are kept small here; the full-resolution runs live
in the acceptance suite."""

import numpy as np
import pytest

from qfi_probe import scan_repro
from qfi_probe.qfi_engine import occupation_slope, temperature_from_occupation
from qfi_probe.qstate import validate_density
from qfi_probe.scan_repro import (
    MODEL_IDS,
    ScanConfig,
    ScanDataset,
    backflow_intervals,
    discrepancy_report,
    find_max,
    point_fidelity,
    point_qfi,
    reproduce_figure,
    scan,
)


def fock_config(alpha=np.pi / 4, points=400):
    return ScanConfig(
        "fock1", alpha=alpha, t_min=0.01, t_max=100.0, points=points, detuning=5.0
    )


class TestScanConfig:
    def test_estimand_defaulted_from_model(self):
        assert ScanConfig("thermal1").estimand == "temperature"

    def test_incompatible_estimand_rejected(self):
        with pytest.raises(ValueError, match="estimates"):
            ScanConfig("fock1", estimand="temperature")

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ScanConfig("fock1", t_min=0.0)
        with pytest.raises(ValueError, match="exceed"):
            ScanConfig("fock1", t_min=1.0, t_max=1.0)
        with pytest.raises(ValueError, match="points"):
            ScanConfig("fock1", points=1)
        with pytest.raises(ValueError, match="points"):
            ScanConfig("fock1", points=10**12)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            ScanConfig("nosuch")

    @pytest.mark.parametrize(
        "field", ["t_min", "t_max", "alpha", "detuning", "coupling",
                  "mean_occupation", "gamma", "squeezing", "freq_scale"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match="not finite"):
            ScanConfig("thermal1", points=3, **{field: bad})

    def test_nonfinite_point_time_raises(self):
        with pytest.raises(ValueError):
            point_qfi(ScanConfig("thermal1"), np.nan)

    def test_photons_rejected_for_two_qubit_cavity(self):
        # the two-qubit closed form needs an empty cavity
        with pytest.raises(ValueError, match="photons"):
            scan(ScanConfig("fock2", photons=3, points=3))


class TestScan:
    def test_two_point_contract(self):
        dataset = scan(ScanConfig("thermal1", t_min=1.0, t_max=1.001, points=2))
        assert dataset.t.shape == (2,)
        assert dataset.t[0] < dataset.t[1]
        assert np.all(dataset.qfi >= 0.0)
        assert np.all((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0))

    def test_rows_are_valid_states(self):
        config = ScanConfig("squeezed1", alpha=np.pi / 4, points=20, t_max=5.0)
        from qfi_probe.scan_repro import build_channel, time_grid

        channel = build_channel(config)
        for t in time_grid(config):
            validate_density(channel.states(channel.value, [t]))

    def test_temperature_chain_rule_applied(self):
        config = ScanConfig("thermal1", alpha=0.0, t_min=40.0, t_max=50.0, points=3)
        dataset = scan(config)
        slope = occupation_slope(temperature_from_occupation(0.1, 1.0), 1.0)
        steady_fm = 1.0 / ((1.2**2) * 0.1 * 1.1)
        np.testing.assert_allclose(dataset.qfi, steady_fm * slope**2, rtol=1e-6)

    def test_metadata_echo(self):
        dataset = scan(ScanConfig("thermal1", points=4, t_max=2.0))
        md = dataset.metadata
        assert md["model"] == "thermal1"
        assert md["estimand"] == "temperature"
        assert md["points"] == "4"
        assert md["mean_occupation"] == "0.10000000000000001"
        assert int(md["max_index"]) == int(np.argmax(dataset.qfi))

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_rows_independent_of_block_size(self, model, monkeypatch):
        config = ScanConfig(model, points=300, t_max=20.0)
        monkeypatch.setattr(scan_repro, "BLOCK_BYTES", 10**9)
        whole = scan(config)
        # 7 two-qubit or 28 one-qubit rows per block
        monkeypatch.setattr(scan_repro, "BLOCK_BYTES", 7 * 16 * 16)
        blocked = scan(config)
        np.testing.assert_array_equal(blocked.qfi, whole.qfi)
        np.testing.assert_array_equal(blocked.fidelity, whole.fidelity)

    @pytest.mark.parametrize("model", ["fock2", "thermal2", "squeezed2"])
    def test_two_qubit_metadata_omits_alpha(self, model):
        md = scan(ScanConfig(model, points=3, t_max=1.0)).metadata
        assert "alpha_deg" not in md
        assert md["model"] == model

    @pytest.mark.parametrize("model", ["fock1", "thermal1", "squeezed1"])
    def test_one_qubit_metadata_keeps_alpha(self, model):
        md = scan(ScanConfig(model, points=3, t_max=1.0, alpha=0.3)).metadata
        assert md["alpha_deg"] == format(np.degrees(0.3), ".17g")

    def test_deterministic(self):
        a = scan(fock_config(points=50))
        b = scan(fock_config(points=50))
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.qfi, b.qfi)
        assert np.array_equal(a.fidelity, b.fidelity)
        assert a.metadata == b.metadata

    def test_point_helpers_match_scan(self):
        config = ScanConfig("squeezed1", alpha=np.pi / 4, t_min=0.5, t_max=2.0, points=4)
        dataset = scan(config)
        k = 2
        assert point_qfi(config, float(dataset.t[k])) == pytest.approx(
            float(dataset.qfi[k]), rel=1e-12
        )
        assert point_fidelity(config, float(dataset.t[k])) == pytest.approx(
            float(dataset.fidelity[k]), rel=1e-12
        )


@pytest.mark.parametrize("model", MODEL_IDS)
def test_point_queries_equal_scan_rows(model):
    # a point query is a grid of length 1 through the scan's own path
    config = ScanConfig(model, t_min=0.5, t_max=40.0, points=50, alpha=0.6)
    dataset = scan(config)
    for k in (0, 7, 23, 49):
        t = float(dataset.t[k])
        assert point_qfi(config, t) == pytest.approx(float(dataset.qfi[k]), rel=1e-12)
        assert point_fidelity(config, t) == pytest.approx(
            float(dataset.fidelity[k]), rel=1e-12
        )


class TestFindMax:
    def test_monotone_dataset_returns_last_point(self):
        t = np.linspace(1.0, 2.0, 10)
        dataset = ScanDataset(t, t**2, np.ones_like(t), {})
        assert find_max(dataset) == (2.0, 4.0)

    def test_parabola_refined_to_vertex(self):
        parabola = lambda t: -((t - 3.0) ** 2) + 9.0
        t = np.linspace(0.0, 6.0, 11)  # vertex falls between grid points
        t = t + 0.13
        dataset = ScanDataset(t, parabola(t), np.ones_like(t), {}, qfi_fn=parabola)
        t_star, q_star = find_max(dataset)
        assert t_star == pytest.approx(3.0, abs=1e-6)
        assert q_star == pytest.approx(9.0, abs=1e-9)
        assert q_star >= dataset.qfi.max()

    def test_refined_value_at_least_grid_value(self):
        dataset = scan(fock_config(points=300))
        _, refined = find_max(dataset)
        assert refined >= dataset.qfi.max()

    def test_empty_dataset(self):
        empty = ScanDataset(np.array([]), np.array([]), np.array([]), {})
        with pytest.raises(ValueError, match="empty"):
            find_max(empty)

    def test_reproducible(self):
        dataset = scan(fock_config(points=200))
        assert find_max(dataset) == find_max(dataset)

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_every_model_refines(self, model):
        config = ScanConfig(model, t_max=30.0, points=60)
        dataset = scan(config)
        assert dataset.qfi_fn is not None
        t_star, q_star = find_max(dataset)
        assert q_star >= dataset.qfi.max()
        assert q_star == pytest.approx(point_qfi(config, t_star), rel=1e-12)


class TestBackflowIntervals:
    def test_monotone_is_empty(self):
        t = np.linspace(1.0, 2.0, 20)
        assert backflow_intervals(ScanDataset(t, t, np.ones_like(t), {})) == []

    def test_single_revival(self):
        t = np.arange(6.0)
        qfi = np.array([0.0, 2.0, 1.0, 0.5, 1.5, 2.5])
        intervals = backflow_intervals(ScanDataset(t, qfi, np.ones_like(t), {}))
        assert intervals == [(3.0, 5.0)]

    def test_initial_rise_not_counted(self):
        t = np.arange(4.0)
        qfi = np.array([0.0, 1.0, 2.0, 3.0])
        assert backflow_intervals(ScanDataset(t, qfi, np.ones_like(t), {})) == []

    def test_oscillatory_cavity_scan(self):
        dataset = scan(fock_config(alpha=0.0, points=600))
        assert len(backflow_intervals(dataset)) >= 5

    def test_thermal_nonsuperposed_single_revival(self):
        # the population sensitivity to the occupation crosses zero near
        # gamma t = 1.17, so the QFI dips to zero once and then climbs to
        # its plateau: exactly one revival interval
        dataset = scan(ScanConfig("thermal1", alpha=0.0, points=400))
        intervals = backflow_intervals(dataset)
        assert len(intervals) == 1
        assert 0.9 < intervals[0][0] < 1.4

    def test_squeezed_nonsuperposed_early_revival(self):
        dataset = scan(ScanConfig("squeezed1", alpha=0.0, t_max=5.0, points=400))
        assert len(backflow_intervals(dataset)) >= 1


class TestReproduceFigure:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown figure tag"):
            reproduce_figure("9z")

    def test_two_series_structure(self):
        datasets = reproduce_figure("2a", points=40)
        assert [d.metadata["series"] for d in datasets] == ["alpha0", "alpha45"]
        assert all(d.t.size == 40 for d in datasets)
        assert all(d.metadata["figure"] == "2a" for d in datasets)

    def test_probe_comparison_structure(self):
        datasets = reproduce_figure("5b", points=30)
        assert [d.metadata["series"] for d in datasets] == ["one_qubit", "two_qubit"]
        assert [d.metadata["model"] for d in datasets] == ["thermal1", "thermal2"]
        np.testing.assert_array_equal(datasets[0].t, datasets[1].t)

    def test_thermal_fidelity_ordering(self):
        # the superposed initial state keeps the atom closer to where it started
        alpha0, alpha45 = reproduce_figure("2b", points=120)
        assert np.all(alpha45.fidelity >= alpha0.fidelity)

    def test_squeezed_fidelity_collapses_for_excited_start(self):
        alpha0, _ = reproduce_figure("3b", points=120)
        assert alpha0.fidelity[-1] < 0.05

    def test_two_qubit_reservoir_fidelity_dominates(self):
        one, two = reproduce_figure("5b", points=60)
        assert np.all(two.fidelity >= one.fidelity)


def test_discrepancy_report_mentions_targets():
    report = discrepancy_report(points=200)
    assert "80" in report
    assert "541" in report
    assert "1210" in report
    assert "computed" in report
