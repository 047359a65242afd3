"""Pins of the numbers the scan path produces: the evaluator equals the
public composition of the layers bit for bit, and find_max returns the
recorded float.hex values on the figure series and on seeded two-qubit
reservoir scans. A refactor of the hot path that moves any of these bits
fails here."""

import numpy as np
import pytest

from qfi_probe import scan_repro
from qfi_probe.qfi_engine import derivative, derivative_taps, qfi_blocks
from qfi_probe.qstate import fidelity_bloch, reduced_bloch, validate_blocks
from qfi_probe.scan_repro import (
    FIGURE_TAGS,
    MODEL_IDS,
    ScanConfig,
    build_channel,
    find_max,
    reproduce_figure,
    scan,
    time_grid,
)

# find_max (t, qfi) of every figure series at 2000 points, as float.hex
FIGURE_MAXIMA = {
    "1a/alpha0": ("0x1.8cb2a277aea8dp+6", "0x1.2617aba738e87p+10"),
    "1a/alpha45": ("0x1.9000000000000p+6", "0x1.278bf8a2167bdp+10"),
    "1b/alpha0": ("0x1.8cb2a277aea8dp+6", "0x1.2617aba738e87p+10"),
    "1b/alpha45": ("0x1.9000000000000p+6", "0x1.278bf8a2167bdp+10"),
    "2a/alpha0": ("0x1.f0b580a9d2ba2p+4", "0x1.4344485b36da1p+1"),
    "2a/alpha45": ("0x1.634be318e02c7p+3", "0x1.43448b41c9416p+1"),
    "2b/alpha0": ("0x1.f0b580a9d2ba2p+4", "0x1.4344485b36da1p+1"),
    "2b/alpha45": ("0x1.634be318e02c7p+3", "0x1.43448b41c9416p+1"),
    "3a/alpha0": ("0x1.322bfe182b121p+5", "0x1.ec0dd369dc9d4p+1"),
    "3a/alpha45": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d4p+1"),
    "3b/alpha0": ("0x1.322bfe182b121p+5", "0x1.ec0dd369dc9d4p+1"),
    "3b/alpha45": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d4p+1"),
    "4a/one_qubit": ("0x1.9000000000000p+6", "0x1.278bf8a2167bdp+10"),
    "4a/two_qubit": ("0x1.8e21ce5bbb6b7p+6", "0x1.c6d9113be5c2ap+10"),
    "4b/one_qubit": ("0x1.634be318e02c7p+3", "0x1.43448b41c9416p+1"),
    "4b/two_qubit": ("0x1.b2b0bd157fd81p+4", "0x1.4344485b3a946p+2"),
    "4c/one_qubit": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d4p+1"),
    "4c/two_qubit": ("0x1.1529c3a55f243p+5", "0x1.ec0dd369e15adp+2"),
    "5a/one_qubit": ("0x1.9000000000000p+6", "0x1.278bf8a2167bdp+10"),
    "5a/two_qubit": ("0x1.8e21ce5bbb6b7p+6", "0x1.c6d9113be5c2ap+10"),
    "5b/one_qubit": ("0x1.634be318e02c7p+3", "0x1.43448b41c9416p+1"),
    "5b/two_qubit": ("0x1.b2b0bd157fd81p+4", "0x1.4344485b3a946p+2"),
    "5c/one_qubit": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d4p+1"),
    "5c/two_qubit": ("0x1.1529c3a55f243p+5", "0x1.ec0dd369e15adp+2"),
}
# find_max (t, qfi) of the scans of seeded_reservoir_configs, as float.hex
SEEDED_MAXIMA = {
    0: ("0x1.6231a830e658ap+4", "0x1.26fb5a2bbc37ep+2"),  # thermal2
    1: ("0x1.e8d9fa5278ed7p+4", "0x1.fdd8d39a1ce68p+2"),  # thermal2
    2: ("0x1.44a6030ca29e9p+4", "0x1.fc873c91a60e0p+2"),  # squeezed2
    3: ("0x1.3dada6e59f90cp+2", "0x1.422cdd320d2d1p+2"),  # squeezed2
}


def seeded_reservoir_configs():
    """Two thermal2 and two squeezed2 scans with drawn strength, gamma and
    t_max."""
    rng = np.random.default_rng(16)
    configs = []
    for model, key, low, high in (("thermal2", "mean_occupation", 0.02, 1.0),
                                  ("squeezed2", "squeezing", 0.02, 0.5)):
        for _ in range(2):
            configs.append(ScanConfig(model, gamma=float(rng.uniform(0.5, 2.0)),
                                      t_max=float(rng.uniform(10.0, 50.0)),
                                      **{key: float(rng.uniform(low, high))}))
    return configs


def hexes(maximum):
    return tuple(float(x).hex() for x in maximum)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_evaluator_rows_equal_the_public_composition(model):
    # 3000 points: the evaluator splits the grid into blocks, the
    # composition takes it whole
    config = ScanConfig(model, points=3000)
    times = time_grid(config)
    qfi, fidelity = scan_repro._evaluator(config)(times)
    channel = build_channel(config)
    kernel = channel.kernel(channel.value)
    states = validate_blocks(kernel(times))
    derivs = derivative(*derivative_taps(channel, channel.value), times)
    expected = qfi_blocks(states, derivs).value * scan_repro._chain_factor(config)
    reference = reduced_bloch(validate_blocks(kernel(np.zeros(1))))
    np.testing.assert_array_equal(qfi, expected)
    np.testing.assert_array_equal(fidelity, fidelity_bloch(reference, reduced_bloch(states)))


@pytest.mark.parametrize("tag", FIGURE_TAGS)
def test_find_max_pinned_on_figure_series(tag):
    for dataset in reproduce_figure(tag):
        key = f"{tag}/{dataset.metadata['series']}"
        assert hexes(find_max(dataset)) == FIGURE_MAXIMA[key], key


@pytest.mark.parametrize("k", range(4))
def test_find_max_pinned_on_seeded_reservoir_scans(k):
    config = seeded_reservoir_configs()[k]
    assert hexes(find_max(scan(config))) == SEEDED_MAXIMA[k]
