"""Pins of the numbers the scan path produces: the evaluator equals the
public composition of the layers bit for bit, and find_max returns the
recorded float.hex values on the figure series and on seeded two-qubit
reservoir scans, and the CLI writes the recorded CSV bytes for every
figure tag and every model's default scan. A refactor of the hot path that
moves any of these bits fails here."""

import hashlib

import numpy as np
import pytest

from qfi_probe import cli, scan_repro
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
# sha256 of the CSVs of `figure --tag <tag>`, at the default 2000 points, by file name
FIGURE_CSV_SHA256 = {
    "fig1a_alpha0.csv": "d470f4b054858b5ac8e178d05dcad4a9f3e48aaf0eff43db9f46364f75179d6d",
    "fig1a_alpha45.csv": "99d4522da2035082d3231c939b640fddb6c89e9aa85b8d4e120313f376d09179",
    "fig1b_alpha0.csv": "f65cb519838ee8233f0140c047e751bfe651248d757b400204a97998ce4c9815",
    "fig1b_alpha45.csv": "f7a77faa69b0215ca97b73c71fc36b1ef3cb8affe1509f545da3452cbff31a27",
    "fig2a_alpha0.csv": "892e65566682cc5f69e752fcef73b1431c35de379b7518e4b1d8a5d2d5a996c8",
    "fig2a_alpha45.csv": "1532706653109e302899f2845b53bd6cc258792cb612aedd60c1d96eafa7f50c",
    "fig2b_alpha0.csv": "a2d74c7574bab4c483a52ba535a46a481fcec0bbdeb3c26e7c95fc104020a187",
    "fig2b_alpha45.csv": "65342b5d0fc03f71f0822544a2cfe27512c9de69112785655b4be175e2d16346",
    "fig3a_alpha0.csv": "6f082643b23570c6157de196b9ceada45b98dcb53d746d39baea8a5788c197b7",
    "fig3a_alpha45.csv": "c91805e3586ea0956c90246d92a4a6917b34aa9d2cbe8a5dd335373bee390bfd",
    "fig3b_alpha0.csv": "284db8c816e61504bf23e4c7e9a4c88fbae9f56df6fa7ce16afbaa6ff6f31eee",
    "fig3b_alpha45.csv": "cf5b4f72017d09f8292a520c289e9c1c25ef5ec2fe6a3ced5a378ab5a8bd836c",
    "fig4a_one_qubit.csv": "b76d60ba8e27c2e51a121e2927e81cc525b60ab2d01138ec92db07677cf13a76",
    "fig4a_two_qubit.csv": "ce48551f199a75425fc2d0b3c89849f4c2c02d8399c344b4ed5444bf9e538b23",
    "fig4b_one_qubit.csv": "2f5b42460c39cb58d102e9e9e248ab82564b300d0e35d5b7a63bb161acce1b10",
    "fig4b_two_qubit.csv": "1392453c51f4a5b686226d2d089f61646610e75e63df6611b6fe995112a5626c",
    "fig4c_one_qubit.csv": "422679c4220c9088474c45cfc8dc6ee7e8c5ba982547b1ea9e6805fd22bc2515",
    "fig4c_two_qubit.csv": "b7b990f71d4da9611fac4b7968263ec8560cff28b2c49d4ad9eb70c25d842e92",
    "fig5a_one_qubit.csv": "1218a6f8a5638c65e34135e5c7e7ad0510d41a3066504f4f1b390a897358d0d8",
    "fig5a_two_qubit.csv": "f197972c79338c9b4d56a36179701da451ec0de7e3d3be2cc7fe44cbe65b95ac",
    "fig5b_one_qubit.csv": "14c01259762f6ee98a3e052bc20c302f91d8dbe33e54606bc15ccea40a1fa3b8",
    "fig5b_two_qubit.csv": "dc0e82814ea08f7f51ad73a107ff3663d34c4292a01c367ae139b919061f8663",
    "fig5c_one_qubit.csv": "52a0f60de4b6230d12f66039d05e1981e6b9a89042884b435ee1f0c97effd2a4",
    "fig5c_two_qubit.csv": "b50da3fb65d0e00954ca4fe9fbf15744b7b525f2325431b790155cfa7dc2dfd5",
}
# sha256 of the CSV of `scan --model <model>` at the defaults (2000 points)
SCAN_CSV_SHA256 = {
    "fock1": "671d9c6897fac9730606f3240e2d82abdae487f3e150a980cb6866125e5ff1aa",
    "fock2": "0a67005483582177f2b5ac0c13387e5ce454dae7c599d9e560b367bb24c11f02",
    "squeezed1": "8ca3c531853c79842e5a14edff6d9e466474594c3611f0f3f35dc54b719d4821",
    "squeezed2": "130ae93b3b5931664cac3cf02333ec214257764630d766b1396f66ebdba6c9ae",
    "thermal1": "a149fa6ec0b02f268f63a81ce4533bece27ffa6d9ea1f37dd8eb75802ce8d10a",
    "thermal2": "8beae6b0b18a119a1651a090be623755ce23b1b00da69db285766eddc3328246",
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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("tag", FIGURE_TAGS)
def test_figure_csv_bytes_pinned(tag, tmp_path):
    assert cli.run(["figure", "--tag", tag, "--out", str(tmp_path / f"fig{tag}.csv")]) == 0
    written = {path.name: sha256(path) for path in tmp_path.iterdir()}
    assert written == {name: digest for name, digest in FIGURE_CSV_SHA256.items()
                       if name.startswith(f"fig{tag}_")}


@pytest.mark.parametrize("model", MODEL_IDS)
def test_scan_csv_bytes_pinned(model, tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.run(["scan", "--model", model, "--out", str(out)]) == 0
    assert sha256(out) == SCAN_CSV_SHA256[model]
