"""Pins of the numbers the scan path produces: the evaluator equals the
public composition of the layers bit for bit, no kernel row depends on
the length of the grid it is computed on, and find_max returns the
recorded float.hex values on the figure series and on seeded two-qubit
reservoir scans, and the CLI writes the recorded CSV bytes for every
figure tag and every model's default scan, and for the one-sided stencil
and grids of several evaluation blocks. A refactor of the hot path that
moves any of these bits fails here."""

import hashlib

import numpy as np
import pytest

from helpers import evaluator_kernel, nominal
from qfi_probe import cli, scan_repro
from qfi_probe.qfi_engine import qfi_blocks
from qfi_probe.qstate import BlockState, fidelity_bloch, reduced_bloch, validate_blocks
from qfi_probe.scan_repro import (
    FIGURE_TAGS,
    MODEL_IDS,
    MODELS,
    ScanConfig,
    find_max,
    reproduce_figure,
    scan,
    time_grid,
)

# find_max (t, qfi) of every figure series at 2000 points, as float.hex
FIGURE_MAXIMA = {
    "1a/alpha0": ("0x1.8cb2a27fff5d0p+6", "0x1.2662ea17d7998p+10"),
    "1a/alpha45": ("0x1.9000000000000p+6", "0x1.278bf8a2167bep+10"),
    "1b/alpha0": ("0x1.8cb2a27fff5d0p+6", "0x1.2662ea17d7998p+10"),
    "1b/alpha45": ("0x1.9000000000000p+6", "0x1.278bf8a2167bep+10"),
    "2a/alpha0": ("0x1.f0b580a9d2ba2p+4", "0x1.4344485b36da1p+1"),
    "2a/alpha45": ("0x1.634a80dc09412p+3", "0x1.43448b41c7750p+1"),
    "2b/alpha0": ("0x1.f0b580a9d2ba2p+4", "0x1.4344485b36da1p+1"),
    "2b/alpha45": ("0x1.634a80dc09412p+3", "0x1.43448b41c7750p+1"),
    "3a/alpha0": ("0x1.322bfe182b121p+5", "0x1.ec0dd369dc9d5p+1"),
    "3a/alpha45": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d6p+1"),
    "3b/alpha0": ("0x1.322bfe182b121p+5", "0x1.ec0dd369dc9d5p+1"),
    "3b/alpha45": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d6p+1"),
    "4a/one_qubit": ("0x1.9000000000000p+6", "0x1.278bf8a2167bep+10"),
    "4a/two_qubit": ("0x1.8e21222ec8d28p+6", "0x1.c9e0e5776e248p+10"),
    "4b/one_qubit": ("0x1.634a80dc09412p+3", "0x1.43448b41c7750p+1"),
    "4b/two_qubit": ("0x1.0a5c226732f98p+5", "0x1.4344485a1a465p+2"),
    "4c/one_qubit": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d6p+1"),
    "4c/two_qubit": ("0x1.4660bea428587p+5", "0x1.ec0dd36bc78e2p+2"),
    "5a/one_qubit": ("0x1.9000000000000p+6", "0x1.278bf8a2167bep+10"),
    "5a/two_qubit": ("0x1.8e21222ec8d28p+6", "0x1.c9e0e5776e248p+10"),
    "5b/one_qubit": ("0x1.634a80dc09412p+3", "0x1.43448b41c7750p+1"),
    "5b/two_qubit": ("0x1.0a5c226732f98p+5", "0x1.4344485a1a465p+2"),
    "5c/one_qubit": ("0x1.2c91f656bed60p+5", "0x1.ec0dd369dc9d6p+1"),
    "5c/two_qubit": ("0x1.4660bea428587p+5", "0x1.ec0dd36bc78e2p+2"),
}
# find_max (t, qfi) of the scans of seeded_reservoir_configs, as float.hex
SEEDED_MAXIMA = {
    0: ("0x1.921fee08b31b8p+4", "0x1.26fb5a2ab70a0p+2"),  # thermal2
    1: ("0x1.169a9c763bc07p+5", "0x1.fdd8d397f46cbp+2"),  # thermal2
    2: ("0x1.6f55b919e727cp+4", "0x1.fc873c93b6b77p+2"),  # squeezed2, a flat peak
    3: ("0x1.3dae625349b4cp+2", "0x1.422cdd32c6b21p+2"),  # squeezed2
}
# sha256 of the CSVs of `figure --tag <tag>`, at the default 2000 points, by file name
FIGURE_CSV_SHA256 = {
    "fig1a_alpha0.csv": "38afdfc2e4bcfbb7eade338af827e9e1149d6a7508259aceeeddb76dbaf60144",
    "fig1a_alpha45.csv": "2ba56e61617f2512689aa51a831f3f990083b0a841062b5cfbc565b564f68af6",
    "fig1b_alpha0.csv": "b41439034c0739fda543d190cbfefd330828be61cc7ab61efbef64fc68304143",
    "fig1b_alpha45.csv": "224516a2d9748cc67fe2c471ecac695347b3a0434e2021ea3c1dfbc194171ad1",
    "fig2a_alpha0.csv": "32a47b4431d4fd054005ef501c307c26fb3c078251364d87c6fd9bae92429b92",
    "fig2a_alpha45.csv": "0658f4c4be4a768a0b7fbb6840406b715a88d01dccc8019b4f352039925dc4be",
    "fig2b_alpha0.csv": "4ed22d53ff350162ea0cf48eb42de740a74c4d1d3371682626e51c214727a040",
    "fig2b_alpha45.csv": "1337d2b4bf937a691252101f4b0d2924434ba6fe1f70bc5b982530c92b27b341",
    "fig3a_alpha0.csv": "8911e744a7e2266a55f97b433f78c7cce7bd977c701a806800a4653bf40b1810",
    "fig3a_alpha45.csv": "750f04d1a1a741ae38db2fd33b81cc1dd402968a4f2f5677b5229b62466de91c",
    "fig3b_alpha0.csv": "ac5b83f40851f243d38b9fdec70c32e54b9409e437b7dfafa9023ef3010ef420",
    "fig3b_alpha45.csv": "8a7b6b68d67bb595113776f629b77f9b8048809846421a3ee95dee4f8ca5af18",
    "fig4a_one_qubit.csv": "8a2e2b65435e0808fe7c33a9c2530db759037298b7c4fe63eeede6272779fad8",
    "fig4a_two_qubit.csv": "71846843c85f85986fc512d834e6376493fdf6a3ea8670e5b7c04955b6788012",
    "fig4b_one_qubit.csv": "ecf4735b27bc7701a26f7f9eb779a736461efdbafa7b14e31e8ef9b15d323a7a",
    "fig4b_two_qubit.csv": "e777914fd81bc07d401c8327fd5c05b90a450e57547896a14757d98fde5a4e5b",
    "fig4c_one_qubit.csv": "679b34fcc0f45882ecab0332904af5a7e10501845490eac15958f3bb845e2ba0",
    "fig4c_two_qubit.csv": "15e6e798f565d16b9a0f9b110ac753f29018d7f062f396c4a169f8cd774dcdca",
    "fig5a_one_qubit.csv": "44d40e02ff80f80a69dec54d18541df93a37036b665fc2db6051fa79d68cb3ef",
    "fig5a_two_qubit.csv": "f6ae66e057ce0071ee60d7db6ae833b8aab6feed24d1542295f7d132e227aba0",
    "fig5b_one_qubit.csv": "2a1b4fbaf4b5f7ebfb561cc7e4455760f7d0ba1bb94f5524e9193df5d961f4ac",
    "fig5b_two_qubit.csv": "c4a04d07bf706c365055ad7ea44c792b3ce2303efd659d79f1ee52a647efbcc4",
    "fig5c_one_qubit.csv": "52dee43861d8017fc6b95b07fd79875c228c512c90213cdced21c4e9a130568d",
    "fig5c_two_qubit.csv": "7424ce6c02f33f01bb351551a88d0c4f1db132594dd99a3ade0101ec80ca143e",
}
# sha256 of the CSV of `scan --model <flags>`: each model at the defaults
# (2000 points), the reservoir models at strength 0, which takes the
# one-sided stencil, and grids of 6000 points, which take several blocks
SCAN_CSV_SHA256 = {
    "fock1": "99536d1ddd043f641f4a98ef964d8b631b5d54f8f317f736270a1553e8ea3283",
    "fock2": "9788024c7c82f19c807e33abf55b84fe1db8032c5ef78eb60fbd07dea1d4fc1f",
    "squeezed1": "8234e69a656cf5b5b6533219925a0411cb1bc26e929205b9c6e9b680af73b08f",
    "squeezed2": "5d1e38c82a7e6222f36ee8e62fecc61edbebdbc87cde4a85b4f3918f286bb433",
    "thermal1": "7fc2b03eb3fb04c84ab1761ddc30275905332703126640b7a53bef6baa42be02",
    "thermal2": "b54626d04ee868899191e61938e45b469402707598d6d67cf41935245d27591e",
    "thermal1 --m 0": "970b5d29a20a7f90f3f89daa4bd8629c102f7ad632d755473a2e85223da39ceb",
    "thermal2 --m 0": "241fadf71d9f54c6c0c043ed24a9544676861a6dcf891c30ae7074b134a8104f",
    "squeezed1 --r 0": "3934c7a008733939e13f2b7a7217071804cc93c5fb1d8f69dc501b2d1736736b",
    "squeezed2 --r 0": "36dbbb5f5049cd28c1958338bc659478d0975573b7493b71c420e58bb631a054",
    "fock1 --points 6000": "d7dd2c8e73cb406d93789632686a74493a0a0f6ab28c8e5043071ff67e44031b",
    "thermal1 --points 6000": "caba6e184007be15d0414838cfcc4e901fabdb7cf40eabe18e927baf6bab66eb",
    "squeezed1 --points 6000": "6d865940625cc423becb115372608cf8cf936dcc1ee6e23220b814189e4a993e",
    "fock2 --points 6000": "cb3a321bd6515109d1387b39ba71476743a7f7782ed1c1ac623d780a2bb8ba3a",
    "thermal2 --points 6000": "f00d669f74fd80f7197a037f702f61b8935f9a2f6f8b5ff1769f32a2952c4551",
    "squeezed2 --points 6000": "4359efbef8f50ce541480f586e1c005e3b5739eb21c2e11f9d8a0d582eb5db9a",
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
def test_evaluator_rows_equal_the_public_composition(model, monkeypatch):
    # 3000 points in blocks of 64 KiB, set small so that every model's grid
    # takes several blocks: the evaluator folds the t = 0 reference into
    # the first; the composition takes the grid whole and the reference
    # from a call of its own
    monkeypatch.setattr(scan_repro, "BLOCK_BYTES", 64 * 1024)
    config = ScanConfig(model, points=3000)
    times = time_grid(config)
    qfi, fidelity = scan_repro._evaluator(config)(times)
    kernel, support = evaluator_kernel(config, nominal(config)), MODELS[model][2]
    record = kernel(times)
    states = validate_blocks(BlockState(support, record[0]))
    expected = (qfi_blocks(states, BlockState(support, record[1])).value
                * scan_repro._chain_factor(config))
    reference = reduced_bloch(validate_blocks(BlockState(support, kernel(np.zeros(1))[0])))
    np.testing.assert_array_equal(qfi, expected)
    np.testing.assert_array_equal(fidelity, fidelity_bloch(reference, reduced_bloch(states)))


@pytest.mark.parametrize("model", MODEL_IDS)
def test_kernel_rows_do_not_depend_on_the_call_size(model):
    # the states and derivative of one 20,000-row call against its 700-row
    # slices, bit for bit. At this size numpy computes an operator product
    # `a * b` with a temporary b in place, as b * a, and complex products do
    # not commute bit for bit; the cavity kernels call np.multiply, which
    # numpy never rewrites
    config = ScanConfig(model)
    kernel = evaluator_kernel(config, nominal(config))
    times = np.linspace(0.0, 100.0, 20_000)
    slices = [kernel(times[start:start + 700]) for start in range(0, times.size, 700)]
    np.testing.assert_array_equal(kernel(times), np.concatenate(slices, axis=-1))


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


@pytest.mark.parametrize("flags", list(SCAN_CSV_SHA256))
def test_scan_csv_bytes_pinned(flags, tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.run(["scan", "--model", *flags.split(), "--out", str(out)]) == 0
    assert sha256(out) == SCAN_CSV_SHA256[flags]
