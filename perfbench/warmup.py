"""Import qfi_probe and make one tiny call per probe model.

Run as a script it is the unit of the benchmark's set-up time: a fresh
interpreter, the package import and a 2-point scan of each of the six
models. `run.py` also calls `warm_up()` in its own process before timing.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODELS = ("fock1", "thermal1", "squeezed1", "fock2", "thermal2", "squeezed2")


def warm_up() -> None:
    from qfi_probe.scan_repro import ScanConfig, scan

    for model in MODELS:
        scan(ScanConfig(model, t_min=0.01, t_max=0.02, points=2))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import qfi_probe  # noqa: F401  (the import is part of what is timed)

    warm_up()
