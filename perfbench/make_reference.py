"""Regenerate reference/figures_2000.npz, the rows the figures workload
compares its CSV output against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change to the package is meant to change the figure
rows, and record that change.
"""

import numpy as np

from workloads import REFERENCE, figure_reference

if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **figure_reference())
