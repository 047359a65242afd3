"""Quantum Fisher information and fidelity for one- and two-qubit probes
coupled to a photon-number cavity field, a thermal reservoir, or a squeezed
vacuum reservoir.

The names imported below are the package's top-level scan API; the layers
are imported as qfi_probe.<module>."""

from .scan_repro import (
    ScanConfig,
    ScanDataset,
    backflow_intervals,
    discrepancy_report,
    find_max,
    reproduce_figure,
    scan,
)
