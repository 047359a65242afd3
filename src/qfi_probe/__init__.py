"""Quantum Fisher information and fidelity for one- and two-qubit probes
coupled to a photon-number cavity field, a thermal reservoir, or a squeezed
vacuum reservoir.

The names imported below are the package's top-level API."""

from .lindblad import (
    LindbladGenerator,
    StepUnderflow,
    integrate,
    squeezed_generator,
    thermal_generator,
    trajectory,
    two_qubit_generator,
)
from .probe_models import (
    ChannelModel,
    FockParams,
    SqueezedParams,
    ThermalParams,
    TwoQubitFockParams,
    TwoQubitReservoirParams,
    fock1_channel,
    fock1_states,
    fock2_channel,
    fock2_states,
    reduce_A,
    reservoir_pair_channel,
    reservoir_pair_states,
    squeezed1_channel,
    squeezed1_states,
    thermal1_channel,
    thermal1_states,
)
from .qfi_engine import (
    CramerRaoInput,
    QfiResult,
    cramer_rao,
    d_rho_grid,
    fd_step,
    occupation_from_temperature,
    occupation_slope,
    qfi_pure_oracle,
    qfi_sld_oracle,
    qfi_spectral,
    qfi_temperature,
    temperature_from_occupation,
)
from .qstate import (
    BlochVector,
    ConvergenceFailure,
    DensityMatrix,
    NegativeEigenvalue,
    NotHermitian,
    StateValidationError,
    TraceNotOne,
    bloch_vector,
    eig_hermitian,
    fidelity_bloch,
    fidelity_uhlmann_oracle,
    partial_trace_B,
    trace_out_B,
    validate_density,
)
from .scan_repro import (
    ScanConfig,
    ScanDataset,
    backflow_intervals,
    discrepancy_report,
    find_max,
    reproduce_figure,
    scan,
)
