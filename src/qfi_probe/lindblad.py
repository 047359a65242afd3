"""Re-export of TwoQubitReservoirParams for the benchmark tests; ROADMAP item 1 removes it."""

from .probe_models import TwoQubitReservoirParams

__all__ = ["TwoQubitReservoirParams"]
