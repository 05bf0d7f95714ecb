"""Quantum Kerr comb modeling for multimode microring resonators.

The package covers the full below-threshold pipeline: resonance grids
and integrated dispersion, steady states of the pumped pair system,
linearized fluctuation spectra through input-output theory, two-mode
entanglement witnesses, and phase-diagram sweeps over pump frequency
and amplitude. ``kerrcomb.oracle`` holds independent verification
engines (a time-domain integrator, finite differences, exhaustive
searches) used by the test suite and the CLI.
"""

__version__ = "0.1.0"

from .model import (
    ModalFamily,
    NormalizedDrive,
    OperatingPoint,
    ResonatorSpec,
    damping_rates,
    nonlinear_rate,
    normalize,
)

__all__ = [
    "__version__",
    "ModalFamily",
    "ResonatorSpec",
    "OperatingPoint",
    "NormalizedDrive",
    "damping_rates",
    "nonlinear_rate",
    "normalize",
]
