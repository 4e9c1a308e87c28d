"""Iterative phase estimation on a simulated photonic platform.

The package is layered: ``qmath`` holds validated states and operators,
their checks and the per-trial random streams, ``qpe`` the estimation
engines (iterative and full-register), ``photonics`` the
polarization/path gate model with its post-selection arithmetic and
noise settings, ``tomography`` single-qubit state reconstruction, and
``experiments``/``cli`` the runnable studies.
"""

from .config import ExperimentConfig, ParseError, parse_experiment
from .photonics import NoiseSpec, PhotonicProvider, WaveplateSpec, hwp, qwp
from .qmath import (
    CapacityError,
    ContractError,
    DensityMatrix,
    StateVector,
    Unitary,
    basis_state,
    derive_rng,
    fidelity,
)
from .qpe import (
    EigenproblemSpec,
    PhaseEstimate,
    circular_distance,
    ipea_run,
    ipea_run_exact,
    qpe_full_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractError",
    "DensityMatrix",
    "EigenproblemSpec",
    "ExperimentConfig",
    "NoiseSpec",
    "ParseError",
    "PhaseEstimate",
    "PhotonicProvider",
    "StateVector",
    "Unitary",
    "WaveplateSpec",
    "basis_state",
    "circular_distance",
    "derive_rng",
    "fidelity",
    "hwp",
    "ipea_run",
    "ipea_run_exact",
    "parse_experiment",
    "qpe_full_distribution",
    "qwp",
    "__version__",
]
