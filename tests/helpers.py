"""Helpers shared by the test modules."""

import json
import math
from pathlib import Path

import numpy as np

from kerrcomb.config import default_config_path
from kerrcomb.model import NormalizedDrive
from kerrcomb.steady import SteadyState


def drive_of(f, dtp, dtl) -> NormalizedDrive:
    return NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl)


def amplitudes_of(state: SteadyState) -> np.ndarray:
    """Complex three-mode amplitudes in the drive-phase-zero gauge."""
    theta_p = -state.psi
    theta_pair = 0.5 * (state.phi + 2.0 * theta_p)
    a_p = math.sqrt(state.ap2) * np.exp(1j * theta_p)
    a = math.sqrt(state.a2) * np.exp(1j * theta_pair)
    return np.array([a_p, a, a])


def config_at_order(order: int, directory: Path) -> Path:
    """The packaged config with ``truncation_order`` set, as a file."""
    raw = json.loads(default_config_path().read_text())
    raw["tolerances"]["truncation_order"] = order
    path = directory / f"order{order}.json"
    path.write_text(json.dumps(raw))
    return path
