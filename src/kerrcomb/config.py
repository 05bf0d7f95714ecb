"""Configuration loading and validation.

The resonator description lives in a JSON file whose keys carry explicit
unit suffixes (_thz, _ghz, _hz, _um, _um2, _nm, _rad_s, _m2_per_w,
_v_per_m); everything is converted to SI base units (Hz, m, m², rad/s)
at load time. Unknown keys are rejected and every violated invariant is
reported, not just the first. The full schema is documented in
docs/config_schema.md, and the packaged default transcribes the
reference cavity (four modal families of a 240 µm ring).
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import C_VACUUM, ModalFamily, ResonatorSpec

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "Tolerances",
    "RunConfig",
    "load_config",
    "default_config_path",
    "serialize_config",
    "config_digest",
]

_FAMILY_KEYS = {
    "label", "d1_rad_s", "d2_rad_s", "d3_rad_s", "d4_rad_s", "d5_rad_s",
    "fsr_ghz", "f0_thz", "lambda0_nm", "q_total", "intrinsic_fraction",
    "a_eff_um2", "n_eff", "eta_rad_s", "g0_um2",
}
_RESONATOR_KEYS = {"radius_um", "n2_m2_per_w", "n0", "geometry", "families"}
_TOP_KEYS = {"resonator", "tolerances", "heatmap", "sweep_defaults"}
_TOLERANCE_KEYS = {"epsilon_ne", "mi_margin_cells", "truncation_order"}
_SWEEP_KEYS = {"delta_min_ghz", "delta_max_ghz", "amp_min_v_per_m",
               "amp_max_v_per_m", "grid"}
_HEATMAP_KEYS = {"bucket_edges", "bucket_colors", "mi_color"}


class ConfigError(Exception):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """File unreadable or not valid JSON."""


class ValidationError(ConfigError):
    """One or more invariants violated; message lists all of them."""


@dataclass(frozen=True)
class Tolerances:
    epsilon_ne: float = 1e-3
    mi_margin_cells: int = 2
    truncation_order: int = 3

    def __post_init__(self) -> None:
        if self.epsilon_ne <= 0:
            raise ValidationError("epsilon_ne must be positive")
        if self.truncation_order not in (2, 3, 4, 5):
            raise ValidationError("truncation_order must be one of 2..5")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: the resonator plus knobs and cosmetics."""

    resonator: ResonatorSpec
    tolerances: Tolerances
    heatmap: dict
    sweep_defaults: dict
    raw: dict = field(repr=False, default_factory=dict)


def default_config_path() -> Path:
    return Path(importlib.resources.files("kerrcomb") / "data"
                / "default_config.json")


def _check_keys(found: dict, allowed: set[str], where: str,
                problems: list[str]) -> None:
    unknown = set(found) - allowed
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown)}")


def _build_family(raw: dict, problems: list[str]) -> ModalFamily | None:
    where = f"family {raw.get('label', '?')}"
    _check_keys(raw, _FAMILY_KEYS, where, problems)
    missing = {"label", "d1_rad_s", "d2_rad_s", "d3_rad_s", "f0_thz",
               "q_total", "intrinsic_fraction", "a_eff_um2", "n_eff",
               "eta_rad_s"} - set(raw)
    if missing:
        problems.append(f"{where}: missing keys {sorted(missing)}")
        return None
    try:
        fam = ModalFamily(
            label=raw["label"],
            d1=float(raw["d1_rad_s"]),
            d2=float(raw["d2_rad_s"]),
            d3=float(raw["d3_rad_s"]),
            d4=float(raw.get("d4_rad_s", 0.0)),
            d5=float(raw.get("d5_rad_s", 0.0)),
            f0=float(raw["f0_thz"]) * 1e12,
            q_total=float(raw["q_total"]),
            intrinsic_fraction=float(raw["intrinsic_fraction"]),
            a_eff=float(raw["a_eff_um2"]) * 1e-12,
            n_eff=float(raw["n_eff"]),
            eta=float(raw["eta_rad_s"]),
            g0=float(raw.get("g0_um2", 0.0)),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"{where}: {exc}")
        return None
    # transcribed derived rows must agree with the defining columns
    if "fsr_ghz" in raw:
        fsr = fam.d1 / (2.0 * math.pi) / 1e9
        if not math.isclose(fsr, float(raw["fsr_ghz"]), rel_tol=1e-9):
            problems.append(
                f"{where}: fsr_ghz {raw['fsr_ghz']} does not match "
                f"d1/2π = {fsr!r} GHz")
    if "lambda0_nm" in raw:
        lam = C_VACUUM / fam.f0 * 1e9
        if not math.isclose(lam, float(raw["lambda0_nm"]), rel_tol=1e-9):
            problems.append(
                f"{where}: lambda0_nm {raw['lambda0_nm']} does not match "
                f"c/f0 = {lam!r} nm")
    return fam


def load_config(path: str | Path | None = None) -> RunConfig:
    """Load and fully validate a configuration file.

    With no path, the packaged default is used. Raises ParseError for
    unreadable/invalid JSON and ValidationError listing every violated
    invariant.
    """
    cfg_path = Path(path) if path is not None else default_config_path()
    try:
        text = cfg_path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {cfg_path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{cfg_path}:{exc.lineno}: {exc.msg}") from exc

    problems: list[str] = []
    _check_keys(raw, _TOP_KEYS, "top level", problems)
    res_raw = raw.get("resonator")
    if not isinstance(res_raw, dict):
        raise ValidationError("config must contain a 'resonator' object")
    _check_keys(res_raw, _RESONATOR_KEYS, "resonator", problems)

    families = []
    for fam_raw in res_raw.get("families", []):
        fam = _build_family(fam_raw, problems)
        if fam is not None:
            families.append(fam)

    resonator = None
    try:
        resonator = ResonatorSpec(
            radius=float(res_raw.get("radius_um", 0.0)) * 1e-6,
            n2=float(res_raw.get("n2_m2_per_w", 0.0)),
            n0=float(res_raw.get("n0", 1.0)),
            families=tuple(families),
            geometry=dict(res_raw.get("geometry", {})),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"resonator: {exc}")

    tol_raw = raw.get("tolerances", {})
    _check_keys(tol_raw, _TOLERANCE_KEYS, "tolerances", problems)
    tolerances = None
    try:
        tolerances = Tolerances(**tol_raw)
    except (ValidationError, TypeError) as exc:
        problems.append(f"tolerances: {exc}")

    _check_keys(raw.get("heatmap", {}), _HEATMAP_KEYS, "heatmap", problems)
    _check_keys(raw.get("sweep_defaults", {}), _SWEEP_KEYS, "sweep_defaults",
                problems)

    if problems:
        raise ValidationError("; ".join(problems))
    assert resonator is not None and tolerances is not None
    return RunConfig(resonator=resonator, tolerances=tolerances,
                     heatmap=dict(raw.get("heatmap", {})),
                     sweep_defaults=dict(raw.get("sweep_defaults", {})),
                     raw=raw)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON for the loaded configuration (round-trip stable)."""
    return json.dumps(cfg.raw, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the canonical serialization."""
    import hashlib

    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
