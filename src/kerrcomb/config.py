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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .model import C_VACUUM, ModalFamily, ResonatorSpec

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "Tolerances",
    "RunConfig",
    "load_config",
    "sweep_axis_problems",
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
# the keys sweep_defaults and heatmap accept, and what each falls back to
_SWEEP_DEFAULTS = {"delta_min_ghz": -0.1, "delta_max_ghz": 0.8,
                   "amp_min_v_per_m": 2e5, "amp_max_v_per_m": 2.8e7,
                   "grid": 64}
_HEATMAP_DEFAULTS = {"bucket_edges": [-0.4, -0.2, -1e-3, 0.0],
                     "bucket_colors": ["#46039f", "#bd3786", "#fdb42f",
                                       "#c8e9a0"],
                     "mi_color": "#bbbbbb"}


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
        eps, margin, order = (self.epsilon_ne, self.mi_margin_cells,
                              self.truncation_order)
        problems = []  # type(v) is int: JSON true and false load as bool
        if not (_is_number(eps) and eps > 0):
            problems.append(
                f"epsilon_ne must be a finite positive number, got {eps!r}")
        if not (type(margin) is int and margin >= 0):
            problems.append(
                f"mi_margin_cells must be an integer >= 0, got {margin!r}")
        if not (type(order) is int and 2 <= order <= 5):
            problems.append(
                f"truncation_order must be an integer in 2..5, got {order!r}")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: the resonator plus knobs and cosmetics.

    heatmap and sweep_defaults hold every key they accept: the file's
    value, else the default.
    """

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


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _non_finite(value, path: str = "") -> list[str]:
    """Key path of every NaN or infinite number in a parsed JSON value
    (``json`` reads ``NaN``, ``Infinity`` and ``-Infinity``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path} must be finite, got {value!r}"]
    if isinstance(value, dict):
        keyed = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        keyed = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        keyed = []
    return [p for key, v in keyed for p in _non_finite(v, key)]


def sweep_axis_problems(axes: dict) -> list[str]:
    """Every mistake in a full set of sweep axes, as sweep_defaults has."""
    problems = []
    grid = axes["grid"]
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        problems.append(f"grid must be an integer >= 1, got {grid!r}")
    for lo, hi in (("delta_min_ghz", "delta_max_ghz"),
                   ("amp_min_v_per_m", "amp_max_v_per_m")):
        bad = [k for k in (lo, hi) if not _is_number(axes[k])]
        problems += [f"{k} must be a finite number, got {axes[k]!r}"
                     for k in bad]
        if not bad and not axes[lo] < axes[hi]:
            problems.append(f"{lo} {axes[lo]!r} must be below "
                            f"{hi} {axes[hi]!r}")
    amp = axes["amp_min_v_per_m"]
    if _is_number(amp) and amp < 0:
        problems.append(f"amp_min_v_per_m must be >= 0, got {amp!r}")
    return problems


def _heatmap_problems(heatmap: dict) -> list[str]:
    edges, colors = heatmap["bucket_edges"], heatmap["bucket_colors"]
    if not (isinstance(edges, list) and edges
            and all(_is_number(e) for e in edges)):
        return [f"bucket_edges must be a list of numbers, got {edges!r}"]
    problems = []
    if any(b <= a for a, b in zip(edges, edges[1:])):
        problems.append(f"bucket_edges must ascend, got {edges!r}")
    if not isinstance(colors, list) or len(colors) != len(edges):
        problems.append(f"bucket_colors needs one color per edge "
                        f"({len(edges)}), got {colors!r}")
    return problems


def _typed(value, kind: type, path: str, problems: list[str]):
    """``value`` if a ``kind`` (dict or list), else an empty one."""
    if isinstance(value, kind):
        return value
    name = "an object" if kind is dict else "a list"
    problems.append(f"{path} must be {name}, got {value!r}")
    return kind()


def _number_problems(raw: dict, keys: set[str], path: str) -> list[str]:
    """Each of ``keys`` in ``raw`` whose value is not a JSON number."""
    return [f"{path}.{k} must be a number, got {raw[k]!r}"
            for k in raw if k in keys and not _is_number(raw[k])]


def _build_family(raw: dict, path: str,
                  problems: list[str]) -> ModalFamily | None:
    if not isinstance(raw, dict):
        _typed(raw, dict, path, problems)
        return None
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
    # float() took true and "1e3" too, and never saw the transcriptions
    bad = _number_problems(raw, _FAMILY_KEYS - {"label"}, path)
    if bad:
        problems += bad
        return None
    # transcribed derived rows must agree with the defining columns
    for key, formula, value, unit in (
            ("fsr_ghz", "d1/2π", fam.d1 / (2.0 * math.pi) / 1e9, "GHz"),
            ("lambda0_nm", "c/f0", C_VACUUM / fam.f0 * 1e9, "nm")):
        if key in raw and not math.isclose(value, raw[key], rel_tol=1e-9):
            problems.append(f"{where}: {key} {raw[key]} does not match "
                            f"{formula} = {value!r} {unit}")
    return fam


def load_config(path: str | Path | None = None) -> RunConfig:
    """Load and fully validate a configuration file.

    With no path, the packaged default is used. Raises ParseError for
    unreadable/invalid JSON and ValidationError listing every violated
    invariant.
    """
    cfg_path = Path(path) if path is not None else default_config_path()
    try:
        text = cfg_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {cfg_path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{cfg_path}:{exc.lineno}: {exc.msg}") from exc

    problems = _non_finite(raw)
    if not problems:
        _typed(raw, dict, "top level", problems)
    if problems:
        raise ValidationError("; ".join(problems))
    _check_keys(raw, _TOP_KEYS, "top level", problems)
    res_raw = raw.get("resonator")
    if not isinstance(res_raw, dict):
        raise ValidationError("config must contain a 'resonator' object")
    _check_keys(res_raw, _RESONATOR_KEYS, "resonator", problems)

    families = []
    for i, fam_raw in enumerate(_typed(res_raw.get("families", []), list,
                                       "resonator.families", problems)):
        fam = _build_family(fam_raw, f"resonator.families[{i}]", problems)
        if fam is not None:
            families.append(fam)

    resonator = None
    try:
        resonator = ResonatorSpec(
            radius=float(res_raw.get("radius_um", 0.0)) * 1e-6,
            n2=float(res_raw.get("n2_m2_per_w", 0.0)),
            n0=float(res_raw.get("n0", 1.0)),
            families=tuple(families),
            geometry=dict(_typed(res_raw.get("geometry", {}), dict,
                                 "resonator.geometry", problems)),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"resonator: {exc}")
    else:
        problems += _number_problems(
            res_raw, {"radius_um", "n2_m2_per_w", "n0"}, "resonator")

    tol_raw = _typed(raw.get("tolerances", {}), dict, "tolerances", problems)
    _check_keys(tol_raw, _TOLERANCE_KEYS, "tolerances", problems)
    tolerances = None
    try:
        tolerances = Tolerances(**tol_raw)
    except (ValidationError, TypeError) as exc:
        problems.append(f"tolerances: {exc}")

    if not all(isinstance(raw.get(k, {}), dict)
               for k in ("heatmap", "sweep_defaults")):
        raise ValidationError("heatmap and sweep_defaults must be objects")
    heatmap = {**_HEATMAP_DEFAULTS, **raw.get("heatmap", {})}
    sweep = {**_SWEEP_DEFAULTS, **raw.get("sweep_defaults", {})}
    _check_keys(heatmap, set(_HEATMAP_DEFAULTS), "heatmap", problems)
    _check_keys(sweep, set(_SWEEP_DEFAULTS), "sweep_defaults", problems)
    problems += [f"heatmap: {p}" for p in _heatmap_problems(heatmap)]
    problems += [f"sweep_defaults: {p}" for p in sweep_axis_problems(sweep)]

    if problems:
        raise ValidationError("; ".join(problems))
    assert resonator is not None and tolerances is not None
    resonator = replace(resonator, families=tuple(
        fam.truncated(tolerances.truncation_order)
        for fam in resonator.families))
    return RunConfig(resonator=resonator, tolerances=tolerances,
                     heatmap=heatmap, sweep_defaults=sweep, raw=raw)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON for the loaded configuration (round-trip stable)."""
    return json.dumps(cfg.raw, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the canonical serialization."""
    import hashlib

    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
