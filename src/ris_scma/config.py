"""Config documents: JSON in, validated RunConfig out, canonical JSON back.

``DEFAULTS`` is the only description of the document: its keys are the only
keys accepted, and the JSON type of each default is the type its key takes.
An empty document means "all defaults".  The defaults reproduce the reference
experiment setup: 6 users on 4 OREs (3 interferers each, codebook size 2),
40 m cell with the panel 1.5 m off-axis and 2 m from the BS at 2.4 GHz,
Rician factor 1, 3-bit phases, 3 sweeps.  The fading defaults (common-phase
LoS, direct link 26 dB below free space) are the calibrated link budget that
reproduces the reported 1.88 / 2.38 dB optimization gains at N = 16 / 64;
see README for the sensitivity knobs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .campaign import _COUNTED, SCENARIOS, SWEEPS, Campaign
from .channel import FadingConfig, Geometry
from .factor_graph import ScmaConfig
from .optimizer import DEFAULT_EXHAUSTIVE_BUDGET
from .writers import OUTPUT_FORMATS


class ConfigError(ValueError):
    """Malformed or out-of-domain configuration."""


DEFAULTS = {
    "scenario": "n_sweep",
    "sweep": {"axis": None, "grid": None},   # None = campaign.SWEEPS defaults
    "algorithms": ["blind", "ao", "lc_ao"],
    "num_trials": 10000,
    "master_seed": 12345,
    "num_elements": 16,
    "phase_bits": 3,
    "num_iterations": 3,
    "average_mode": "db_of_mean",
    "exhaustive_budget": DEFAULT_EXHAUSTIVE_BUDGET,
    "workers": 1,
    "system": {
        "num_users": 6,
        "num_ores": 4,
        "codebook_size": 2,
        "nonzero_per_user": 2,
        "nonzero_per_ore": 3,
    },
    "geometry": {
        "bs_user_distance": 40.0,
        "ris_perpendicular_offset": 1.5,
        "ris_horizontal_offset": 2.0,
        "carrier_frequency": 2.4e9,
    },
    "fading": {
        "rician_factor": 1.0,
        "noise_variance": 1e-8,
        "symbol_energy": 1.0,
        "los_phase": "common",
        "direct_loss_scale": 0.0025,
    },
    "output": {
        "directory": "results",
        "formats": ["csv", "json"],
    },
    "verbosity": 0,   # read by nothing, but config_hash covers it
}


@dataclass(repr=False)
class RunConfig:
    """A validated campaign, where its results go, and the fully defaulted
    ``document`` that :func:`config_hash` covers."""

    campaign: Campaign
    output_directory: str
    output_formats: tuple
    document: dict


def _fits(default, value) -> bool:
    """Whether ``value`` has the JSON type of ``default`` (a bool is never a
    number)."""
    if isinstance(value, bool):
        return False
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:       # an integer literal past the float range
            return False
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


_KINDS = {str: "a string", int: "an integer", float: "a finite number",
          list: "a list of strings"}


def _merge(default, value, path: str = ""):
    """``value`` laid over ``default``: unknown keys and leaves of the wrong
    JSON type are rejected by dotted path.  A None default takes anything;
    the caller checks it once the scenario's defaults are known."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {path!r} must be a JSON object, got {value!r}")
        for key in value:
            if key not in default:
                where = f"{path}.{key}" if path else key
                raise ConfigError(f"unknown config key: {where!r}")
        return {key: _merge(sub, value.get(key, sub), f"{path}.{key}" if path else key)
                for key, sub in default.items()}
    if default is not None and not _fits(default, value):
        raise ConfigError(f"config key {path!r} must be "
                          f"{_KINDS[type(default)]}, got {value!r}")
    return list(value) if isinstance(value, list) else value


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a JSON config document; empty input means all defaults."""
    doc = {}
    if text.strip():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            # An integer literal past Python's int-to-string digit limit, or
            # arrays and objects nested past the recursion limit.
            raise ConfigError(f"config parse error: {exc}") from None
    return config_from_document(doc, overrides)


def config_from_document(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a decoded config document, with the top-level keys of
    ``overrides`` replacing its own."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config document must be a JSON object, got {type(doc).__name__}")
    merged = _merge(DEFAULTS, {**doc, **(overrides or {})})
    scenario = merged["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    sweep = merged["sweep"]
    if sweep["axis"] is None:
        sweep["axis"] = next(iter(SWEEPS[scenario]))
    axis = sweep["axis"]
    if not isinstance(axis, str):
        raise ConfigError(f"config key 'sweep.axis' must be a string, got {axis!r}")
    if sweep["grid"] is None:
        # An axis the scenario does not sweep gets no grid; Campaign names it.
        sweep["grid"] = list(SWEEPS[scenario].get(axis, ()))
    real = axis == "ris_horizontal_offset"
    if not (isinstance(sweep["grid"], list)
            and all(_fits(0.0 if real else 0, x) for x in sweep["grid"])):
        raise ConfigError(f"config key 'sweep.grid' must be a list of "
                          f"{'numbers' if real else 'integers'} for axis "
                          f"{axis!r}, got {sweep['grid']!r}")
    if real:
        sweep["grid"] = [float(x) for x in sweep["grid"]]
    if scenario == "complexity_grid" and "algorithms" not in doc:
        merged["algorithms"] = list(_COUNTED)
    output = merged["output"]
    if not output["formats"]:
        raise ConfigError("output.formats: list at least one format, got []")
    for fmt in output["formats"]:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(f"output.formats: unknown format {fmt!r}")
        if output["formats"].count(fmt) > 1:
            raise ConfigError(f"output.formats: format {fmt!r} is listed more than once")

    # Every top-level scalar except verbosity is a Campaign field.
    fields = {key: tuple(value) if isinstance(value, list) else value
              for key, value in merged.items()
              if not isinstance(value, dict) and key != "verbosity"}
    try:
        campaign = Campaign(
            **fields, sweep_axis=axis, sweep_grid=tuple(sweep["grid"]),
            scma=ScmaConfig(**merged["system"]),
            geometry=Geometry(**merged["geometry"]),
            fading=FadingConfig(**merged["fading"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(campaign=campaign, output_directory=output["directory"],
                     output_formats=tuple(output["formats"]), document=merged)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON with every field explicit; parse(serialize(x)) == x."""
    return json.dumps(cfg.document, indent=2, sort_keys=True) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def campaign_from_config(cfg: RunConfig) -> Campaign:
    return cfg.campaign
