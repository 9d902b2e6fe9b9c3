"""Flat `key = value` run configuration with dotted section prefixes.

Example:

    mode = train
    network.depth = 2
    network.width = 100
    adam.decay = 0.96
    grid.eta_m = 8
    paths.checkpoint_out = checkpoint.txt

Each key and its type come from a field of the dataclass its section fills.
Unknown keys, values of the wrong type and non-finite numbers are rejected
so mistakes fail loudly before any compute starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .loss import BOUNDARY_DERIVATIVE, BOUNDARY_LITERAL, CollocationGrid
from .network import NetworkConfig
from .optim import AdamConfig, LbfgsConfig

MODES = ("train", "solve-oracle", "compare", "probe-negative", "export")


class ConfigError(ValueError):
    pass


@dataclass
class GridSpec:
    eta0: float = 0.0
    eta_m: float = 8.0
    n: int = 100

    def build(self) -> CollocationGrid:
        try:
            return CollocationGrid(self.eta0, self.eta_m, self.n)
        except ValueError as err:
            raise ConfigError(f"collocation grid: {err}") from err


@dataclass
class OracleSpec:
    h: float = 1e-4
    eta_max: float = 8.0
    blowup_h: float = 1e-5


@dataclass
class PathsSpec:
    checkpoint_in: str = ""
    checkpoint_out: str = "checkpoint.txt"
    csv_out: str = "solution.csv"
    plot_out: str = ""
    report_out: str = "report.txt"
    curve_out: str = "loss_curve.csv"


@dataclass
class RunConfig:
    mode: str = ""
    network: dict = field(default_factory=dict)   # raw overrides for NetworkConfig
    adam: dict = field(default_factory=dict)
    lbfgs: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)
    probe: GridSpec = field(default_factory=lambda: GridSpec(eta0=-5.69, eta_m=7.0))
    oracle: OracleSpec = field(default_factory=OracleSpec)
    paths: PathsSpec = field(default_factory=PathsSpec)
    boundary_variant: str = BOUNDARY_DERIVATIVE

    def network_config(self, seed_override: int | None = None) -> NetworkConfig:
        kw = dict(self.network)
        if seed_override is not None:
            kw["seed"] = seed_override
        try:
            return NetworkConfig(**kw)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"network config: {err}") from err

    def adam_config(self) -> AdamConfig:
        try:
            return AdamConfig(**self.adam)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"adam config: {err}") from err

    def lbfgs_config(self) -> LbfgsConfig:
        try:
            return LbfgsConfig(**self.lbfgs)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"lbfgs config: {err}") from err


# sections held as raw keyword overrides until the config object is built
_OVERRIDES = {"network": NetworkConfig, "adam": AdamConfig, "lbfgs": LbfgsConfig}


def _key_types() -> dict[str, type]:
    """`key` or `section.key` -> value type, from the fields of RunConfig and
    of the dataclass each section fills."""
    table = {}
    for name, hint in get_type_hints(RunConfig).items():
        section = _OVERRIDES.get(name, hint)
        if is_dataclass(section):
            for key, tp in get_type_hints(section).items():
                table[f"{name}.{key}"] = tp
        else:
            table[name] = hint
    return table


_KEY_TYPES = _key_types()


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        tp = _KEY_TYPES.get(key)
        if tp is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if tp is str:
            val = value
        else:
            try:
                val = tp(value)
            except ValueError:
                kind = "an integer" if tp is int else "a number"
                raise ConfigError(f"line {lineno}: {key} expects {kind}, got {value!r}")
            if not math.isfinite(val):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")

        if "." in key:
            section, attr = key.split(".", 1)
            target = getattr(cfg, section)
            if isinstance(target, dict):
                target[attr] = val
            else:
                setattr(target, attr, val)
        else:
            setattr(cfg, key, val)

    if cfg.mode and cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {', '.join(MODES)}")
    if cfg.boundary_variant not in (BOUNDARY_DERIVATIVE, BOUNDARY_LITERAL):
        raise ConfigError(
            f"boundary_variant must be '{BOUNDARY_DERIVATIVE}' or '{BOUNDARY_LITERAL}'"
        )
    for f in fields(OracleSpec):
        if not getattr(cfg.oracle, f.name) > 0.0:
            raise ConfigError(f"oracle.{f.name} must be positive")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)
