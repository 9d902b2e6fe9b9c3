"""Flat `key = value` run configuration with dotted section prefixes.

Example:

    mode = train
    network.depth = 2
    network.width = 100
    adam.decay = 0.96
    grid.eta_m = 8
    paths.checkpoint_out = checkpoint.txt

Each section is the frozen dataclass the program runs with, and each key and
its type come from one of its fields.  Unknown keys, a key set twice, values
of the wrong type, non-finite numbers and values a section rejects raise
ConfigError when the file is read, in every mode, so mistakes fail loudly
before any compute starts.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints

from .analysis import probe_points
from .loss import CollocationGrid, row_count
from .network import NetworkConfig, check_workspace
from .optim import AdamConfig, LbfgsConfig, lm_bytes
from .oracle import OracleSpec

MODES = ("train", "solve-oracle", "compare", "probe-negative", "export")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PathsSpec:
    checkpoint_in: str = ""
    checkpoint_out: str = "checkpoint.txt"
    csv_out: str = "solution.csv"
    plot_out: str = ""
    report_out: str = "report.txt"
    curve_out: str = "loss_curve.csv"

    def __post_init__(self):
        for f in fields(self):
            path = getattr(self, f.name)
            if "\0" in path:
                raise ValueError(f"{f.name} contains a NUL character")
            if not path and f.name not in ("checkpoint_in", "plot_out"):
                raise ValueError(f"{f.name} must not be empty")
            if path and not os.path.basename(path):
                raise ValueError(f"{f.name} ends in a path separator, not a file name")

    def under(self, out_dir: str) -> PathsSpec:
        """These paths with each relative one joined to out_dir; empty paths
        stay empty."""
        return PathsSpec(*(path and os.path.join(out_dir, path) for path in astuple(self)))


@dataclass(frozen=True)
class RunConfig:
    mode: str = ""
    network: NetworkConfig = field(default_factory=NetworkConfig)
    adam: AdamConfig = field(default_factory=AdamConfig)
    lbfgs: LbfgsConfig = field(default_factory=LbfgsConfig)
    grid: CollocationGrid = field(default_factory=lambda: CollocationGrid(0.0, 8.0, 100))
    probe: CollocationGrid = field(default_factory=lambda: CollocationGrid(-4.5, 7.0, 100))
    oracle: OracleSpec = field(default_factory=OracleSpec)
    paths: PathsSpec = field(default_factory=PathsSpec)

    def __post_init__(self):
        if self.mode and self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}")
        # the largest single forward pass of train or probe-negative, and
        # the Jacobian and J J' of the refinement's rows held beside it
        rows = max(row_count(self.grid.n, False), row_count(self.probe.n, True))
        check_workspace(self.network, max(rows, probe_points(self.probe)),
                        held=lm_bytes(self.network, rows))


def replace_section(cfg: RunConfig, name: str, **values) -> RunConfig:
    """cfg with the given fields of section `name` replaced; a value the
    section rejects raises ConfigError naming the section."""
    try:
        return replace(cfg, **{name: replace(getattr(cfg, name), **values)})
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


def _key_types() -> dict[str, type]:
    """`key` or `section.key` -> value type, from the fields of RunConfig and
    of each section's dataclass."""
    table = {}
    for name, hint in get_type_hints(RunConfig).items():
        if is_dataclass(hint):
            for key, tp in get_type_hints(hint).items():
                table[f"{name}.{key}"] = tp
        else:
            table[name] = hint
    return table


_KEY_TYPES = _key_types()


def parse_config(text: str) -> RunConfig:
    values: dict[str, dict] = defaultdict(dict)   # section ("" at top level) -> field -> value
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
        section, _, attr = key.rpartition(".")
        if attr in values[section]:
            raise ConfigError(f"line {lineno}: {key} is set twice")
        if tp is str:
            val = value
        else:
            try:
                val = tp(value)
            except ValueError:
                kind = "an integer" if tp is int else "a number"
                raise ConfigError(f"line {lineno}: {key} expects {kind}, got {value!r}")
            if tp is float and not math.isfinite(val):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
        values[section][attr] = val

    # every section is built before the RunConfig that checks them together,
    # so the result does not depend on the order of the lines
    top, defaults = values.pop("", {}), RunConfig()
    for section, kw in values.items():
        try:
            top[section] = replace(getattr(defaults, section), **kw)
        except ValueError as err:
            raise ConfigError(f"{section}: {err}") from err
    try:
        return RunConfig(**top)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)
