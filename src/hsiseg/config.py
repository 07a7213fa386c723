"""Flat ``key = value`` configuration files.

Keys are namespaced by dotted prefixes. Unknown keys are rejected; every key
has a documented default below, which is also what the CLI help prints.
"""

from __future__ import annotations

from .errors import ConfigError
from .formats import write_atomic

# key -> (default string, description)
DEFAULTS = {
    "backbone.widths": ("16,32,64,64", "channel width per backbone stage"),
    "backbone.convs": ("2,2,3,3", "convolutions per backbone stage"),
    "model.classes": ("0", "class count; 0 derives it from the label map"),
    "model.input_mean": ("0.5", "input standardization mean"),
    "model.input_std": ("0.25", "input standardization std"),
    "dcm.C": ("32", "context module channel width"),
    "dcm.Z": ("16", "homogeneous area count"),
    "dcm.T": ("5", "clustering iterations"),
    "dcm.heads": ("2", "attention heads"),
    "dcm.mlp_ratio": ("2", "MLP expansion factor"),
    "dcm.use_F": ("true", "concatenate the raw feature stream"),
    "dcm.use_RAC": ("true", "run the per-area regional encoder"),
    "dcm.use_GAC": ("true", "run the descriptor/global branch"),
    "train.epochs": ("30", "training epochs"),
    "train.batch": ("4", "whole tri-spectral images per batch (one tape)"),
    "train.lr": ("0.001", "initial backbone learning rate"),
    "train.momentum": ("0.9", "SGD momentum"),
    "train.weight_decay": ("0.0001", "weight decay"),
    "train.poly_power": ("0.9", "poly schedule exponent"),
    "train.head_lr_multiplier": ("10", "context/head learning-rate factor"),
    "train.seed": ("0", "training seed"),
    "train.val_fraction": ("0.05", "image fraction held out for validation voting"),
}


class Config:
    """Key/value store with typed access and defaults applied."""

    def __init__(self, values=None):
        self.values = dict(values) if values else {}
        for key in self.values:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")

    def get(self, key):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        return self.values.get(key, DEFAULTS[key][0])

    def get_int(self, key):
        try:
            return int(self.get(key))
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.get(key)!r}")

    def get_float(self, key):
        try:
            return float(self.get(key))
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.get(key)!r}")

    def get_bool(self, key):
        raw = self.get(key).strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key} must be true or false, got {raw!r}")

    def get_int_list(self, key):
        raw = self.get(key)
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated integers, got {raw!r}")

    def set(self, key, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        self.values[key] = str(value)


def parse_config(text) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        values[key] = value
    return Config(values)


def load_config(path) -> Config:
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(values, path):
    write_atomic(path, "".join(f"{key} = {values[key]}\n" for key in sorted(values)))


def describe_defaults():
    width = max(len(k) for k in DEFAULTS)
    lines = ["configuration keys (key = default): "]
    for key, (default, help_text) in DEFAULTS.items():
        lines.append(f"  {key:<{width}} = {default:<12} {help_text}")
    return "\n".join(lines)
