"""Flat ``key = value`` configuration files.

Keys are namespaced by dotted prefixes. Unknown keys are rejected; every key
has a documented default and a parser below, and the defaults are also what
the CLI help prints. Values are parsed as the file is read, so a malformed
one fails with its key and line before any work starts.
"""

from __future__ import annotations

from .errors import ConfigError
from .formats import write_atomic


def _bool(text):
    raw = text.strip().lower()
    if raw in ("true", "1", "yes", "on"):
        return True
    if raw in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _int_tuple(text):
    return tuple(int(part) for part in text.split(","))


_EXPECTED = {int: "an integer", float: "a number", _bool: "true or false",
             _int_tuple: "comma-separated integers"}

# key -> (default string, parser, description)
DEFAULTS = {
    "backbone.widths": ("16,32,64,64", _int_tuple, "channel width per backbone stage"),
    "backbone.convs": ("2,2,3,3", _int_tuple, "convolutions per backbone stage"),
    "model.classes": ("0", int, "class count; 0 derives it from the label map"),
    "model.input_mean": ("0.5", float, "input standardization mean"),
    "model.input_std": ("0.25", float, "input standardization std"),
    "dcm.C": ("32", int, "context module channel width"),
    "dcm.Z": ("16", int, "homogeneous area count"),
    "dcm.T": ("5", int, "clustering iterations"),
    "dcm.heads": ("2", int, "attention heads"),
    "dcm.mlp_ratio": ("2", int, "MLP expansion factor"),
    "dcm.use_F": ("true", _bool, "concatenate the raw feature stream"),
    "dcm.use_RAC": ("true", _bool, "run the per-area regional encoder"),
    "dcm.use_GAC": ("true", _bool, "run the descriptor/global branch"),
    "train.epochs": ("30", int, "training epochs"),
    "train.batch": ("4", int, "whole tri-spectral images per batch (one tape)"),
    "train.lr": ("0.001", float, "initial backbone learning rate"),
    "train.momentum": ("0.9", float, "SGD momentum"),
    "train.weight_decay": ("0.0001", float, "weight decay"),
    "train.poly_power": ("0.9", float, "poly schedule exponent"),
    "train.head_lr_multiplier": ("10", float, "context/head learning-rate factor"),
    "train.seed": ("0", int, "training seed"),
    "train.val_fraction": ("0.05", float, "image fraction held out for validation voting"),
}


def _parse(key, text):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    parser = DEFAULTS[key][1]
    try:
        return parser(text)
    except ValueError:
        raise ConfigError(f"{key} must be {_EXPECTED[parser]}, got {text!r}") from None


class Config:
    """Every key's text as the config gave it, defaults filled in; ``get``
    parses it."""

    def __init__(self, values=None):
        self.text = {key: default for key, (default, _, _) in DEFAULTS.items()}
        for key, text in (values or {}).items():
            _parse(key, text)
            self.text[key] = text

    def get(self, key):
        return _parse(key, self.text.get(key))


def parse_config(text) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        try:
            _parse(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
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
    for key, (default, _, help_text) in DEFAULTS.items():
        lines.append(f"  {key:<{width}} = {default:<12} {help_text}")
    return "\n".join(lines)
