"""Flat ``key = value`` configuration files.

Keys are namespaced by dotted prefixes. Each key sets one constructor argument,
and its default is the one in that constructor's signature; the CLI help and the
checkpoint sidecar print it as text that parses back to it exactly. Unknown and
repeated keys are rejected. Values are parsed as the file is read, so a
malformed one fails with its key and line before any work starts.
"""

from __future__ import annotations

import inspect

from .errors import ConfigError
from .formats import write_atomic
from .model import BackboneConfig, DualContextNet
from .pipeline import TrainConfig


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

# key -> (owner, argument, parser, description): the key sets ``argument`` of
# ``owner``'s constructor, whose signature holds the default. model.classes
# sets no constructor argument, so its ``argument`` is its default.
DEFAULTS = {
    "backbone.widths": (BackboneConfig, "widths", _int_tuple, "channel width per backbone stage"),
    "backbone.convs": (BackboneConfig, "convs_per_stage", _int_tuple,
                       "convolutions per backbone stage"),
    "model.classes": (None, 0, int, "class count; 0 derives it from the label map"),
    "model.input_mean": (DualContextNet, "input_mean", float, "input standardization mean"),
    "model.input_std": (DualContextNet, "input_std", float, "input standardization std"),
    "dcm.C": (DualContextNet, "channels", int, "context module channel width"),
    "dcm.Z": (DualContextNet, "num_areas", int, "homogeneous area count"),
    "dcm.T": (DualContextNet, "iterations", int, "clustering iterations"),
    "dcm.heads": (DualContextNet, "heads", int, "attention heads"),
    "dcm.mlp_ratio": (DualContextNet, "mlp_ratio", int, "MLP expansion factor"),
    "dcm.use_F": (DualContextNet, "use_input", _bool, "concatenate the raw feature stream"),
    "dcm.use_RAC": (DualContextNet, "use_regional", _bool, "run the per-area regional encoder"),
    "dcm.use_GAC": (DualContextNet, "use_global", _bool, "run the descriptor/global branch"),
    "train.epochs": (TrainConfig, "epochs", int, "training epochs"),
    "train.batch": (TrainConfig, "batch", int, "whole tri-spectral images per batch (one tape)"),
    "train.lr": (TrainConfig, "lr", float, "initial backbone learning rate"),
    "train.momentum": (TrainConfig, "momentum", float, "SGD momentum"),
    "train.weight_decay": (TrainConfig, "weight_decay", float, "weight decay"),
    "train.poly_power": (TrainConfig, "poly_power", float, "poly schedule exponent"),
    "train.head_lr_multiplier": (TrainConfig, "head_lr_multiplier", float,
                                 "context/head learning-rate factor"),
    "train.seed": (TrainConfig, "seed", int, "training seed"),
    "train.val_fraction": (TrainConfig, "val_fraction", float,
                           "image fraction held out for validation voting"),
}


def _parse(key, text):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    parser = DEFAULTS[key][2]
    try:
        return parser(text)
    except ValueError:
        raise ConfigError(f"{key} must be {_EXPECTED[parser]}, got {text!r}") from None


class Config:
    """Every key's text as the config gave it, defaults filled in as text that
    parses back to them exactly; ``get`` parses it."""

    def __init__(self, values=None):
        self.text = {}
        for key, (owner, arg, _, _) in DEFAULTS.items():
            value = arg if owner is None else inspect.signature(owner).parameters[arg].default
            self.text[key] = (",".join(map(str, value)) if isinstance(value, tuple)
                              else repr(value).lower().removesuffix(".0"))
        for key, text in (values or {}).items():
            _parse(key, text)
            self.text[key] = text

    def get(self, key):
        return _parse(key, self.text.get(key))

    def arguments(self):
        """{owner: the keyword arguments the keys set on its constructor}."""
        by_owner = {}
        for key, (owner, arg, _, _) in DEFAULTS.items():
            by_owner.setdefault(owner, {})[arg] = self.get(key)
        return by_owner


def parse_config(text) -> Config:
    values, first_line = {}, {}
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
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
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
    for key, text in Config().text.items():
        lines.append(f"  {key:<{width}} = {text:<12} {DEFAULTS[key][3]}")
    return "\n".join(lines)
