"""Flat key-value run configuration.

A config file holds one `key = value` assignment per line with `#` comments.
Defaults encode the reference training settings (graph encoder 256/300
hidden/latent over 50 epochs, classifier over 20 epochs); everything else is
a documented choice and stays overridable from the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, asdict

from .attention import ABLATIONS
from .exceptions import ConfigError, reading
from .text_encoder import PE_BASE
from .vgae import VgaeConfig

# Retired keys that older checkpoint metadata echoes: `min_count` (None) is
# dropped at any value, the others only at the one value that is built now.
_RETIRED = {"min_count": None, "pe_base": PE_BASE, "emoji_reads_fused_text": True}


@dataclass
class RunConfig:
    # input/output paths
    unlabeled_corpus: str = ""
    inventory: str = ""
    word_vectors: str = ""
    train_data: str = ""
    test_data: str = ""
    graph_dir: str = "graph"
    embeddings: str = ""
    checkpoint: str = ""
    output_dir: str = "out"
    # shared
    seed: int = 0
    num_classes: int = 2
    min_pair_count: int = 1
    # graph autoencoder
    vgae_hidden: int = VgaeConfig.hidden
    vgae_latent: int = VgaeConfig.latent
    vgae_epochs: int = VgaeConfig.epochs
    vgae_lr: float = VgaeConfig.lr
    # classifier
    epochs: int = 20
    lr: float = 0.001
    batch_size: int = 32
    max_len: int = 64
    lstm_hidden: int = 64
    fusion_dim: int = 300
    ffn_dim: int = 600
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    filters: int = 100
    ablation: str = "full"
    # clustering
    top_k: int = 64

    def validate(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}, expected one of {', '.join(ABLATIONS)}")
        if not self.kernel_sizes or any(k < 1 for k in self.kernel_sizes):
            raise ConfigError(f"kernel_sizes must be positive, got {self.kernel_sizes}")
        for name, least in (("seed", 0), ("num_classes", 2), ("min_pair_count", 1), ("fusion_dim", 1),
                            ("filters", 1), ("lstm_hidden", 1), ("ffn_dim", 1), ("max_len", 1),
                            ("batch_size", 1), ("top_k", 2), ("epochs", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        self.vgae().validate("vgae_")
        return self

    def vgae(self) -> VgaeConfig:
        """The graph autoencoder's settings, the `vgae_*` keys."""
        return VgaeConfig(self.vgae_hidden, self.vgae_latent, self.vgae_epochs, self.vgae_lr)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["kernel_sizes"] = list(self.kernel_sizes)
        return out


_FIELD_TYPES = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}


def _assign(config: RunConfig, assignment: str, where: str = "") -> None:
    """Set one `key = value` assignment on `config`; unknown keys are errors.

    Every message starts with `where`, a config file's `path:line: `; a
    `--set` override has none, and a malformed one is named as an override.
    """
    name, sep, text = assignment.partition("=")
    if not sep:
        raise ConfigError(f"{where or 'override '}{assignment!r} is not of the form key=value")
    name, text = name.strip(), text.strip()
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ConfigError(f"{where}unknown config key {name!r}")
    try:
        if kind is tuple:
            value = tuple(int(part) for part in text.replace(",", " ").split())
        else:
            value = kind(text)
    except ValueError as err:
        raise ConfigError(f"{where}bad value for {name}: {err}") from err
    setattr(config, name, value)


def apply_overrides(config: RunConfig, assignments) -> RunConfig:
    """Apply `key=value` strings in order; unknown keys are errors."""
    for assignment in assignments:
        _assign(config, assignment)
    return config


def load_config(path) -> RunConfig:
    config = RunConfig()
    with reading(path, ConfigError, "config") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                _assign(config, stripped, f"{path}:{line_no}: ")
    return config


_STORED_TYPES = {int: "an int", float: "a number", str: "a string", tuple: "a list of ints"}


def _stored_type_ok(kind, value) -> bool:
    """Whether a JSON value is a field of type `kind`; a bool is never a number."""
    if kind is tuple:
        return isinstance(value, list) and all(_stored_type_ok(int, v) for v in value)
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def config_from_dict(data: dict) -> RunConfig:
    """Rebuild a config from its as_dict form (checkpoint echo); see `_RETIRED`."""
    config = RunConfig()
    for name, value in data.items():
        if name in _RETIRED:
            if _RETIRED[name] is not None and value != _RETIRED[name]:
                raise ConfigError(f"stored config key {name!r} is {value!r}; it is retired "
                                  f"and only {_RETIRED[name]!r} is built now")
            continue
        kind = _FIELD_TYPES.get(name)
        if kind is None:
            raise ConfigError(f"unknown config key {name!r} in stored config")
        if not _stored_type_ok(kind, value):
            raise ConfigError(f"stored config key {name!r} is {value!r}, expected {_STORED_TYPES[kind]}")
        setattr(config, name, tuple(value) if kind is tuple else kind(value))
    return config
