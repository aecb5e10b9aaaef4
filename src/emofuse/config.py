"""Flat key-value run configuration.

A config file holds one `key = value` assignment per line with `#` comments.
Defaults encode the reference training settings (graph encoder 256/300
hidden/latent over 50 epochs, classifier over 20 epochs); everything else is
a documented choice and stays overridable from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, asdict

from .exceptions import ConfigError

ABLATIONS = ("full", "N", "T", "E", "RA1", "RA2", "RA3")


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
    vgae_hidden: int = 256
    vgae_latent: int = 300
    vgae_epochs: int = 50
    vgae_lr: float = 0.01
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
    pe_base: float = 1000.0
    emoji_reads_fused_text: bool = True
    # clustering
    top_k: int = 64

    def validate(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}, expected one of {', '.join(ABLATIONS)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not self.kernel_sizes or any(k < 1 for k in self.kernel_sizes):
            raise ConfigError(f"kernel_sizes must be positive, got {self.kernel_sizes}")
        if self.fusion_dim < 1 or self.filters < 1 or self.lstm_hidden < 1:
            raise ConfigError("fusion_dim, filters, and lstm_hidden must be positive")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.top_k < 2:
            raise ConfigError(f"top_k must be >= 2, got {self.top_k}")
        if self.vgae_latent % 2 != 0:
            raise ConfigError(f"vgae_latent must be even for positional encoding, got {self.vgae_latent}")
        return self

    def as_dict(self) -> dict:
        out = asdict(self)
        out["kernel_sizes"] = list(self.kernel_sizes)
        return out


def _parse_value(name: str, text: str, kind):
    text = text.strip()
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        # remaining field type: tuple of ints
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as err:
        raise ConfigError(f"bad value for {name}: {err}") from err


_FIELD_TYPES = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}


def apply_overrides(config: RunConfig, assignments) -> RunConfig:
    """Apply `key=value` strings in order; unknown keys are errors."""
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        name, text = assignment.split("=", 1)
        name = name.strip()
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {name!r}")
        setattr(config, name, _parse_value(name, text, _FIELD_TYPES[name]))
    return config


def load_config(path) -> RunConfig:
    config = RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                name, text = stripped.split("=", 1)
                name = name.strip()
                if name not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{line_no}: unknown config key {name!r}")
                setattr(config, name, _parse_value(name, text, _FIELD_TYPES[name]))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return config


def config_from_dict(data: dict) -> RunConfig:
    """Rebuild a config from its as_dict form (checkpoint echo); retired keys are dropped."""
    config = RunConfig()
    for name, value in data.items():
        if name == "min_count":  # retired, read by nothing; older checkpoint metadata echoes it
            continue
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {name!r} in stored config")
        if name == "kernel_sizes":
            value = tuple(int(v) for v in value)
        setattr(config, name, value)
    return config
