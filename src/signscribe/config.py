"""Validated run configuration shared by the trainer, evaluator, and CLI."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .model import PROTOCOLS, RECOGNITION, TRANSLATION


# field annotation (a string, under postponed evaluation) -> (test, what it
# admits); type() rather than isinstance keeps bools out of the numbers
_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) is int or type(v) is float and math.isfinite(v),
              "a finite number"),
    "str": (lambda v: type(v) is str, "a string"),
}


@dataclass(frozen=True)
class RunConfig:
    """One experiment: corpus, protocol, model size, optimization, decoding.

    Defaults follow the reference setup (512-wide, 8-head, 3-layer stacks;
    Adam at 1e-3 with additive weight decay; plateau scheduling with patience
    8, factor 0.7, floor 1e-6). Desk-scale runs override the model dims.
    lambda_r and lambda_t weigh the two log-domain losses of `losses`, the
    only training objective.
    """

    corpus: str = ""
    out_dir: str = "run"
    protocol: str = "sign2gloss+text"
    lambda_r: float = 5.0
    lambda_t: float = 1.0
    # model
    d: int = 512
    n_heads: int = 8
    n_enc_layers: int = 3
    n_dec_layers: int = 3
    d_ff: int = 2048
    dropout: float = 0.1
    # optimizer
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.998
    eps: float = 1e-8
    weight_decay: float = 1e-3
    batch_size: int = 32
    max_iterations: int = 2000
    # plateau scheduler
    eval_every: int = 100
    patience: int = 8
    lr_factor: float = 0.7
    lr_floor: float = 1e-6
    seed: int = 0
    # dev decoding during training (always greedy)
    max_len_cap: int = 60

    def __post_init__(self):
        for f in fields(self):
            admits, what = _TYPES[f.type]
            if not admits(getattr(self, f.name)):
                raise ConfigError(f"{f.name}: must be {what}, got {getattr(self, f.name)!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"protocol: {self.protocol!r} is not one of {PROTOCOLS}"
            )
        self._check_weights()
        if self.d < 1 or self.n_heads < 1 or self.d % self.n_heads != 0:
            raise ConfigError(
                f"d/n_heads: {self.d} hidden units do not split into {self.n_heads} heads"
            )
        for name in ("n_enc_layers", "n_dec_layers", "d_ff", "batch_size",
                     "max_iterations", "eval_every", "patience", "max_len_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout: must be in [0, 1), got {self.dropout}")
        for name in ("lr", "eps", "lr_floor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name}: must be in (0, 1), got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay: must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr_factor: must be in (0, 1), got {self.lr_factor}")

    def _check_weights(self):
        p, lr_, lt_ = self.protocol, self.lambda_r, self.lambda_t
        if lr_ < 0 or lt_ < 0:
            raise ConfigError("lambda_r/lambda_t: loss weights must be nonnegative")
        # a weight is positive exactly when the protocol trains its head
        for name, weight, heads in (("lambda_r", lr_, RECOGNITION),
                                    ("lambda_t", lt_, TRANSLATION)):
            if (weight > 0) != (p in heads):
                rule = "> 0" if p in heads else "== 0"
                raise ConfigError(
                    f"{name}: protocol {p} requires {name} {rule}, "
                    f"got lambda_r={lr_}, lambda_t={lt_}"
                )

    def to_dict(self) -> dict:
        return asdict(self)


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def config_from_dict(values: dict) -> RunConfig:
    """Build a RunConfig, rejecting unknown keys with a field-level message."""
    unknown = sorted(set(values) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """Read a JSON config file into a validated RunConfig."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a single object")
    return config_from_dict(values)
