"""Experiment configuration: a key=value file plus flag overrides.

Grammar: UTF-8 lines of ``section.key = value`` (or bare ``key = value``),
``#`` comments. Unknown keys are hard errors, naming the key and line.
Command-line overrides use the same dotted keys and win over the file.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s):
    return [int(x) for x in s.replace("[", "").replace("]", "").split(",") if x.strip()]


def _parse_float_list(s):
    return [float(x) for x in s.replace("[", "").replace("]", "").split(",") if x.strip()]


# key -> (parser, default). None defaults mean "must come from file/flags
# or stay None"; seed is the one genuinely required key.
SCHEMA = {
    "dataset": (str, "synthetic"),
    "arch": (_parse_int_list, [2000, 2000, 2000, 2000]),
    "activation": (str, "relu"),
    "lr": (float, 0.01),
    "epochs": (int, 100),
    "batch_size": (int, 128),
    "seed": (int, None),
    "output_dir": (str, "runs/latest"),
    "data.mnist_dir": (str, "data/mnist"),
    "data.imdb_dir": (str, "data/aclImdb"),
    "data.embedding_cache": (str, ""),
    "data.train_subset": (int, -1),   # -1: dataset default cap; 0: everything
    "data.test_subset": (int, 0),
    "threshold.k": (_parse_float_list, [0.005]),  # one k, or one per layer
    "threshold.k_start": (float, 1.0),
    "threshold.k_end": (float, 1.0),
    "threshold.ramp_epochs": (int, 1),
    "inference.mode": (str, "head"),
    "inference.skip_first_layer": (_parse_bool, True),
    "head.epochs": (int, 8),
    "head.lr": (float, 1e-3),
    "head.batch_size": (int, 128),
    "baseline.enabled": (_parse_bool, False),
    "baseline.lr": (float, 1e-3),
    "baseline.epochs": (int, 0),      # 0: same as epochs
    "sgns.dim": (int, 100),
    "sgns.window": (int, 5),
    "sgns.neg_k": (int, 5),
    "sgns.epochs": (int, 5),
    "sgns.min_count": (int, 5),
    "sgns.lr": (float, 0.025),
    "synthetic.classes": (int, 10),
    "synthetic.dim": (int, 20),
    "synthetic.train_per_class": (int, 200),
    "synthetic.test_per_class": (int, 50),
    "synthetic.separation": (float, 2.0),
}

_DATASETS = ("mnist", "imdb", "synthetic")
# numeric keys with a lower bound; baseline.epochs = 0 means "same as epochs",
# data.train_subset = -1 "the dataset's desk cap"
_AT_LEAST = {
    "epochs": 1,
    "batch_size": 2,
    "head.epochs": 1,
    "head.batch_size": 1,
    "baseline.epochs": 0,
    "data.train_subset": -1,
    "data.test_subset": 0,
    "sgns.dim": 1,
    "sgns.window": 1,
    "sgns.neg_k": 0,
    "sgns.epochs": 0,
    "synthetic.classes": 2,
    "synthetic.dim": 1,
    "synthetic.train_per_class": 1,
    "synthetic.test_per_class": 1,
    "threshold.ramp_epochs": 1,
}
_POSITIVE = ("lr", "head.lr", "baseline.lr", "sgns.lr", "threshold.k_start", "threshold.k_end")
_DESK_SUBSET = {"mnist": 10000, "imdb": 5000, "synthetic": 0}


@dataclass
class ExperimentConfig:
    """Fully-resolved run description."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seed(self):
        return self.values["seed"]


def _set_value(values, key, raw, line=None):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}", line=line)
    parser, _ = SCHEMA[key]
    try:
        values[key] = parser(raw) if isinstance(raw, str) else raw
    except (ValueError, TypeError):
        raise ConfigError(
            f"bad value {raw!r} for key {key!r} (expected {parser.__name__.lstrip('_parse').strip('_') or parser.__name__})",
            line=line,
        ) from None


def parse_config(path=None, overrides=None):
    """Resolve file + overrides + defaults into an ExperimentConfig."""
    values = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"no config file at {path!r}")
        with open(path, "rb") as f:
            data = f.read()
        # bytes split on \n, \r and \r\n, as text mode's universal newlines do
        for lineno, raw_line in enumerate(data.splitlines(), start=1):
            try:
                line = raw_line.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as e:
                raise ConfigError(f"not UTF-8 ({e.reason})", line=lineno) from None
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
            key, _, raw = line.partition("=")
            _set_value(values, key.strip(), raw.strip(), line=lineno)

    for key, raw in (overrides or {}).items():
        _set_value(values, key, raw)

    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)

    _validate(values)
    return ExperimentConfig(values)


def _validate(values):
    if values["seed"] is None:
        raise ConfigError("seed is required (no wall-clock seeding); pass seed=<int>")
    if values["dataset"] not in _DATASETS:
        raise ConfigError(
            f"dataset must be one of {_DATASETS}, got {values['dataset']!r}"
        )
    for key, (parser, _) in SCHEMA.items():
        if parser in (float, _parse_float_list):
            xs = values[key] if parser is _parse_float_list else [values[key]]
            if not all(math.isfinite(x) for x in xs):
                raise ConfigError(f"{key} must be finite, got {values[key]}")
    for key, low in _AT_LEAST.items():
        if values[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {values[key]}")
    if values["batch_size"] % 2:
        raise ConfigError(
            f"batch_size must be even (a row's positive and negative share a "
            f"batch), got {values['batch_size']}"
        )
    for key in _POSITIVE:
        if not values[key] > 0:
            raise ConfigError(f"{key} must be > 0, got {values[key]}")
    arch, ks = values["arch"], values["threshold.k"]
    if not arch or any(w < 1 for w in arch):
        raise ConfigError(f"arch widths must all be >= 1, got {arch}")
    if len(ks) not in (1, len(arch)):
        raise ConfigError(
            f"threshold.k has {len(ks)} entries for the {len(arch)} layers of arch "
            f"{arch}; give one k or one per layer"
        )
    for k in ks:
        if not k > 0:
            raise ConfigError(f"threshold.k must be > 0, got {k}")
    if values["inference.mode"] not in ("head", "sweep"):
        raise ConfigError(
            f"inference.mode must be head or sweep, got {values['inference.mode']!r}"
        )
    if values["data.train_subset"] < 0:
        values["data.train_subset"] = _DESK_SUBSET[values["dataset"]]


def thetas(cfg, widths, epoch):
    """The loss threshold of every layer at one epoch, as float64:

        theta_l(e) = ramp(e) * (k_l * width_l)
        ramp(e)    = k_start + (k_end - k_start) * (min(e, R) / R)

    with ``threshold.k`` (one k broadcast to every layer, or one per layer),
    ``threshold.k_start``, ``threshold.k_end`` and ``threshold.ramp_epochs``
    = R. With the default ramp (k_start = k_end = 1) ramp is exactly 1.0, so
    theta is ``k_l * width_l`` to the bit. A per-layer list must match the
    depth: ``ff-lab analyze --config`` can meet a checkpoint of another one.
    """
    ks = cfg["threshold.k"]
    ks = ks * len(widths) if len(ks) == 1 else ks
    if len(ks) != len(widths):
        raise ConfigError(f"threshold.k has {len(ks)} entries for a depth-{len(widths)} network")
    R = cfg["threshold.ramp_epochs"]
    k_start, k_end = cfg["threshold.k_start"], cfg["threshold.k_end"]
    ramp = k_start + (k_end - k_start) * (min(epoch, R) / R)
    return ramp * (np.array(ks, np.float64) * np.array(widths, np.float64))


def echo_config(cfg):
    """Canonical provenance text: every key, sorted, one per line."""
    lines = []
    for key in sorted(cfg.values):
        v = cfg.values[key]
        if isinstance(v, list):
            v = ",".join(str(x) for x in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
