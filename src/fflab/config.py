"""Experiment configuration: a key=value file plus flag overrides.

Grammar: UTF-8 lines of ``section.key = value`` (or bare ``key = value``),
``#`` comments. Unknown keys are hard errors, naming the key and line.
Command-line overrides use the same dotted keys and win over the file.
"""

import math
import os

import numpy as np

from .activations import ACTIVATIONS
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


POSITIVE = "> 0"

# key -> (parser, default, rule). A rule is None, an inclusive lower bound,
# POSITIVE, or a tuple of the allowed values; a list value meets it entry by
# entry. Every float is also finite. A None default means "must come from
# file/flags"; seed is the one such key.
SCHEMA = {
    "dataset": (str, "synthetic", ("mnist", "imdb", "synthetic")),
    "arch": (_parse_int_list, [2000, 2000, 2000, 2000], None),
    "activation": (str, "relu", tuple(ACTIVATIONS)),
    "lr": (float, 0.01, POSITIVE),
    "epochs": (int, 100, 1),
    "batch_size": (int, 128, 2),
    "seed": (int, None, None),
    "output_dir": (str, "runs/latest", None),
    "data.mnist_dir": (str, "data/mnist", None),
    "data.imdb_dir": (str, "data/aclImdb", None),
    "data.embedding_cache": (str, "", None),
    "data.train_subset": (int, -1, -1),   # -1: dataset default cap; 0: everything
    "data.test_subset": (int, 0, 0),
    "threshold.k": (_parse_float_list, [0.005], POSITIVE),  # one k, or one per layer
    "threshold.k_start": (float, 1.0, POSITIVE),
    "threshold.k_end": (float, 1.0, POSITIVE),
    "threshold.ramp_epochs": (int, 1, 1),
    "inference.skip_first_layer": (_parse_bool, True, None),
    "head.epochs": (int, 8, 1),
    "head.lr": (float, 1e-3, POSITIVE),
    "head.batch_size": (int, 128, 1),
    "baseline.enabled": (_parse_bool, False, None),
    "baseline.lr": (float, 1e-3, POSITIVE),
    "baseline.epochs": (int, 0, 0),      # 0: same as epochs
    "sgns.dim": (int, 100, 1),
    "sgns.window": (int, 5, 1),
    "sgns.neg_k": (int, 5, 0),
    "sgns.epochs": (int, 5, 0),
    "sgns.min_count": (int, 5, None),
    "sgns.lr": (float, 0.025, POSITIVE),
    "synthetic.classes": (int, 10, 2),
    "synthetic.dim": (int, 20, 1),
    "synthetic.train_per_class": (int, 200, 1),
    "synthetic.test_per_class": (int, 50, 1),
    "synthetic.separation": (float, 2.0, None),
}
_DESK_SUBSET = {"mnist": 10000, "imdb": 5000, "synthetic": 0}


def _set_value(values, key, raw, line=None):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}", line=line)
    parser = SCHEMA[key][0]
    try:
        values[key] = parser(raw) if isinstance(raw, str) else raw
    except (ValueError, TypeError):
        raise ConfigError(
            f"bad value {raw!r} for key {key!r} (expected {parser.__name__.lstrip('_parse').strip('_') or parser.__name__})",
            line=line,
        ) from None


def parse_config(path=None, overrides=None):
    """Resolve file + overrides + defaults into the validated dict of every
    ``SCHEMA`` key."""
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

    for key, (_, default, _) in SCHEMA.items():
        values.setdefault(key, default)

    _validate(values)
    return values


def _broken(key, x, rule):
    """The error message if value ``x`` of ``key`` breaks ``rule``, else None."""
    if rule is None:
        return None
    if isinstance(rule, tuple):
        return None if x in rule else f"{key} must be one of {rule}, got {x!r}"
    if rule == POSITIVE:
        return None if x > 0 else f"{key} must be > 0, got {x}"
    return None if x >= rule else f"{key} must be >= {rule}, got {x}"


def _validate(values):
    if values["seed"] is None:
        raise ConfigError("seed is required (no wall-clock seeding); pass seed=<int>")
    for key, (parser, _, rule) in SCHEMA.items():
        v = values[key]
        xs = v if isinstance(v, list) else [v]
        if parser in (float, _parse_float_list) and not all(math.isfinite(x) for x in xs):
            raise ConfigError(f"{key} must be finite, got {v}")
        for x in xs:
            message = _broken(key, x, rule)
            if message:
                raise ConfigError(message)
    if values["batch_size"] % 2:
        raise ConfigError(
            f"batch_size must be even (a row's positive and negative share a "
            f"batch), got {values['batch_size']}"
        )
    arch, ks = values["arch"], values["threshold.k"]
    if not arch or any(w < 1 for w in arch):
        raise ConfigError(f"arch widths must all be >= 1, got {arch}")
    if len(ks) not in (1, len(arch)):
        raise ConfigError(
            f"threshold.k has {len(ks)} entries for the {len(arch)} layers of arch "
            f"{arch}; give one k or one per layer"
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
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, list):
            v = ",".join(str(x) for x in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
