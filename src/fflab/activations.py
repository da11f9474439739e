"""Pluggable activation functions with closed-form derivatives.

The ablation set deliberately spans unbounded (relu, leaky_relu, gelu)
and bounded (tanh, sigmoid) kinds: bounded activations cap a layer's
goodness at its width, which is the failure mechanism probed by the
bounded-activation tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# Python floats, so a float32 input stays float32 (NEP 50); same values as np.sqrt
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715


@dataclass(frozen=True)
class Activation:
    name: str
    tag: int
    fn: callable
    deriv: callable


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_deriv(z):
    return (z > 0.0).astype(np.float64)


def _make_leaky(slope):
    def fn(z):
        return np.where(z > 0.0, z, slope * z)

    def deriv(z):
        return np.where(z > 0.0, 1.0, slope)

    return fn, deriv


def _tanh(z):
    return np.tanh(z)


def _tanh_deriv(z):
    t = np.tanh(z)
    return 1.0 - t * t


def stable_sigmoid(u):
    """Overflow-safe logistic function, scalar or array; float32 in,
    float32 out, anything else in float64."""
    u = np.asarray(u)
    if u.dtype != np.float32:
        u = u.astype(np.float64, copy=False)
    out = np.empty_like(u)
    pos = u >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out if out.ndim else float(out)


def softmax(logits):
    """Row-wise stable softmax."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _sigmoid_deriv(z):
    s = stable_sigmoid(z)
    return s * (1.0 - s)


def _gelu(z):
    inner = _SQRT_2_OVER_PI * (z + _GELU_C * z ** 3)
    return 0.5 * z * (1.0 + np.tanh(inner))


def _gelu_deriv(z):
    inner = _SQRT_2_OVER_PI * (z + _GELU_C * z ** 3)
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    return 0.5 * (1.0 + t) + 0.5 * z * sech2 * _SQRT_2_OVER_PI * (
        1.0 + 3.0 * _GELU_C * z ** 2
    )


DEFAULT_LEAKY_SLOPE = 0.01
_leaky_fn, _leaky_deriv = _make_leaky(DEFAULT_LEAKY_SLOPE)

RELU = Activation("relu", 0, _relu, _relu_deriv)
LEAKY_RELU = Activation("leaky_relu", 1, _leaky_fn, _leaky_deriv)
TANH = Activation("tanh", 2, _tanh, _tanh_deriv)
SIGMOID = Activation("sigmoid", 3, stable_sigmoid, _sigmoid_deriv)
GELU = Activation("gelu", 4, _gelu, _gelu_deriv)

ACTIVATIONS = {a.name: a for a in (RELU, LEAKY_RELU, TANH, SIGMOID, GELU)}
_BY_TAG = {a.tag: a for a in ACTIVATIONS.values()}


def get_activation(name):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise UsageError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None


def activation_by_tag(tag):
    try:
        return _BY_TAG[tag]
    except KeyError:
        raise UsageError(f"unknown activation tag {tag}") from None

