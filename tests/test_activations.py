"""Every activation's derivative must agree with finite differences, and
every activation keeps a float32 input float32."""

import numpy as np
import pytest

from fflab.activations import ACTIVATIONS, get_activation
from fflab.errors import UsageError
from fflab.numerics import row_directions
from fflab.rng import Rng

from oracles import leaky_relu


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_deriv_matches_finite_difference(name):
    act = ACTIVATIONS[name]
    rng = Rng(17)
    z = rng.uniform_array(200) * 8.0 - 4.0
    z = z[np.abs(z) > 1e-3]  # keep clear of the relu-family kink
    h = 1e-6
    numeric = (act.fn(z + h) - act.fn(z - h)) / (2 * h)
    np.testing.assert_allclose(act.deriv(z), numeric, atol=1e-6)


def test_relu_dead_at_zero():
    act = ACTIVATIONS["relu"]
    assert act.fn(np.array([0.0]))[0] == 0.0
    assert act.deriv(np.array([0.0]))[0] == 0.0


def test_sigmoid_extremes_are_finite():
    s = ACTIVATIONS["sigmoid"].fn(np.array([-1000.0, 1000.0]))
    assert s[0] == 0.0 and s[1] == 1.0


def test_unknown_activation():
    with pytest.raises(UsageError, match="unknown activation"):
        get_activation("softplusish")


def test_custom_leaky_slope():
    act = leaky_relu(0.2)
    np.testing.assert_allclose(act.fn(np.array([-2.0, 3.0])), [-0.4, 3.0])
    z = np.array([-1.5, 2.5])
    h = 1e-6
    numeric = (act.fn(z + h) - act.fn(z - h)) / (2 * h)
    np.testing.assert_allclose(act.deriv(z), numeric, atol=1e-6)


def _sigmoid_formula(u):
    out = np.empty_like(u)
    pos = u >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


# the float64 formulas as written before float32 inputs kept their dtype
FLOAT64_FORMULAS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "leaky_relu": lambda z: np.where(z > 0.0, z, 0.01 * z),
    "tanh": np.tanh,
    "sigmoid": _sigmoid_formula,
    "gelu": lambda z: 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * z ** 3))),
    "row_directions": lambda X: X / np.maximum(np.sqrt(np.sum(X * X, axis=1))[:, None], 1e-8),
}


@pytest.mark.parametrize("name", sorted(FLOAT64_FORMULAS))
def test_float32_stays_float32_and_float64_keeps_its_bits(name):
    """The label sweep forwards float32 chunks: no activation and no
    row_directions may promote them, and float64 results keep their bits."""
    fn = row_directions if name == "row_directions" else ACTIVATIONS[name].fn
    z = (Rng(18).uniform_array(60) * 8.0 - 4.0).reshape(6, 10)
    z[0] = 0.0  # relu's kink, and a row under row_directions' eps floor
    got = fn(z)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, FLOAT64_FORMULAS[name](z))
    got32 = fn(z.astype(np.float32))
    assert got32.dtype == np.float32
    np.testing.assert_allclose(got32, got, rtol=1e-5, atol=1e-6)
