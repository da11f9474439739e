"""Every activation's derivative must agree with finite differences."""

import numpy as np
import pytest

from fflab.activations import ACTIVATIONS, get_activation
from fflab.errors import UsageError
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
