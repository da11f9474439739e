"""Thresholds are one small pure formula; pin it down exactly."""

import pytest

from fflab.config import parse_config, threshold_strategy
from fflab.errors import UsageError
from fflab.thresholds import Thresholds


class TestConstantK:
    """One k on every layer."""

    def test_width_times_k(self):
        assert Thresholds((1.0,)).thetas([2000], 0)[0] == 2000.0

    def test_fractional_k(self):
        assert Thresholds((0.5,) * 4).thetas([9, 9, 9, 500], 99)[3] == 250.0

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            Thresholds((0.0,))


class TestPyramidal:
    """One k per layer."""

    def test_per_layer_product(self):
        strat = Thresholds((0.3, 0.5, 0.7, 0.9))
        assert strat.thetas([2000] * 4, 5)[2] == pytest.approx(1400.0)

    def test_layer_out_of_range(self):
        """The widths must match the k values one for one, in both directions."""
        with pytest.raises(UsageError, match="3 layer widths for 2 threshold factors"):
            Thresholds((0.3, 0.5)).thetas([100, 100, 100], 0)
        with pytest.raises(UsageError, match="2 layer widths for 3 threshold factors"):
            Thresholds((0.3, 0.5, 0.7)).thetas([100, 100], 0)

    def test_increasing_k_gives_increasing_theta(self):
        thetas = list(Thresholds((0.3, 0.5, 0.7, 0.9)).thetas([2000] * 4, 0))
        assert thetas == sorted(thetas) and len(set(thetas)) == 4

    def test_rejects_empty(self):
        with pytest.raises(UsageError, match="at least one k"):
            Thresholds(())


class TestScheduled:
    """A ramp over one k or one k per layer."""

    def test_ramp_endpoints_and_midpoint(self):
        strat = Thresholds((1.0,), 0.1, 0.5, 10)
        assert strat.thetas([100], 0)[0] == pytest.approx(0.1 * 100)
        assert strat.thetas([100], 5)[0] == pytest.approx(0.3 * 100)
        assert strat.thetas([100], 10)[0] == pytest.approx(0.5 * 100)
        assert strat.thetas([100], 25)[0] == pytest.approx(0.5 * 100)

    def test_nondecreasing_when_ramping_up(self):
        strat = Thresholds((1.0,), 0.2, 0.8, 7)
        thetas = [strat.thetas([50], e)[0] for e in range(15)]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    def test_multiplies_base_scheme(self):
        strat = Thresholds((1.0, 2.0), 0.1, 0.5, 10)
        assert strat.thetas([100, 100], 10)[1] == pytest.approx(0.5 * 2.0 * 100)

    def test_rejects_bad_ramp(self):
        with pytest.raises(UsageError):
            Thresholds((1.0,), 0.1, 0.5, 0)

    @pytest.mark.parametrize("k_start, k_end", [(0.0, 0.5), (0.1, -0.5)])
    def test_rejects_nonpositive_ramp_ends(self, k_start, k_end):
        with pytest.raises(UsageError, match="k_start and k_end"):
            Thresholds((1.0,), k_start, k_end, 10)


def test_thetas_is_pure():
    strat = Thresholds((0.3, 0.5), 0.1, 0.5, 10)
    a = strat.thetas([7, 321], 4)
    b = strat.thetas([7, 321], 4)
    assert list(a) == list(b)


def test_thetas_validates_width():
    with pytest.raises(UsageError):
        Thresholds((1.0,)).thetas([0], 0)


# each old threshold.strategy shape: its old settings and its new spelling
_RAMP = {"threshold.k_start": "0.1", "threshold.k_end": "0.9", "threshold.ramp_epochs": "7"}
_OLD = {"k": 0.37, "k_per_layer": [0.3, 0.55, 0.7], "k_start": 0.1, "k_end": 0.9,
        "ramp_epochs": 7}
_SHAPES = {
    "constant": (dict(_OLD, strategy="constant"), {"threshold.k": "0.37"}),
    "pyramidal": (dict(_OLD, strategy="pyramidal"), {"threshold.k": "0.3,0.55,0.7"}),
    "scheduled-constant": (
        dict(_OLD, strategy="scheduled", base="constant"), dict(_RAMP, **{"threshold.k": "1"})
    ),
    "scheduled-pyramidal": (
        dict(_OLD, strategy="scheduled", base="pyramidal"),
        dict(_RAMP, **{"threshold.k": "0.3,0.55,0.7"}),
    ),
}


def _old_theta(old, layer, width, epoch):
    """theta as the per-strategy classes computed it, one layer at a time."""
    kind = old["strategy"]
    if kind == "constant":
        return old["k"] * width
    if kind == "pyramidal":
        return old["k_per_layer"][layer] * width
    base_k = 1.0 if old["base"] == "constant" else old["k_per_layer"][layer]
    R = old["ramp_epochs"]
    frac = min(epoch, R) / R
    k = old["k_start"] + (old["k_end"] - old["k_start"]) * frac
    return k * (base_k * width)


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_config_shapes_equal_the_per_strategy_formula_bit_for_bit(shape):
    """Every old threshold.strategy shape, written in the threshold.k and
    ramp keys, gives exactly (==) the theta the old constant / pyramidal /
    scheduled classes gave, epochs 0-12."""
    widths = [24, 16, 12]
    old, new = _SHAPES[shape]
    cfg = parse_config(None, dict(new, seed="1", arch="24,16,12"))
    strat = threshold_strategy(cfg, len(widths))
    for epoch in range(13):
        got = strat.thetas(widths, epoch)
        assert list(got) == [_old_theta(old, i, w, epoch) for i, w in enumerate(widths)]
