"""theta is one small pure formula of the parsed config; pin it down exactly."""

import pytest

from fflab.config import parse_config, thetas
from fflab.errors import ConfigError


def _cfg(k, k_start="1", k_end="1", ramp_epochs="1"):
    """A parsed config with these threshold keys (and an arch they fit)."""
    depth = len(k.split(","))
    return parse_config(None, {
        "seed": "1", "arch": ",".join(["8"] * depth), "threshold.k": k,
        "threshold.k_start": k_start, "threshold.k_end": k_end,
        "threshold.ramp_epochs": ramp_epochs,
    })


class TestConstantK:
    """One k on every layer."""

    def test_width_times_k(self):
        assert thetas(_cfg("1"), [2000], 0)[0] == 2000.0

    def test_fractional_k(self):
        assert thetas(_cfg("0.5"), [9, 9, 9, 500], 99)[3] == 250.0


class TestPyramidal:
    """One k per layer."""

    def test_per_layer_product(self):
        cfg = _cfg("0.3,0.5,0.7,0.9")
        assert thetas(cfg, [2000] * 4, 5)[2] == pytest.approx(1400.0)

    def test_layer_out_of_range(self):
        """The widths must match the k values one for one, in both directions."""
        with pytest.raises(ConfigError, match="threshold.k has 2 entries for a depth-3"):
            thetas(_cfg("0.3,0.5"), [100, 100, 100], 0)
        with pytest.raises(ConfigError, match="threshold.k has 3 entries for a depth-2"):
            thetas(_cfg("0.3,0.5,0.7"), [100, 100], 0)

    def test_increasing_k_gives_increasing_theta(self):
        got = list(thetas(_cfg("0.3,0.5,0.7,0.9"), [2000] * 4, 0))
        assert got == sorted(got) and len(set(got)) == 4

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="threshold.k has 0 entries"):
            parse_config(None, {"seed": "1", "threshold.k": ""})


class TestScheduled:
    """A ramp over one k or one k per layer."""

    def test_ramp_endpoints_and_midpoint(self):
        cfg = _cfg("1", "0.1", "0.5", "10")
        assert thetas(cfg, [100], 0)[0] == pytest.approx(0.1 * 100)
        assert thetas(cfg, [100], 5)[0] == pytest.approx(0.3 * 100)
        assert thetas(cfg, [100], 10)[0] == pytest.approx(0.5 * 100)
        assert thetas(cfg, [100], 25)[0] == pytest.approx(0.5 * 100)

    def test_nondecreasing_when_ramping_up(self):
        cfg = _cfg("1", "0.2", "0.8", "7")
        got = [thetas(cfg, [50], e)[0] for e in range(15)]
        assert all(b >= a for a, b in zip(got, got[1:]))

    def test_multiplies_base_scheme(self):
        cfg = _cfg("1,2", "0.1", "0.5", "10")
        assert thetas(cfg, [100, 100], 10)[1] == pytest.approx(0.5 * 2.0 * 100)


def test_thetas_is_pure():
    cfg = _cfg("0.3,0.5", "0.1", "0.5", "10")
    a = thetas(cfg, [7, 321], 4)
    b = thetas(cfg, [7, 321], 4)
    assert list(a) == list(b)


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
    for epoch in range(13):
        got = thetas(cfg, widths, epoch)
        assert list(got) == [_old_theta(old, i, w, epoch) for i, w in enumerate(widths)]
