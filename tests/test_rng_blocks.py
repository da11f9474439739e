"""Bulk draws made in blocks: the same stream as the scalar draws."""

import tracemalloc

import numpy as np
import pytest

from fflab import rng as rng_mod
from fflab.ffnet import FFLayer
from fflab.numerics import DenseLayer, fan_in_uniform
from fflab.rng import GOLDEN, MASK64, Rng, mix64

from oracles import (
    box_muller, three_pass_fan_in, unmix64, whole_u64_draws, whole_uniform_draws,
)

SIZES = [0, 1, 7, 8, 9, 37]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 8 draws: SIZES sit on both sides of one and two block edges."""
    monkeypatch.setattr(rng_mod, "_DRAW_BLOCK", 8)


def _scalar(seed, n, draw):
    r = Rng(seed)
    return [draw(r) for _ in range(n)], r.state


@pytest.mark.usefixtures("small_blocks")
class TestBlocksEqualScalarDraws:
    @pytest.mark.parametrize("n", SIZES)
    def test_uniform_array(self, n):
        r = Rng(31)
        got = r.uniform_array(n)
        want, state = _scalar(31, n, Rng.uniform)
        assert got.dtype == np.float64 and got.shape == (n,)
        np.testing.assert_array_equal(got, np.array(want, dtype=np.float64))
        assert r.state == state

    @pytest.mark.parametrize("k", [1, 9])
    @pytest.mark.parametrize("n", SIZES)
    def test_randint_array(self, n, k):
        r = Rng(32)
        got = r.randint_array(n, k)
        want, state = _scalar(32, n, lambda s: s.randint(k))
        assert got.dtype == np.int64 and got.shape == (n,)
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))
        assert r.state == state

    @pytest.mark.parametrize("n", SIZES)
    def test_u64_array(self, n):
        r = Rng(33)
        got = r._u64_array(n)
        want, state = _scalar(33, n, Rng.next_u64)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, np.array(want, dtype=np.uint64))
        assert r.state == state

    @pytest.mark.parametrize("n", SIZES)
    def test_normal_array(self, n):
        r = Rng(34)
        got = r.normal_array(n)
        raw, state = _scalar(34, 2 * ((n + 1) // 2), Rng.next_u64)
        np.testing.assert_array_equal(got, box_muller(raw, n))
        assert r.state == state

    def test_shuffle(self):
        got = Rng(35).shuffle(list(range(37)))
        order = list(range(37))
        r = Rng(35)
        for a in range(36, 0, -1):
            b = r.randint(a + 1)
            order[a], order[b] = order[b], order[a]
        assert got == order


def test_several_full_blocks_equal_one_whole_expression():
    """Unpatched blocks: three of them, the last of 3 draws."""
    n = 2 * rng_mod._DRAW_BLOCK + 3
    end = (36 + n * GOLDEN) & MASK64
    r = Rng(36)
    np.testing.assert_array_equal(r.uniform_array(n), whole_uniform_draws(36, n))
    assert r.state == end
    r = Rng(36)
    np.testing.assert_array_equal(r._u64_array(n), whole_u64_draws(36, n))
    assert r.state == end
    r = Rng(36)
    want = (whole_u64_draws(36, n) % np.uint64(9)).astype(np.int64)
    np.testing.assert_array_equal(r.randint_array(n, 9), want)
    assert r.state == end


def test_uniform_array_peak_memory_is_about_its_output():
    n = 10**6
    r = Rng(38)
    tracemalloc.start()
    try:
        r.uniform_array(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n


@pytest.mark.parametrize("layer_cls", [FFLayer, DenseLayer])
def test_layer_init_equals_the_scaled_draws(layer_cls):
    in_dim, out_dim = 13, 6
    act = "relu" if layer_cls is FFLayer else None
    layer = layer_cls(in_dim, out_dim, act, 0.01, Rng(39))
    u = Rng(39).uniform_array(out_dim * in_dim).reshape(out_dim, in_dim)
    assert np.array_equal(layer.W, (u * 2.0 - 1.0) * (1.0 / np.sqrt(in_dim)))


# (out_dim, in_dim): fewer draws than a block, a count that is not a
# multiple of the block, and exactly two blocks; only in_dim 1 and 4096
# give a bound that is a power of two
@pytest.mark.parametrize("out_dim, in_dim", [(6, 13), (1, 1), (7, 5000), (16, 4096)])
def test_fan_in_uniform_keeps_the_three_pass_bits(out_dim, in_dim):
    """Drawn straight into W: every bit of the three-pass expression (the
    sign of zero too, hence the uint64 views), and the same end state."""
    r, ref = Rng(40), Rng(40)
    W = fan_in_uniform(r, out_dim, in_dim)
    want = three_pass_fan_in(ref, out_dim, in_dim)
    assert W.shape == want.shape and W.dtype == np.float64
    np.testing.assert_array_equal(W.view(np.uint64), want.view(np.uint64))
    assert r.state == ref.state


def test_a_draw_of_one_half_gives_positive_zero():
    """u = 0.5 is the one draw that lands on zero: +0.0 on both paths."""
    assert mix64(unmix64(1 << 63)) == 1 << 63
    state = (unmix64(1 << 63) - GOLDEN) & MASK64
    assert Rng(state).uniform() == 0.5
    got = Rng(state).uniform_array(1, 0.3)
    want = (Rng(state).uniform_array(1) * 2.0 - 1.0) * 0.3
    assert got.view(np.uint64)[0] == want.view(np.uint64)[0] == 0
