"""Determinism contract of the counter-based generator."""

import json
import os

import numpy as np
import pytest

from fflab.rng import Rng, derive_seed, mix64

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "rng_golden.json")


def test_golden_stream():
    """The committed fixture pins the stream on every platform."""
    with open(FIXTURE) as f:
        fix = json.load(f)
    r = Rng(fix["seed"])
    got = [f"{r.next_u64():016x}" for _ in range(len(fix["first_u64_hex"]))]
    assert got == fix["first_u64_hex"]
    r = Rng(fix["seed"])
    got_u = [repr(r.uniform()) for _ in range(len(fix["first_uniforms"]))]
    assert got_u == fix["first_uniforms"]


@pytest.mark.parametrize("k", [1, 9])
@pytest.mark.parametrize("n", [1, 10000])
def test_randint_array_matches_scalar_draws(n, k):
    """The values and end state of n scalar randint(k) calls."""
    a, b = Rng(21), Rng(21)
    got = a.randint_array(n, k)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [b.randint(k) for _ in range(n)])
    assert a.state == b.state


def test_randint_array_rejects_an_empty_range():
    r = Rng(22)
    with pytest.raises(ValueError, match="k >= 1"):
        r.randint_array(5, 0)
    assert r.state == Rng(22).state


def test_same_seed_identical_long_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_bulk_matches_scalar_draws():
    """uniform_array must consume and emit exactly the scalar stream."""
    a, b = Rng(9), Rng(9)
    np.testing.assert_array_equal(
        a.uniform_array(257), np.array([b.uniform() for _ in range(257)])
    )
    # and the state keeps advancing identically afterwards
    assert a.next_u64() == b.next_u64()


def test_uniform_range():
    u = Rng(5).uniform_array(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_shuffle_singleton():
    assert Rng(1).shuffle([0]) == [0]


def test_shuffle_preserves_multiset():
    items = list(range(10**4))
    shuffled = Rng(77).shuffle(list(items))
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_shuffle_deterministic():
    a = Rng(4).shuffle(list(range(50)))
    b = Rng(4).shuffle(list(range(50)))
    assert a == b


def test_randint_bounds():
    r = Rng(11)
    draws = [r.randint(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6


def test_normal_moments():
    x = Rng(13).normal_array(200000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_normal_odd_count():
    assert Rng(3).normal_array(7).shape == (7,)


def test_derive_seed_decorrelates():
    seeds = {derive_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 0) == derive_seed(42, 0)


def test_mix64_is_pure():
    assert mix64(12345) == mix64(12345)
    assert 0 <= mix64(2**64 - 1) < 2**64
