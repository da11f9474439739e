"""matmul, normalization, and the Adam recursion against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab import numerics
from fflab.errors import DimensionError
from fflab.numerics import AdamState, adam_step, direction, l2_normalize, matmul, row_directions
from fflab.rng import Rng

from oracles import loop_matmul, scalar_adam


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = np.zeros((2, 1))
        np.testing.assert_array_equal(matmul(a, z), np.zeros((2, 1)))

    def test_small_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        np.testing.assert_array_equal(matmul(a, b), np.array([[17.0], [39.0]]))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_matches_loop_oracle(self):
        rng = Rng(100)
        a = rng.uniform_array(12).reshape(3, 4)
        b = rng.uniform_array(20).reshape(4, 5)
        np.testing.assert_allclose(matmul(a, b), loop_matmul(a, b), rtol=1e-13)

    def test_associativity(self):
        rng = Rng(8)
        for _ in range(5):
            a = rng.uniform_array(6).reshape(2, 3)
            b = rng.uniform_array(12).reshape(3, 4)
            c = rng.uniform_array(8).reshape(4, 2)
            np.testing.assert_allclose(
                matmul(matmul(a, b), c), matmul(a, matmul(b, c)), rtol=1e-9
            )


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            l2_normalize(np.array([3.0, 4.0]), eps=0.0), [0.6, 0.8]
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            l2_normalize(np.zeros(2), eps=1e-8), np.zeros(2)
        )

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_scale_invariance_eps_zero(self, c):
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            l2_normalize(c * x, eps=0.0), l2_normalize(x, eps=0.0), atol=1e-12
        )

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_property(self, vals, c):
        x = np.array(vals)
        if np.linalg.norm(x) < 1e-6:
            return
        np.testing.assert_allclose(
            l2_normalize(c * x, eps=0.0), l2_normalize(x, eps=0.0), atol=1e-12
        )

    def test_direction_zero_safe(self):
        np.testing.assert_array_equal(direction(np.zeros(3)), np.zeros(3))

    def test_row_directions_matches_direction(self):
        rng = Rng(3)
        X = rng.uniform_array(12).reshape(3, 4)
        rows = row_directions(X)
        for i in range(3):
            np.testing.assert_allclose(rows[i], direction(X[i]), rtol=1e-15)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        rng = Rng(2)
        p = rng.uniform_array(6).reshape(2, 3)
        before = p.copy()
        st_ = AdamState.for_param(p.shape, lr=0.01)
        for _ in range(3):
            adam_step(st_, p, np.zeros_like(p))
        np.testing.assert_array_equal(p, before)

    def test_first_step_bias_correction(self):
        p = np.array([1.0])
        st_ = AdamState.for_param((1,), lr=0.01)
        adam_step(st_, p, np.array([1.0]))
        assert p[0] == pytest.approx(0.9900000001, abs=1e-12)

    def test_five_steps_constant_gradient_frozen_oracle(self):
        """Value frozen from the independent scalar recursion in oracles.py."""
        p = np.array([0.0])
        st_ = AdamState.for_param((1,), lr=0.01)
        for _ in range(5):
            adam_step(st_, p, np.array([2.0]))
        expected = -0.049999999749999864
        assert scalar_adam(0.0, [2.0] * 5) == pytest.approx(expected, abs=1e-18)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_recursion_random_grads(self):
        rng = Rng(21)
        grads = list(rng.uniform_array(20) * 4 - 2)
        p = np.array([0.5])
        st_ = AdamState.for_param((1,), lr=0.003)
        for g in grads:
            adam_step(st_, p, np.array([g]))
        assert p[0] == pytest.approx(scalar_adam(0.5, grads, lr=0.003), rel=1e-12)

    def test_shape_mismatch(self):
        st_ = AdamState.for_param((2, 2), lr=0.01)
        with pytest.raises(DimensionError):
            adam_step(st_, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_t_increments(self):
        st_ = AdamState.for_param((1,), lr=0.01)
        p = np.zeros(1)
        adam_step(st_, p, np.ones(1))
        adam_step(st_, p, np.ones(1))
        assert st_.t == 2
        assert np.all(st_.v >= 0)


def _textbook_adam(state, params, grads):
    """The out-of-place expression adam_step must match bit for bit."""
    state.t += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grads * grads)
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


class TestAdamInPlace:
    @pytest.mark.parametrize("block", [numerics._ADAM_BLOCK, 40])
    @pytest.mark.parametrize("shape", [(37, 11), (53,)])
    def test_bit_identical_to_textbook_expression(self, monkeypatch, block, shape):
        """Block 40 splits (37, 11) into 3-row blocks with a ragged tail."""
        monkeypatch.setattr(numerics, "_ADAM_BLOCK", block)
        r = np.random.default_rng(5)
        p = r.standard_normal(shape)
        p_ref = p.copy()
        st_ = AdamState.for_param(shape, lr=0.003)
        st_ref = AdamState.for_param(shape, lr=0.003)
        for _ in range(60):
            g = r.standard_normal(shape) * r.choice([1e-6, 1.0, 1e3])
            assert adam_step(st_, p, g) is p
            _textbook_adam(st_ref, p_ref, g)
            assert np.array_equal(p, p_ref)
        assert np.array_equal(st_.m, st_ref.m) and np.array_equal(st_.v, st_ref.v)
        assert st_.t == st_ref.t == 60

    def test_non_contiguous_params_updated_in_place(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ADAM_BLOCK", 16)
        r = np.random.default_rng(6)
        base = r.standard_normal((9, 7))
        p = base.T  # a strided view; the update must land in ``base``
        p_ref = p.copy()
        st_ = AdamState.for_param(p.shape, lr=0.01)
        st_ref = AdamState.for_param(p.shape, lr=0.01)
        for _ in range(5):
            g = r.standard_normal(p.shape)
            adam_step(st_, p, g)
            _textbook_adam(st_ref, p_ref, g)
        assert np.array_equal(base.T, p_ref)

    def test_zero_dim_param(self):
        p, p_ref = np.array(0.5), np.array(0.5)
        st_ = AdamState.for_param((), lr=0.01)
        st_ref = AdamState.for_param((), lr=0.01)
        for g in (1.0, -2.0, 0.25):
            adam_step(st_, p, np.array(g))
            _textbook_adam(st_ref, p_ref, np.array(g))
        assert p == p_ref
