"""The hand-rolled backprop baseline: gradients, training, prediction."""

import tracemalloc

import numpy as np
import pytest

from fflab.bp_baseline import (
    BPNetwork,
    bp_predict_batch,
    bp_train_epoch,
)
from fflab import numerics
from fflab.activations import softmax
from fflab.errors import DimensionError, DivergenceError, UsageError
from fflab.ffnet import FFNetwork
from fflab.rng import Rng
from fflab.synthetic import label_slots

from oracles import (
    bp_loss, central_diff_grad, check_architecture_parity, rel_err, two_blob_toy,
    two_pass_bp_epoch,
)


def small_task(n=24, seed=500):
    rng = Rng(seed)
    X = rng.uniform_array(n * 6).reshape(n, 6) * 2 - 1
    y = np.array([rng.randint(3) for _ in range(n)])
    return X, y


class TestGradients:
    def test_all_gradients_match_finite_differences(self):
        """Full backprop through a 6-4-3 net against central differences."""
        X, y = small_task()
        net = BPNetwork(6, [4], 3, "tanh", 1e-3, Rng(501))

        # capture analytic gradients by replaying one batch by hand
        stages = net.forward_batch(X)
        P = softmax(stages[-1][1])
        m = X.shape[0]
        dlogits = P.copy()
        dlogits[np.arange(m), y] -= 1.0
        dlogits /= m
        analytic = {
            "out_W": dlogits.T @ stages[-2][1],
            "out_b": dlogits.sum(axis=0),
        }
        delta = (dlogits @ net.layers[-1].W) * net.layers[0].act.deriv(stages[0][0])
        analytic["h_W"] = delta.T @ X
        analytic["h_b"] = delta.sum(axis=0)

        params = {
            "out_W": net.layers[-1].W,
            "out_b": net.layers[-1].b,
            "h_W": net.layers[0].W,
            "h_b": net.layers[0].b,
        }
        for name, P0 in params.items():
            saved = P0.copy()

            def loss_at(value, P0=P0):
                P0[...] = value
                out = bp_loss(net, X, y)
                return out

            fd = central_diff_grad(loss_at, saved.copy())
            P0[...] = saved
            assert rel_err(analytic[name], fd) < 1e-4, name

    def test_zero_lr_fixed_point(self):
        X, y = small_task()
        net = BPNetwork(6, [4], 3, "relu", 0.0, Rng(502))
        before = [net.layers[0].W.copy(), net.layers[-1].W.copy()]
        bp_train_epoch(net, X, y, 8, Rng(503))
        np.testing.assert_array_equal(net.layers[0].W, before[0])
        np.testing.assert_array_equal(net.layers[-1].W, before[1])

    def test_divergence_names_the_layer(self):
        """An epoch whose steps overflow the weights ends in a DivergenceError
        naming the first non-finite layer, not in NaN weights."""
        X, y = small_task()
        net = BPNetwork(6, [4, 4], 3, "relu", 1e300, Rng(1))
        with pytest.raises(DivergenceError) as info:
            bp_train_epoch(net, X, y, 8, Rng(2))
        assert info.value.layer == 0
        assert str(info.value) == "layer 0: weights left the finite range after an update"

    @pytest.mark.parametrize("widths, activation", [([5], "tanh"), ([5, 4, 3], "relu")])
    def test_same_bits_as_the_two_pass_step(self, widths, activation):
        """The one-walk backward loop keeps the bits of the two-pass step
        (every delta, then every Adam step) over several epochs, with a
        batch size that does not divide n."""
        X, y = small_task(n=30)
        net = BPNetwork(6, widths, 3, activation, 1e-2, Rng(510))
        ref = BPNetwork(6, widths, 3, activation, 1e-2, Rng(510))
        rng, rng_ref = Rng(511), Rng(511)
        for _ in range(3):
            bp_train_epoch(net, X, y, 8, rng)
            two_pass_bp_epoch(ref, X, y, 8, rng_ref)
        for layer, expected in zip(net.layers, ref.layers, strict=True):
            assert np.array_equal(layer.W, expected.W) and np.array_equal(layer.b, expected.b)

    def test_empty_data_rejected(self):
        net = BPNetwork(6, [4], 3, "relu", 1e-3, Rng(1))
        with pytest.raises(UsageError):
            bp_train_epoch(net, np.empty((0, 6)), np.empty(0, dtype=int), 8, Rng(2))


class TestTraining:
    def test_two_blob_accuracy(self):
        """Five epochs on separable blobs clear 95% train accuracy."""
        X, y, _ = two_blob_toy()
        Xn = label_slots(2).neutral(X)
        net = BPNetwork(Xn.shape[1], [16, 16], 2, "relu", 1e-3, Rng(504))
        rng = Rng(505)
        for _ in range(5):
            bp_train_epoch(net, Xn, y, 16, rng)
        acc = float(np.mean(bp_predict_batch(net, Xn) == y))
        assert acc > 0.95

    def test_loss_strictly_decreases_first_three_epochs(self):
        X, y, _ = two_blob_toy()
        Xn = label_slots(2).neutral(X)
        net = BPNetwork(Xn.shape[1], [16], 2, "relu", 1e-3, Rng(506))
        rng = Rng(507)
        losses = [bp_train_epoch(net, Xn, y, 16, rng).mean_loss for _ in range(3)]
        assert losses[0] > losses[1] > losses[2]


class TestPredict:
    def test_uniform_logits_tie_to_zero(self):
        net = BPNetwork(4, [3], 5, "relu", 1e-3, Rng(508))
        net.layers[-1].W[...] = 0.0
        net.layers[-1].b[...] = 0.0
        assert bp_predict_batch(net, np.ones((1, 4)))[0] == 0

    def test_input_must_be_a_matrix(self):
        net = BPNetwork(4, [3], 5, "relu", 1e-3, Rng(508))
        with pytest.raises(DimensionError):
            bp_predict_batch(net, np.ones(4))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 37])
    def test_chunked_equals_unchunked_argmax(self, monkeypatch, n):
        """Rows forwarded 8 at a time predict what one whole forward does."""
        monkeypatch.setattr(numerics, "CHUNK_ROWS", 8)
        X, _ = small_task(n, seed=510)
        net = BPNetwork(6, [9, 7], 3, "relu", 1e-3, Rng(511))
        logits = net.forward_batch(X)[-1][1]
        np.testing.assert_array_equal(bp_predict_batch(net, X), np.argmax(logits, axis=1))

    def test_finite_weights_whose_logits_overflow_diverge(self):
        """Checked as the head's logits are: no overflow warning and no
        class 0 for every row, but a DivergenceError naming the output layer."""
        net = BPNetwork(6, [9, 7], 3, "relu", 1e-3, Rng(512))
        net.layers[-1].W *= 1e307
        X, _ = small_task(5, seed=513)
        with pytest.raises(DivergenceError, match="logits left the finite range") as info:
            bp_predict_batch(net, X * 1e3)
        assert info.value.layer == 2

    def test_peak_memory_is_three_chunk_matrices(self):
        """One row chunk's input, Z and activation of the widest layer at a
        time, whatever the depth: at most the predictions plus three chunk
        matrices (and 16 KiB of loop objects), not every layer's Z and A."""
        n, width = numerics.CHUNK_ROWS * 2 + 5, 1000
        net = BPNetwork(50, [width] * 3, 10, "relu", 1e-3, Rng(514))
        X = Rng(515).uniform_array(n * 50).reshape(n, 50)
        want = np.argmax(net.forward_batch(X)[-1][1], axis=1)
        tracemalloc.start()
        try:
            got = bp_predict_batch(net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert peak <= got.nbytes + 3 * numerics.CHUNK_ROWS * width * 8 + (1 << 14)

    def test_softmax_shift_invariance(self):
        logits = np.array([[0.3, -0.2, 1.4]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 55.0), atol=1e-12)

    def test_hand_set_two_class_weights(self):
        net = BPNetwork(2, [2], 2, "relu", 1e-3, Rng(509))
        net.layers[0].W[...] = np.eye(2)
        net.layers[0].b[...] = 0.0
        net.layers[-1].W[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
        net.layers[-1].b[...] = 0.0
        assert bp_predict_batch(net, np.array([[3.0, 1.0]]))[0] == 0
        assert bp_predict_batch(net, np.array([[1.0, 3.0]]))[0] == 1


def test_architecture_parity_check():
    ff = FFNetwork(10, [8, 6], "relu", 0.01, Rng(510))
    ok = BPNetwork(10, [8, 6], 2, "relu", 1e-3, Rng(511))
    bad = BPNetwork(10, [8, 5], 2, "relu", 1e-3, Rng(512))
    check_architecture_parity(ok, ff)
    with pytest.raises(UsageError, match="mismatch"):
        check_architecture_parity(bad, ff)
