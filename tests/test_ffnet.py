"""Forward pass, goodness, local losses, closed-form gradients, training."""

import numpy as np
import pytest

from fflab.activations import ACTIVATIONS
from fflab.errors import DimensionError, DivergenceError, UsageError
from fflab.ffnet import (
    FFLayer,
    FFNetwork,
    Polarity,
    Sample,
    ff_loss,
    goodness,
    softplus,
    train_epoch,
)
from fflab.rng import Rng
from fflab.synthetic import build_blob_stream, two_blob_toy
from fflab.thresholds import ConstantK

from oracles import (
    central_diff_grad,
    loop_goodness,
    loop_layer_forward,
    loop_layer_loss,
    loop_epoch,
    rel_err,
)


def make_layer(rng, in_dim, out_dim, act="relu", lr=0.01):
    return FFLayer(in_dim, out_dim, act, lr, rng)


def smooth_case(seed, act_name, in_dim=6, out_dim=4):
    """A (layer, x) pair whose pre-activations sit clear of any kink."""
    for attempt in range(50):
        rng = Rng(seed + attempt * 1000)
        layer = make_layer(rng, in_dim, out_dim, act_name)
        x = rng.uniform_array(in_dim) * 4.0 - 2.0
        z, _ = layer.forward(x)
        if np.min(np.abs(z)) > 2e-3:
            return layer, x
    raise AssertionError("could not find a kink-free configuration")


class TestLayerForward:
    def test_zero_weights_give_f_of_zero(self):
        layer = FFLayer(3, 4, "sigmoid", 0.01, W=np.zeros((4, 3)), b=np.zeros(4))
        _, a = layer.forward(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(a, np.full(4, 0.5))

    def test_scale_invariance(self):
        layer, x = smooth_case(1, "relu")
        z1, a1 = layer.forward(x)
        z2, a2 = layer.forward(7.0 * x)
        np.testing.assert_allclose(z1, z2, atol=1e-12)
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = Rng(14)
        layer = make_layer(rng, 3, 2)
        x = rng.uniform_array(3) * 2 - 1
        z, a = layer.forward(x)
        z_ref, a_ref = loop_layer_forward(layer.W, layer.b, x, ACTIVATIONS["relu"].fn)
        np.testing.assert_allclose(z, z_ref, atol=1e-13)
        np.testing.assert_allclose(a, a_ref, atol=1e-13)

    def test_width_mismatch(self):
        layer = make_layer(Rng(1), 3, 2)
        with pytest.raises(DimensionError):
            layer.forward(np.zeros(4))

    def test_batch_agrees_with_single(self):
        rng = Rng(15)
        layer = make_layer(rng, 5, 3)
        X = rng.uniform_array(20).reshape(4, 5)
        Xhat, Z, A = layer.forward_batch(X)
        for i in range(4):
            z, a = layer.forward(X[i])
            np.testing.assert_allclose(Z[i], z, atol=1e-13)
            np.testing.assert_allclose(A[i], a, atol=1e-13)


class TestGoodness:
    def test_zero(self):
        assert goodness(np.zeros(10)) == 0.0

    def test_direct(self):
        assert goodness(np.array([1.0, 2.0, 2.0])) == 9.0

    def test_wide_vector_matches_loop(self):
        a = Rng(6).uniform_array(2000) * 2 - 1
        assert goodness(a) == pytest.approx(loop_goodness(a), rel=1e-12)

    def test_nonnegative(self):
        assert goodness(Rng(7).uniform_array(64) - 0.5) >= 0.0


class TestFFLoss:
    def test_midpoint_is_log2(self):
        for pol in (Polarity.POSITIVE, Polarity.NEGATIVE):
            assert ff_loss(3.0, 3.0, pol) == pytest.approx(0.6931471805599453)

    def test_asymptotics(self):
        assert ff_loss(1e6, 3.0, Polarity.POSITIVE) == pytest.approx(0.0, abs=1e-12)
        big = ff_loss(1e6, 3.0, Polarity.NEGATIVE)
        assert big == pytest.approx(1e6 - 3.0)  # linear in G far above theta

    def test_direct_value(self):
        assert ff_loss(5.0, 3.0, Polarity.NEGATIVE) == pytest.approx(
            2.1269280110429727
        )

    def test_monotonicity(self):
        gs = np.linspace(0.0, 20.0, 200)
        pos = np.array([ff_loss(g, 10.0, Polarity.POSITIVE) for g in gs])
        neg = np.array([ff_loss(g, 10.0, Polarity.NEGATIVE) for g in gs])
        assert np.all(np.diff(pos) < 0)
        assert np.all(np.diff(neg) > 0)

    def test_softplus_overflow_safe(self):
        assert softplus(1000.0) == 1000.0
        assert softplus(-100.0) == pytest.approx(0.0, abs=1e-40)


class TestLayerGrads:
    def test_dead_relu_fixed_point(self):
        layer = FFLayer(3, 4, "relu", 0.01, W=np.zeros((4, 3)), b=np.zeros(4))
        dW, db, _ = layer.grads(np.array([1.0, 2.0, 3.0]), Polarity.POSITIVE, 5.0)
        np.testing.assert_array_equal(dW, np.zeros((4, 3)))
        np.testing.assert_array_equal(db, np.zeros(4))

    @pytest.mark.parametrize("act_name", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    def test_matches_finite_differences(self, act_name, polarity):
        layer, x = smooth_case(31, act_name)
        theta = 1.7
        sign = float(polarity)
        act_fn = layer.act.fn
        dW, db, _ = layer.grads(x, polarity, theta)

        W0 = layer.W.copy()
        b0 = layer.b.copy()

        def loss_at_W(W):
            return loop_layer_loss(W, b0, x, act_fn, sign, theta)

        def loss_at_b(b):
            return loop_layer_loss(W0, b, x, act_fn, sign, theta)

        fd_W = central_diff_grad(loss_at_W, W0, h=1e-5)
        fd_b = central_diff_grad(loss_at_b, b0, h=1e-5)
        assert rel_err(dW, fd_W) < 1e-4
        assert rel_err(db, fd_b) < 1e-4

    def test_saturated_positive_has_vanishing_grads(self):
        rng = Rng(5)
        layer = make_layer(rng, 4, 3)
        x = rng.uniform_array(4) + 0.5
        dW, _, _ = layer.grads(x, Polarity.POSITIVE, -1e4)  # G >> theta
        assert np.linalg.norm(dW) < 1e-10


class TestNetworkForward:
    def test_single_layer_equals_layer_forward(self):
        rng = Rng(41)
        net = FFNetwork(4, [3], "relu", 0.01, rng)
        x = Rng(42).uniform_array(4)
        z, a = net.layers[0].forward(x)
        out = net.forward(x)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0][0], z)
        np.testing.assert_array_equal(out[0][1], a)

    def test_two_layer_composition(self):
        rng = Rng(43)
        net = FFNetwork(4, [3, 2], "tanh", 0.01, rng)
        x = Rng(44).uniform_array(4)
        out = net.forward(x)
        z0, a0 = net.layers[0].forward(x)
        z1, a1 = net.layers[1].forward(a0)
        np.testing.assert_allclose(out[1][0], z1, atol=1e-15)
        np.testing.assert_allclose(out[1][1], a1, atol=1e-15)

    def test_input_scaling_leaves_activations_unchanged(self):
        rng = Rng(45)
        net = FFNetwork(6, [5, 4], "relu", 0.01, rng)
        x = Rng(46).uniform_array(6) + 0.1
        out1 = net.forward(x)
        out2 = net.forward(10.0 * x)
        np.testing.assert_allclose(out1[0][1], out2[0][1], atol=1e-12)
        np.testing.assert_allclose(out1[1][1], out2[1][1], atol=1e-12)

    def test_wrong_input_width(self):
        net = FFNetwork(6, [5], "relu", 0.01, Rng(1))
        with pytest.raises(DimensionError):
            net.forward(np.zeros(7))


class TestLocality:
    def test_grads_ignore_later_layers(self):
        """Layer-k gradients are identical whether or not deeper layers exist."""
        rng = Rng(51)
        deep = FFNetwork(6, [5, 4, 3], "relu", 0.01, rng)
        shallow = FFNetwork.from_layer_list(6, deep.layers[:1])
        x = Rng(52).uniform_array(6)
        dW_deep, db_deep, _ = deep.layers[0].grads(x, Polarity.POSITIVE, 2.0)
        dW_shallow, db_shallow, _ = shallow.layers[0].grads(x, Polarity.POSITIVE, 2.0)
        np.testing.assert_array_equal(dW_deep, dW_shallow)
        np.testing.assert_array_equal(db_deep, db_shallow)

    def test_perturbing_earlier_layer_never_changes_later_grad_formula(self):
        """A later layer's grads depend on its input values only."""
        rng = Rng(53)
        net = FFNetwork(6, [5, 4], "relu", 0.01, rng)
        x = Rng(54).uniform_array(6)
        a0 = net.forward(x)[0][1]
        dW1, db1, _ = net.layers[1].grads(a0, Polarity.NEGATIVE, 1.0)
        net.layers[0].W += 100.0  # layer 1 must not notice if its input is fixed
        dW1b, db1b, _ = net.layers[1].grads(a0, Polarity.NEGATIVE, 1.0)
        np.testing.assert_array_equal(dW1, dW1b)
        np.testing.assert_array_equal(db1, db1b)


class TestGoodnessBounds:
    @pytest.mark.parametrize("act_name", ["sigmoid", "tanh"])
    def test_bounded_activation_goodness_capped_by_width(self, act_name):
        rng = Rng(61)
        out_dim = 12
        layer = make_layer(rng, 8, out_dim, act_name)
        layer.W *= 50.0  # drive the units to saturation
        for _ in range(20):
            x = rng.uniform_array(8) * 10 - 5
            _, a = layer.forward(x)
            assert goodness(a) <= out_dim + 1e-9


class TestTrainEpoch:
    def _toy_samples(self, n=20, dim=6, seed=70):
        rng = Rng(seed)
        samples = []
        for i in range(n):
            feats = rng.uniform_array(dim) * 2 - 1
            pol = Polarity.POSITIVE if i % 2 == 0 else Polarity.NEGATIVE
            samples.append(Sample(feats, pol, i % 3))
        return samples

    def test_empty_samples_rejected(self):
        net = FFNetwork(4, [3], "relu", 0.01, Rng(1))
        with pytest.raises(UsageError):
            train_epoch(net, [], ConstantK(1.0), 0, 8, Rng(2))

    def test_zero_lr_is_bitwise_fixed_point(self):
        net = FFNetwork(6, [5, 4], "relu", 0.0, Rng(80))
        before = [(l.W.copy(), l.b.copy()) for l in net.layers]
        train_epoch(net, self._toy_samples(), ConstantK(0.5), 0, 8, Rng(81))
        for (W0, b0), layer in zip(before, net.layers):
            np.testing.assert_array_equal(W0, layer.W)
            np.testing.assert_array_equal(b0, layer.b)

    def _check_against_loop_oracle(self, samples, widths, k, net_seed, seed):
        net = FFNetwork(6, widths, "relu", 0.01, Rng(net_seed))
        layer_params = [(l.W.copy(), l.b.copy()) for l in net.layers]
        acts = [(l.act.fn, l.act.deriv) for l in net.layers]
        thetas = [k * w for w in widths]

        metrics = train_epoch(net, samples, ConstantK(k), 0, 8, Rng(seed))

        order = Rng(seed).shuffle(list(range(len(samples))))
        ref_losses, ref_params = loop_epoch(
            layer_params,
            acts,
            order,
            [s.features for s in samples],
            [float(s.polarity) for s in samples],
            thetas,
            batch_size=8,
            lr=0.01,
        )
        np.testing.assert_allclose(metrics.mean_loss, ref_losses, rtol=1e-10, atol=1e-12)
        for (W_ref, b_ref), layer in zip(ref_params, net.layers):
            np.testing.assert_allclose(layer.W, W_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(layer.b, b_ref, rtol=1e-10, atol=1e-12)

    def test_matches_plain_loop_reference(self):
        """One epoch on 20 samples equals the straight-line loop oracle."""
        self._check_against_loop_oracle(self._toy_samples(), [5, 4], 0.5, 91, 90)

    def test_goodness_separates_on_two_blobs(self):
        """Positive goodness rises and negative falls between epochs 1 and 5.

        Configuration pinned by an oracle run: theta (k=0.1 at width 32)
        sits near the initial goodness level, so negatives feel real
        down-pressure from the start instead of riding the early joint
        growth of both populations.
        """
        X, y, _ = two_blob_toy(separation=6.0)
        net = FFNetwork(2 + X.shape[1], [32, 32], "relu", 0.05, Rng(100))
        rng = Rng(101)
        history = []
        for epoch in range(5):
            stream = build_blob_stream(X, y, 2, rng)
            history.append(train_epoch(net, stream, ConstantK(0.1), epoch, 16, rng))
        assert np.all(history[4].mean_g_pos > history[0].mean_g_pos)
        assert np.all(history[4].mean_g_neg < history[0].mean_g_neg)

    def test_uneven_four_layer_net_matches_loop_oracle(self):
        """Four layers of uneven widths equal the loop oracle."""
        self._check_against_loop_oracle(self._toy_samples(n=30), [7, 5, 9, 3], 0.4, 92, 93)

    def test_bit_identical_to_layer_by_layer_loop(self):
        """train_epoch equals, bit for bit, grads_batch then apply_grads per layer."""
        widths = [7, 5, 9, 3]
        samples = self._toy_samples(n=45)
        net = FFNetwork(6, widths, "tanh", 0.02, Rng(94))
        serial = FFNetwork(6, widths, "tanh", 0.02, Rng(94))
        strategy = ConstantK(0.3)
        depth = len(widths)
        for epoch in range(3):
            metrics = train_epoch(net, samples, strategy, epoch, 8, Rng(95 + epoch))

            order = Rng(95 + epoch).shuffle(list(range(len(samples))))
            thetas = [0.3 * w for w in serial.widths]
            loss_sum = np.zeros(depth)
            for start in range(0, len(order), 8):
                idx = order[start : start + 8]
                X = np.stack([samples[i].features for i in idx])
                signs = np.array([float(samples[i].polarity) for i in idx])
                stages = serial.forward_batch(X)
                for li, layer in enumerate(serial.layers):
                    dW, db, losses, _ = layer.grads_batch(*stages[li], signs, thetas[li])
                    layer.apply_grads(dW, db)
                    loss_sum[li] += losses.sum()

            assert np.array_equal(metrics.mean_loss, loss_sum / len(samples))
            for layer, ref in zip(net.layers, serial.layers):
                assert np.array_equal(layer.W, ref.W)
                assert np.array_equal(layer.b, ref.b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_layer_and_epoch(self):
        net = FFNetwork(6, [7, 5, 9, 3], "relu", 0.01, Rng(96))
        net.layers[2].W[0, 0] = np.inf
        with pytest.raises(DivergenceError) as info:
            train_epoch(net, self._toy_samples(), ConstantK(0.5), 7, 8, Rng(97))
        assert (info.value.layer, info.value.epoch) == (2, 7)
        assert str(info.value).startswith("epoch 7, layer 2: ")

    def test_polarity_counts(self):
        samples = self._toy_samples(n=20)
        net = FFNetwork(6, [4], "relu", 0.01, Rng(1))
        m = train_epoch(net, samples, ConstantK(1.0), 0, 7, Rng(2))
        assert m.n_pos == 10 and m.n_neg == 10


class TestFiniteCheck:
    @pytest.mark.parametrize("param", ["W", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_divergence(self, param, bad):
        layer = make_layer(Rng(110), 4, 3)
        getattr(layer, param)[-1] = bad
        with pytest.raises(DivergenceError) as info:
            layer.apply_grads(np.zeros((3, 4)), np.zeros(3), index=5)
        assert info.value.layer == 5
        assert "layer 5" in str(info.value)

    def test_nan_gradient_raises_divergence(self):
        layer = make_layer(Rng(111), 4, 3)
        dW = np.zeros((3, 4))
        dW[1, 2] = np.nan
        with pytest.raises(DivergenceError):
            layer.apply_grads(dW, np.zeros(3))

    def test_finite_update_passes(self):
        layer = make_layer(Rng(112), 4, 3)
        layer.apply_grads(np.ones((3, 4)), np.ones(3))
        assert np.all(np.isfinite(layer.W)) and np.all(np.isfinite(layer.b))
