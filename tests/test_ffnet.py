"""Forward pass, goodness, local losses, closed-form gradients, training."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from fflab import ffnet, numerics
from fflab.activations import ACTIVATIONS
from fflab.errors import DimensionError, DivergenceError, UsageError
from fflab.ffnet import (
    FFLayer,
    FFNetwork,
    LabelSlots,
    ff_loss,
    goodness,
    softplus,
    train_epoch,
)
from fflab.numerics import require_finite
from fflab.rng import Rng
from fflab.synthetic import label_slots

from oracles import (
    central_diff_grad,
    epoch_batches,
    forward_stages,
    loop_goodness,
    loop_layer_forward,
    loop_layer_loss,
    loop_epoch,
    loop_paired_batches,
    rel_err,
    two_blob_toy,
)


def make_layer(rng, in_dim, out_dim, act="relu", lr=0.01):
    return FFLayer(in_dim, out_dim, act, lr, rng)


def forward_one(layer, x):
    """(z, a) of one sample: the batch forward with n=1."""
    _, Z, A = layer.forward_batch(x[None, :])
    return Z[0], A[0]


def grads_one(layer, x, polarity, theta):
    """(dW, db, loss) of one sample: the batch gradients with n=1."""
    Xhat, Z, A = layer.forward_batch(x[None, :])
    dW, db, losses, _ = layer.grads_batch(Xhat, Z, A, np.array([float(polarity)]), theta)
    return dW, db, losses[0]


def smooth_case(seed, act_name, in_dim=6, out_dim=4):
    """A (layer, x) pair whose pre-activations sit clear of any kink."""
    for attempt in range(50):
        rng = Rng(seed + attempt * 1000)
        layer = make_layer(rng, in_dim, out_dim, act_name)
        x = rng.uniform_array(in_dim) * 4.0 - 2.0
        z, _ = forward_one(layer, x)
        if np.min(np.abs(z)) > 2e-3:
            return layer, x
    raise AssertionError("could not find a kink-free configuration")


class TestLayerForward:
    def test_zero_weights_give_f_of_zero(self):
        layer = FFLayer(3, 4, "sigmoid", 0.01, W=np.zeros((4, 3)), b=np.zeros(4))
        _, a = forward_one(layer, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(a, np.full(4, 0.5))

    def test_scale_invariance(self):
        layer, x = smooth_case(1, "relu")
        z1, a1 = forward_one(layer, x)
        z2, a2 = forward_one(layer, 7.0 * x)
        np.testing.assert_allclose(z1, z2, atol=1e-12)
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = Rng(14)
        layer = make_layer(rng, 3, 2)
        x = rng.uniform_array(3) * 2 - 1
        z, a = forward_one(layer, x)
        z_ref, a_ref = loop_layer_forward(layer.W, layer.b, x, ACTIVATIONS["relu"].fn)
        np.testing.assert_allclose(z, z_ref, atol=1e-13)
        np.testing.assert_allclose(a, a_ref, atol=1e-13)

    def test_width_mismatch(self):
        layer = make_layer(Rng(1), 3, 2)
        with pytest.raises(DimensionError):
            layer.forward_batch(np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_input_must_be_a_matrix(self, shape):
        layer = make_layer(Rng(1), 3, 2)
        with pytest.raises(DimensionError):
            layer.forward_batch(np.zeros(shape))

    def test_batch_agrees_with_single(self):
        rng = Rng(15)
        layer = make_layer(rng, 5, 3)
        X = rng.uniform_array(20).reshape(4, 5)
        Xhat, Z, A = layer.forward_batch(X)
        for i in range(4):
            z, a = loop_layer_forward(layer.W, layer.b, X[i], layer.act.fn)
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

    def test_batch_is_one_value_per_row(self):
        A = Rng(8).uniform_array(15).reshape(5, 3) - 0.5
        np.testing.assert_array_equal(goodness(A), [goodness(a) for a in A])


class TestFFLoss:
    def test_midpoint_is_log2(self):
        for pol in (1.0, -1.0):
            assert ff_loss(3.0, 3.0, pol) == pytest.approx(0.6931471805599453)

    def test_asymptotics(self):
        assert ff_loss(1e6, 3.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        big = ff_loss(1e6, 3.0, -1.0)
        assert big == pytest.approx(1e6 - 3.0)  # linear in G far above theta

    def test_direct_value(self):
        assert ff_loss(5.0, 3.0, -1.0) == pytest.approx(
            2.1269280110429727
        )

    def test_monotonicity(self):
        gs = np.linspace(0.0, 20.0, 200)
        pos = np.array([ff_loss(g, 10.0, 1.0) for g in gs])
        neg = np.array([ff_loss(g, 10.0, -1.0) for g in gs])
        assert np.all(np.diff(pos) < 0)
        assert np.all(np.diff(neg) > 0)

    def test_elementwise_over_a_batch(self):
        G = np.array([0.5, 3.0, 9.0, 3.0])
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        expected = [ff_loss(g, 3.0, s) for g, s in zip(G, signs)]
        np.testing.assert_array_equal(ff_loss(G, 3.0, signs), expected)

    def test_softplus_overflow_safe(self):
        assert softplus(1000.0) == 1000.0
        assert softplus(-100.0) == pytest.approx(0.0, abs=1e-40)


class TestLayerGrads:
    def test_dead_relu_fixed_point(self):
        layer = FFLayer(3, 4, "relu", 0.01, W=np.zeros((4, 3)), b=np.zeros(4))
        dW, db, _ = grads_one(layer, np.array([1.0, 2.0, 3.0]), 1.0, 5.0)
        np.testing.assert_array_equal(dW, np.zeros((4, 3)))
        np.testing.assert_array_equal(db, np.zeros(4))

    @pytest.mark.parametrize("act_name", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("polarity", [1.0, -1.0], ids="{:g}".format)
    def test_matches_finite_differences(self, act_name, polarity):
        layer, x = smooth_case(31, act_name)
        theta = 1.7
        sign = float(polarity)
        act_fn = layer.act.fn
        dW, db, _ = grads_one(layer, x, polarity, theta)

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
        dW, _, _ = grads_one(layer, x, 1.0, -1e4)  # G >> theta
        assert np.linalg.norm(dW) < 1e-10


class TestNetworkForward:
    def test_single_layer_equals_layer_forward(self):
        rng = Rng(41)
        net = FFNetwork(4, [3], "relu", 0.01, rng)
        x = Rng(42).uniform_array(4)
        z, a = forward_one(net.layers[0], x)
        out = list(net.forward_batch(x[None, :]))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0][1][0], z)
        np.testing.assert_array_equal(out[0][2][0], a)

    def test_two_layer_composition(self):
        rng = Rng(43)
        net = FFNetwork(4, [3, 2], "tanh", 0.01, rng)
        x = Rng(44).uniform_array(4)
        out = list(net.forward_batch(x[None, :]))
        z0, a0 = forward_one(net.layers[0], x)
        z1, a1 = forward_one(net.layers[1], a0)
        np.testing.assert_allclose(out[1][1][0], z1, atol=1e-15)
        np.testing.assert_allclose(out[1][2][0], a1, atol=1e-15)

    def test_input_scaling_leaves_activations_unchanged(self):
        rng = Rng(45)
        net = FFNetwork(6, [5, 4], "relu", 0.01, rng)
        x = Rng(46).uniform_array(6) + 0.1
        out1 = list(net.forward_batch(x[None, :]))
        out2 = list(net.forward_batch(10.0 * x[None, :]))
        np.testing.assert_allclose(out1[0][2], out2[0][2], atol=1e-12)
        np.testing.assert_allclose(out1[1][2], out2[1][2], atol=1e-12)

    def test_wrong_input_width(self):
        net = FFNetwork(6, [5], "relu", 0.01, Rng(1))
        with pytest.raises(DimensionError):
            list(net.forward_batch(np.zeros((1, 7))))

    def test_input_must_be_a_matrix(self):
        net = FFNetwork(6, [5], "relu", 0.01, Rng(1))
        with pytest.raises(DimensionError):
            list(net.forward_batch(np.zeros(6)))


class TestLocality:
    def test_grads_ignore_later_layers(self):
        """Layer-k gradients are identical whether or not deeper layers exist."""
        rng = Rng(51)
        deep = FFNetwork(6, [5, 4, 3], "relu", 0.01, rng)
        shallow = FFNetwork.from_layer_list(deep.layers[:1])
        x = Rng(52).uniform_array(6)
        dW_deep, db_deep, _ = grads_one(deep.layers[0], x, 1.0, 2.0)
        dW_shallow, db_shallow, _ = grads_one(shallow.layers[0], x, 1.0, 2.0)
        np.testing.assert_array_equal(dW_deep, dW_shallow)
        np.testing.assert_array_equal(db_deep, db_shallow)

    def test_perturbing_earlier_layer_never_changes_later_grad_formula(self):
        """A later layer's grads depend on its input values only."""
        rng = Rng(53)
        net = FFNetwork(6, [5, 4], "relu", 0.01, rng)
        x = Rng(54).uniform_array(6)
        a0 = forward_stages(net, x[None, :])[0][2][0]
        dW1, db1, _ = grads_one(net.layers[1], a0, -1.0, 1.0)
        net.layers[0].W += 100.0  # layer 1 must not notice if its input is fixed
        dW1b, db1b, _ = grads_one(net.layers[1], a0, -1.0, 1.0)
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
            _, a = forward_one(layer, x)
            assert goodness(a) <= out_dim + 1e-9


TOY_SLOTS = LabelSlots(3, start=0, overwrite=True)


def toy_rows(n=10, dim=6, seed=70):
    """n raw rows over 3 classes: an epoch of n positives and n negatives."""
    rng = Rng(seed)
    X = rng.uniform_array(n * dim).reshape(n, dim) * 2 - 1
    return X, np.arange(n) % 3


def train_toy(net, k, batch_size, rng, n=10):
    """One epoch on toy rows at theta = k * width on every layer."""
    X, y = toy_rows(n)
    thetas = [k * w for w in net.widths]
    return train_epoch(net, X, y, TOY_SLOTS, thetas, batch_size, rng)


class TestTrainEpoch:
    def test_empty_samples_rejected(self):
        net = FFNetwork(6, [4], "relu", 0.01, Rng(1))
        with pytest.raises(UsageError, match="zero rows"):
            train_epoch(
                net, np.empty((0, 6)), np.empty(0, dtype=np.int64), TOY_SLOTS,
                [2.0], 8, Rng(2),
            )

    @pytest.mark.parametrize("thetas", [[2.0], [2.0, 2.0, 2.0]])
    def test_one_theta_per_layer_required(self, thetas):
        net = FFNetwork(6, [4, 4], "relu", 0.01, Rng(1))
        X, y = toy_rows()
        with pytest.raises(UsageError, match=f"{len(thetas)} thresholds for a depth-2 network"):
            train_epoch(net, X, y, TOY_SLOTS, thetas, 8, Rng(2))

    @pytest.mark.parametrize("batch_size", [0, 1, 7])
    def test_odd_or_tiny_batch_size_rejected(self, batch_size):
        """A row's positive and negative never split across batches."""
        net = FFNetwork(6, [4], "relu", 0.01, Rng(1))
        with pytest.raises(UsageError, match="batch_size must be even and >= 2"):
            train_toy(net, 0.5, batch_size, Rng(2))

    def test_zero_lr_is_bitwise_fixed_point(self):
        net = FFNetwork(6, [5, 4], "relu", 0.0, Rng(80))
        before = [(l.W.copy(), l.b.copy()) for l in net.layers]
        train_toy(net, 0.5, 8, Rng(81))
        for (W0, b0), layer in zip(before, net.layers):
            np.testing.assert_array_equal(W0, layer.W)
            np.testing.assert_array_equal(b0, layer.b)

    def _check_against_loop_oracle(self, n, widths, k, net_seed, seed):
        net = FFNetwork(6, widths, "relu", 0.01, Rng(net_seed))
        layer_params = [(l.W.copy(), l.b.copy()) for l in net.layers]
        acts = [(l.act.fn, l.act.deriv) for l in net.layers]
        thetas = [k * w for w in widths]

        metrics = train_toy(net, k, 8, Rng(seed), n=n)

        X, y = toy_rows(n)
        batches = loop_paired_batches(X, y, 3, 0, True, 8, Rng(seed))
        ref_losses, ref_params = loop_epoch(layer_params, acts, batches, thetas, lr=0.01)
        np.testing.assert_allclose(metrics.mean_loss, ref_losses, rtol=1e-10, atol=1e-12)
        for (W_ref, b_ref), layer in zip(ref_params, net.layers):
            np.testing.assert_allclose(layer.W, W_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(layer.b, b_ref, rtol=1e-10, atol=1e-12)

    def test_matches_plain_loop_reference(self):
        """One epoch on 10 rows (20 samples) equals the straight-line loop oracle."""
        self._check_against_loop_oracle(10, [5, 4], 0.5, 91, 90)

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
        for _ in range(5):
            history.append(
                train_epoch(net, X, y, label_slots(2), [0.1 * 32] * 2, 16, rng)
            )
        assert np.all(history[4].mean_g_pos > history[0].mean_g_pos)
        assert np.all(history[4].mean_g_neg < history[0].mean_g_neg)

    def test_uneven_four_layer_net_matches_loop_oracle(self):
        """Four layers of uneven widths equal the loop oracle."""
        self._check_against_loop_oracle(15, [7, 5, 9, 3], 0.4, 92, 93)

    def test_bit_identical_to_layer_by_layer_loop(self):
        """train_epoch equals, bit for bit, grads_batch then apply_grads per
        layer over the reference batches; the goodness means read the
        positive and the negative halves of each batch."""
        widths = [7, 5, 9, 3]
        X, y = toy_rows(n=23)
        net = FFNetwork(6, widths, "tanh", 0.02, Rng(94))
        serial = FFNetwork(6, widths, "tanh", 0.02, Rng(94))
        depth = len(widths)
        thetas = [0.3 * w for w in widths]
        for epoch in range(3):
            metrics = train_epoch(net, X, y, TOY_SLOTS, thetas, 8, Rng(95 + epoch))

            batches = loop_paired_batches(X, y, 3, 0, True, 8, Rng(95 + epoch))
            loss_sum, g_pos, g_neg = np.zeros(depth), np.zeros(depth), np.zeros(depth)
            for features, signs in batches:
                signs = np.array(signs)
                stages = forward_stages(serial, np.stack(features))
                for li, layer in enumerate(serial.layers):
                    dW, db, losses, G = layer.grads_batch(*stages[li], signs, thetas[li])
                    layer.apply_grads(dW, db)
                    loss_sum[li] += losses.sum()
                    g_pos[li] += G[signs > 0].sum()
                    g_neg[li] += G[signs < 0].sum()

            assert np.array_equal(metrics.mean_loss, loss_sum / (2 * len(y)))
            assert np.array_equal(metrics.mean_g_pos, g_pos / len(y))
            assert np.array_equal(metrics.mean_g_neg, g_neg / len(y))
            for layer, ref in zip(net.layers, serial.layers):
                assert np.array_equal(layer.W, ref.W)
                assert np.array_equal(layer.b, ref.b)

    def test_divergence_names_layer_and_epoch(self):
        """train_epoch names the layer; the epoch is left to the loop that
        owns it (see test_experiment_cli's divergence after epoch 0)."""
        net = FFNetwork(6, [7, 5, 9, 3], "relu", 0.01, Rng(96))
        net.layers[2].W[0, 0] = np.inf
        with pytest.raises(DivergenceError) as info:
            train_toy(net, 0.5, 8, Rng(97))
        assert (info.value.layer, info.value.epoch) == (2, None)
        assert str(info.value).startswith("layer 2: ")

    def test_each_gradient_is_freed_before_the_next_is_computed(self, monkeypatch):
        """Only one layer's dW is alive at a time: the 3-layer 784->2000 net
        would otherwise hold a second 32 MB gradient."""
        grads_batch = FFLayer.grads_batch
        refs, live_at_call = [], []

        def tracked(layer, *args):
            live_at_call.append(sum(r() is not None for r in refs))
            out = grads_batch(layer, *args)
            refs.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(FFLayer, "grads_batch", tracked)
        net = FFNetwork(6, [5, 4, 3], "relu", 0.01, Rng(3))
        train_toy(net, 0.5, 8, Rng(4))
        assert live_at_call == [0] * 9  # 10 rows, 4 per batch: 3 x 3 layers

    def test_polarity_counts(self):
        """Each batch holds its m rows as m positives, then as m negatives:
        n of each over the epoch, the last batch short."""
        X, y = toy_rows(n=10)
        batches = epoch_batches(X, y, TOY_SLOTS, 8, Rng(2))
        assert [list(signs) for _, signs in batches] == [
            [1.0] * 4 + [-1.0] * 4, [1.0] * 4 + [-1.0] * 4, [1.0, 1.0, -1.0, -1.0]
        ]

    def test_one_shuffle_of_n_rows(self, monkeypatch):
        """An epoch shuffles once, the n row indices; the rng advances by n
        wrong-label draws plus n - 1 shuffle draws."""
        shuffle = Rng.shuffle
        lengths = []

        def recorded(rng, seq):
            lengths.append(len(seq))
            return shuffle(rng, seq)

        monkeypatch.setattr(Rng, "shuffle", recorded)
        net = FFNetwork(6, [5, 4], "relu", 0.01, Rng(3))
        rng, ref = Rng(4), Rng(4)
        train_toy(net, 0.5, 8, rng, n=10)
        assert lengths == [10]
        for _ in range(10 + 9):
            ref.next_u64()
        assert rng.state == ref.state


# Batch matrices of the widest layer that one training step may hold
# beside its one gradient: a layer's (Xhat, Z, A), the temporaries of
# its gradient and Adam's scratch. Forwarding every layer first holds
# 3 x depth of them.
STEP_BATCH_MATRICES = 8


@pytest.mark.parametrize("widths", [[512] * 4, [256] * 3])
def test_step_holds_one_layer(widths):
    """The tracemalloc peak of one train_epoch (numpy reports its buffers
    to tracemalloc) is at most the largest gradient plus
    STEP_BATCH_MATRICES batch matrices of the widest layer."""
    slots, raw_dim, batch = LabelSlots(10, 0, False), 20, 128
    X = Rng(160).uniform_array(2 * batch * raw_dim).reshape(2 * batch, raw_dim)
    y = np.arange(2 * batch) % 10
    net = FFNetwork(slots.width(raw_dim), widths, "relu", 0.01, Rng(161))
    tracemalloc.start()
    try:
        train_epoch(net, X, y, slots, [2.0] * len(widths), batch, Rng(162))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gradient = max(layer.W.nbytes for layer in net.layers)
    matrix = batch * max(widths) * 8
    assert peak <= gradient + STEP_BATCH_MATRICES * matrix


class TestLabelSlots:
    # (num_classes, start, overwrite, raw_dim): the MNIST, synthetic and
    # IMDb layouts
    LAYOUTS = [(10, 0, True, 30), (4, 0, False, 6), (2, 5, False, 5)]

    @pytest.mark.parametrize("C, start, overwrite, raw_dim", LAYOUTS)
    def test_stream_matches_per_row_oracle(self, C, start, overwrite, raw_dim):
        """Every batch train_epoch trains on equals the per-row reference,
        embedded rows and signs, and both leave the rng in the same state."""
        data = Rng(120 + C)
        n = 23
        X = data.uniform_array(n * raw_dim).reshape(n, raw_dim)
        y = np.array([data.randint(C) for _ in range(n)])
        rng, ref_rng = Rng(130), Rng(130)
        got = epoch_batches(X, y, LabelSlots(C, start, overwrite), 8, rng)
        want = loop_paired_batches(X, y, C, start, overwrite, 8, ref_rng)
        assert len(got) == len(want) == 6
        for (Xb, sb), (features, signs) in zip(got, want):
            np.testing.assert_array_equal(Xb, np.stack(features))
            np.testing.assert_array_equal(sb, signs)
        assert rng.state == ref_rng.state

    @pytest.mark.parametrize("C", [2, 10])
    @pytest.mark.parametrize("n", [1, 10000])
    def test_wrong_labels_match_per_row_draws(self, C, n):
        """One randint(C-1) per row, skipping the true label, as the
        per-row loop draws them; the rng ends in the same state."""
        y = Rng(150).randint_array(n, C)
        rng, ref = Rng(151), Rng(151)
        got = LabelSlots(C, 0, True).wrong_labels(y, rng)
        want = []
        for label in y:
            draw = int(ref.randint(C - 1))
            want.append(draw if draw < label else draw + 1)
        np.testing.assert_array_equal(got, want)
        assert np.all(got != y) and got.min() >= 0 and got.max() < C
        assert rng.state == ref.state

    def test_wrong_labels_of_a_single_class_raise(self):
        with pytest.raises(ValueError, match="k >= 1"):
            LabelSlots(1, 0, True).wrong_labels(np.zeros(3, dtype=np.int64), Rng(152))

    @pytest.mark.parametrize("C, start, overwrite, raw_dim", LAYOUTS)
    def test_width_and_neutral(self, C, start, overwrite, raw_dim):
        slots = LabelSlots(C, start, overwrite)
        X = Rng(140).uniform_array(3 * raw_dim).reshape(3, raw_dim) + 0.5
        N = slots.neutral(X)
        assert N.shape == (3, slots.width(raw_dim))
        assert np.all(N[:, start : start + C] == 0.0)
        E = slots.embed(X, [0, C - 1, 1])
        np.testing.assert_array_equal(E[:, start : start + C].argmax(axis=1), [0, C - 1, 1])
        outside = np.ones(N.shape[1], dtype=bool)
        outside[start : start + C] = False
        raw_kept = np.delete(X, np.s_[start : start + C], axis=1) if overwrite else X
        np.testing.assert_array_equal(N[:, outside], raw_kept)
        np.testing.assert_array_equal(E[:, outside], raw_kept)

    @pytest.mark.parametrize("labels", [[0, 2, 4], [-1, 0, 1], [4, 0, 9]])
    def test_embed_rejects_out_of_range_label_array(self, labels):
        slots = LabelSlots(4, start=0, overwrite=False)
        with pytest.raises(UsageError):
            slots.embed(np.zeros((3, 5)), np.array(labels))


class TestFiniteCheck:
    """train_epoch checks every layer once, after its last batch, and names
    the lowest-index non-finite layer: the one that diverged by itself."""

    WIDTHS = [7, 5, 9, 3]

    def _diverges_at_layer_two(self, net):
        with pytest.raises(DivergenceError) as info:
            train_toy(net, 0.5, 8, Rng(113))
        assert info.value.layer == 2
        assert str(info.value) == "layer 2: weights left the finite range after an update"
        for layer in net.layers[:2]:
            assert np.all(np.isfinite(layer.W)) and np.all(np.isfinite(layer.b))

    @pytest.mark.parametrize("param", ["W", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_divergence(self, param, bad):
        net = FFNetwork(6, self.WIDTHS, "relu", 0.01, Rng(110))
        getattr(net.layers[2], param)[-1] = bad
        self._diverges_at_layer_two(net)

    def test_nan_gradient_raises_divergence(self):
        """A NaN in one step's gradient of layer 2 is found at the epoch's end."""
        net = FFNetwork(6, self.WIDTHS, "relu", 0.01, Rng(111))
        layer = net.layers[2]

        def poisoned(*args):
            dW, db, losses, G = FFLayer.grads_batch(layer, *args)
            dW[1, 2] = np.nan
            return dW, db, losses, G

        layer.grads_batch = poisoned
        self._diverges_at_layer_two(net)

    def test_one_check_per_layer_per_epoch(self, monkeypatch):
        """Three batches, four layers: four checks, not twelve."""
        checked = []

        def counting(message, *arrays, **where):
            checked.append(where["layer"])
            return require_finite(message, *arrays, **where)

        monkeypatch.setattr(ffnet, "require_finite", counting)
        net = FFNetwork(6, self.WIDTHS, "relu", 0.01, Rng(114))
        train_toy(net, 0.5, 8, Rng(115))
        assert checked == [0, 1, 2, 3]

    def test_split_adam_steps_diverge_without_a_warning(self, monkeypatch, adam_workers):
        """At 16 elements a block, both layers of a 16,16 net split their W
        over two threads. At lr 1e300 they overflow on both, and the pool's
        share runs under train_epoch's silenced error state: the
        DivergenceError names layer 0 and no RuntimeWarning escapes."""
        monkeypatch.setattr(numerics, "_ADAM_BLOCK", 16)
        adam_workers(2)
        net = FFNetwork(6, [16, 16], "relu", 1e300, Rng(116))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                train_toy(net, 0.5, 8, Rng(117))
        assert str(info.value) == "layer 0: weights left the finite range after an update"

    def test_finite_update_passes(self):
        layer = make_layer(Rng(112), 4, 3)
        layer.apply_grads(np.ones((3, 4)), np.ones(3))
        assert np.all(np.isfinite(layer.W)) and np.all(np.isfinite(layer.b))
