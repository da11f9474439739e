"""Head training on a frozen net, and both prediction routes."""

import numpy as np
import pytest

from fflab.activations import softmax
from fflab.checkpoint import network_bytes
from fflab.errors import UsageError
from fflab.ffnet import FFNetwork, train_epoch
from fflab import inference
from fflab.inference import (
    ClassifierHead,
    default_included_layers,
    features_batch,
    head_loss,
    predict_head_batch,
    predict_sweep_batch,
    sweep_scores_batch,
    train_head,
)
from fflab.numerics import AdamState
from fflab.rng import Rng
from fflab.synthetic import label_slots, two_blob_toy
from fflab.thresholds import ConstantK

from oracles import central_diff_grad, rel_err

BLOB = label_slots(2)


@pytest.fixture(scope="module")
def toy_task():
    X, y, _ = two_blob_toy(separation=4.0)
    net = FFNetwork(2 + X.shape[1], [16, 16], "relu", 0.03, Rng(300))
    rng = Rng(301)
    for epoch in range(12):
        stream = BLOB.stream(X, y, rng)
        train_epoch(net, stream, ConstantK(0.3), epoch, 16, rng)
    return X, y, net


class TestTrainHead:
    def test_ff_weights_frozen(self, toy_task):
        """The detachment contract: head training leaves the net bit-identical."""
        X, y, net = toy_task
        before = network_bytes(net)
        train_head(net, BLOB.neutral(X), y, 2, epochs=3, rng=Rng(5))
        assert network_bytes(net) == before

    @pytest.mark.parametrize("layer, param", [(0, "W"), (1, "W"), (1, "b")])
    def test_write_into_frozen_net_during_fit_detected(self, toy_task, monkeypatch,
                                                        layer, param):
        """A one-ulp write into the net mid-fit breaks the detachment check."""
        X, y, _ = toy_task
        net = FFNetwork(2 + X.shape[1], [16, 16], "relu", 0.03, Rng(302))
        real_step = inference.adam_step

        def step_and_write(state, params, grads):
            arr = getattr(net.layers[layer], param).reshape(-1)
            arr[-1] = np.nextafter(arr[-1], np.inf)
            return real_step(state, params, grads)

        monkeypatch.setattr(inference, "adam_step", step_and_write)
        with pytest.raises(UsageError, match="mutated the frozen network"):
            train_head(net, BLOB.neutral(X), y, 2, epochs=1, rng=Rng(6))

    def test_empty_data_rejected(self, toy_task):
        _, _, net = toy_task
        with pytest.raises(UsageError):
            train_head(net, np.empty((0, 18)), np.empty(0, dtype=int), 2, rng=Rng(1))

    def test_gradient_matches_finite_differences(self, toy_task):
        """Cross-entropy gradient of the head weights vs central differences."""
        X, y, net = toy_task
        Xn = BLOB.neutral(X)[:16]
        yb = y[:16]
        rng = Rng(40)
        W0 = (rng.uniform_array(2 * 32).reshape(2, 32) - 0.5) * 0.4
        b0 = rng.uniform_array(2) - 0.5
        head = ClassifierHead(
            W=W0.copy(),
            b=b0.copy(),
            adam_W=AdamState.for_param((2, 32), 1e-3),
            adam_b=AdamState.for_param((2,), 1e-3),
            included_layers=(0, 1),
        )
        F = features_batch(net, Xn, head.included_layers)
        P = softmax(F @ head.W.T + head.b)
        dlogits = P.copy()
        dlogits[np.arange(len(yb)), yb] -= 1.0
        dlogits /= len(yb)
        analytic_W = dlogits.T @ F
        analytic_b = dlogits.sum(axis=0)

        def loss_at_W(W):
            h = ClassifierHead(W, b0, head.adam_W, head.adam_b, (0, 1))
            return head_loss(net, h, Xn, yb)

        def loss_at_b(b):
            h = ClassifierHead(W0, b, head.adam_W, head.adam_b, (0, 1))
            return head_loss(net, h, Xn, yb)

        assert rel_err(analytic_W, central_diff_grad(loss_at_W, W0.copy())) < 1e-4
        assert rel_err(analytic_b, central_diff_grad(loss_at_b, b0.copy())) < 1e-4

    def test_learns_the_toy_task(self, toy_task):
        X, y, net = toy_task
        Xn = BLOB.neutral(X)
        head = train_head(net, Xn, y, 2, epochs=8, rng=Rng(41))
        acc = float(np.mean(predict_head_batch(net, head, Xn) == y))
        assert acc > 0.9


class TestPredictHead:
    def _constant_head(self, net, width, num_classes=3):
        return ClassifierHead(
            W=np.zeros((num_classes, width)),
            b=np.zeros(num_classes),
            adam_W=AdamState.for_param((num_classes, width), 1e-3),
            adam_b=AdamState.for_param((num_classes,), 1e-3),
            included_layers=default_included_layers(len(net.layers)),
        )

    def test_equal_logits_tie_to_class_zero(self, toy_task):
        X, _, net = toy_task
        head = self._constant_head(net, 16)
        assert predict_head_batch(net, head, BLOB.neutral(X[:1]))[0] == 0

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))
        assert np.argmax(softmax(logits)) == np.argmax(softmax(logits - 7.0))

    def test_hand_set_two_class_head(self, toy_task):
        X, _, net = toy_task
        x = BLOB.neutral(X[:1])
        F = features_batch(net, x, (1,))[0]
        W = np.vstack([F, -F])  # logit0 = ||F||^2 > logit1
        head = ClassifierHead(
            W=W,
            b=np.zeros(2),
            adam_W=AdamState.for_param(W.shape, 1e-3),
            adam_b=AdamState.for_param((2,), 1e-3),
            included_layers=(1,),
        )
        assert predict_head_batch(net, head, x)[0] == 0
        head.W = -W
        assert predict_head_batch(net, head, x)[0] == 1


class TestPredictSweep:
    def test_single_class_degenerate(self, toy_task):
        X, _, net = toy_task
        pred = predict_sweep_batch(net, X[:1], 1, BLOB.embed)
        assert pred[0] == 0

    def test_rescaling_scores_keeps_argmax(self, toy_task):
        X, y, net = toy_task
        scores = sweep_scores_batch(net, X, 2, BLOB.embed)
        assert np.array_equal(
            scores.argmax(axis=1), (123.456 * scores).argmax(axis=1)
        )

    def test_agrees_with_head_on_toy_task(self, toy_task):
        """Both routes solve the separable toy; they agree on >= 90% of points."""
        X, y, net = toy_task
        head = train_head(net, BLOB.neutral(X), y, 2, epochs=8, rng=Rng(42))
        head_pred = predict_head_batch(net, head, BLOB.neutral(X))
        sweep_pred = predict_sweep_batch(net, X, 2, BLOB.embed)
        agreement = float(np.mean(head_pred == sweep_pred))
        assert agreement >= 0.9

    def test_deterministic(self, toy_task):
        X, _, net = toy_task
        a = predict_sweep_batch(net, X[:50], 2, BLOB.embed)
        b = predict_sweep_batch(net, X[:50], 2, BLOB.embed)
        np.testing.assert_array_equal(a, b)

    def test_default_included_layers(self):
        assert default_included_layers(4) == (1, 2, 3)
        assert default_included_layers(1) == (0,)
        assert default_included_layers(3, skip_first=False) == (0, 1, 2)
