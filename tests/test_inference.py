"""Head training on a frozen net, and both prediction routes."""

import tracemalloc

import numpy as np
import pytest

from fflab.activations import softmax
from fflab.checkpoint import network_bytes
from fflab.errors import DimensionError, DivergenceError, UsageError
from fflab.ffnet import FFNetwork, LabelSlots, train_epoch
from fflab.mnist_data import LABEL_SLOTS
from fflab import numerics
from fflab.inference import (
    ClassifierHead,
    default_included_layers,
    features_batch,
    fit_head,
    predict_head_batch,
    predict_sweep_batch,
    sweep_scores_batch,
)
from fflab.numerics import row_directions
from fflab.rng import Rng
from fflab.synthetic import label_slots
from fflab.text_data import label_slots as sentiment_slots

from oracles import (
    SWEEP_RTOL, central_diff_grad, clear_rows, forward_stages, frozen_head, head_loss,
    loop_fit_head, loop_sweep, rel_err, two_blob_toy,
)

BLOB = label_slots(2)


@pytest.fixture(scope="module")
def toy_task():
    X, y, _ = two_blob_toy(separation=4.0)
    net = FFNetwork(2 + X.shape[1], [16, 16], "relu", 0.03, Rng(300))
    rng = Rng(301)
    for _ in range(12):
        train_epoch(net, X, y, BLOB, [0.3 * 16] * 2, 16, rng)
    return X, y, net


class TestTrainHead:
    def test_ff_weights_frozen(self, toy_task):
        """The detachment contract: head training leaves the net bit-identical."""
        X, y, net = toy_task
        before = network_bytes(net)
        frozen_head(net, X, BLOB, y, 2, epochs=3, rng=Rng(5))
        assert network_bytes(net) == before

    def test_empty_data_rejected(self, toy_task):
        X, _, net = toy_task
        with pytest.raises(UsageError):
            frozen_head(net, X[:0], BLOB, np.empty(0, dtype=int), 2, rng=Rng(1))

    def test_gradient_matches_finite_differences(self, toy_task):
        """Cross-entropy gradient of the head weights vs central differences."""
        X, y, net = toy_task
        Xb = X[:16]
        yb = y[:16]
        rng = Rng(40)
        W0 = (rng.uniform_array(2 * 32).reshape(2, 32) - 0.5) * 0.4
        b0 = rng.uniform_array(2) - 0.5
        head = ClassifierHead(
            W=W0.copy(),
            b=b0.copy(),
            included_layers=(0, 1),
        )
        F = features_batch(net, Xb, BLOB, head.included_layers)
        P = softmax(F @ head.W.T + head.b)
        dlogits = P.copy()
        dlogits[np.arange(len(yb)), yb] -= 1.0
        dlogits /= len(yb)
        analytic_W = dlogits.T @ F
        analytic_b = dlogits.sum(axis=0)

        def loss_at_W(W):
            h = ClassifierHead(W, b0, (0, 1))
            return head_loss(net, h, Xb, BLOB, yb)

        def loss_at_b(b):
            h = ClassifierHead(W0, b, (0, 1))
            return head_loss(net, h, Xb, BLOB, yb)

        assert rel_err(analytic_W, central_diff_grad(loss_at_W, W0.copy())) < 1e-4
        assert rel_err(analytic_b, central_diff_grad(loss_at_b, b0.copy())) < 1e-4

    @pytest.mark.parametrize("batch_size", [16, 128])
    def test_same_bits_as_the_head_loop(self, batch_size):
        """Fitted through bp_train_epoch, the head has the bits of a plain
        minibatch loop, over several epochs, whether or not the batch size
        divides n."""
        rng = Rng(60)
        F = rng.uniform_array(103 * 24).reshape(103, 24)
        y = np.array([rng.randint(5) for _ in range(103)])
        head = fit_head(F, y, 5, (1,), epochs=4, batch_size=batch_size, lr=1e-2, rng=Rng(61))
        W, b = loop_fit_head(F, y, 5, 4, batch_size, 1e-2, Rng(61))
        assert np.array_equal(head.W, W) and np.array_equal(head.b, b)

    def test_learns_the_toy_task(self, toy_task):
        X, y, net = toy_task
        head = frozen_head(net, X, BLOB, y, 2, epochs=8, rng=Rng(41))
        acc = float(np.mean(predict_head_batch(net, head, X, BLOB) == y))
        assert acc > 0.9


class TestPredictHead:
    def _constant_head(self, net, width, num_classes=3):
        return ClassifierHead(
            W=np.zeros((num_classes, width)),
            b=np.zeros(num_classes),
            included_layers=default_included_layers(len(net.layers)),
        )

    def test_equal_logits_tie_to_class_zero(self, toy_task):
        X, _, net = toy_task
        head = self._constant_head(net, 16)
        assert predict_head_batch(net, head, X[:1], BLOB)[0] == 0

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))
        assert np.argmax(softmax(logits)) == np.argmax(softmax(logits - 7.0))

    def test_hand_set_two_class_head(self, toy_task):
        X, _, net = toy_task
        x = X[:1]
        F = features_batch(net, x, BLOB, (1,))[0]
        W = np.vstack([F, -F])  # logit0 = ||F||^2 > logit1
        head = ClassifierHead(
            W=W,
            b=np.zeros(2),
            included_layers=(1,),
        )
        assert predict_head_batch(net, head, x, BLOB)[0] == 0
        head.W = -W
        assert predict_head_batch(net, head, x, BLOB)[0] == 1


class TestPredictSweep:
    def test_single_class_degenerate(self, toy_task):
        X, _, net = toy_task
        pred = predict_sweep_batch(net, X[:1], 1, BLOB)
        assert pred[0] == 0

    def test_rescaling_scores_keeps_argmax(self, toy_task):
        X, y, net = toy_task
        scores = sweep_scores_batch(net, X, 2, BLOB)
        assert np.array_equal(
            scores.argmax(axis=1), (123.456 * scores).argmax(axis=1)
        )

    def test_agrees_with_head_on_toy_task(self, toy_task):
        """Both routes solve the separable toy; they agree on >= 90% of points."""
        X, y, net = toy_task
        head = frozen_head(net, X, BLOB, y, 2, epochs=8, rng=Rng(42))
        head_pred = predict_head_batch(net, head, X, BLOB)
        sweep_pred = predict_sweep_batch(net, X, 2, BLOB)
        agreement = float(np.mean(head_pred == sweep_pred))
        assert agreement >= 0.9

    def test_deterministic(self, toy_task):
        X, _, net = toy_task
        a = predict_sweep_batch(net, X[:50], 2, BLOB)
        b = predict_sweep_batch(net, X[:50], 2, BLOB)
        np.testing.assert_array_equal(a, b)

    def test_default_included_layers(self):
        assert default_included_layers(4) == (1, 2, 3)
        assert default_included_layers(1) == (0,)
        assert default_included_layers(3, skip_first=False) == (0, 1, 2)


# (slots, raw width) of the three dataset layouts
LAYOUTS = {
    "overwrite@0 C=10": (LABEL_SLOTS, 784),
    "insert@0 C=4": (label_slots(4), 6),
    "append C=2": (sentiment_slots(5), 5),
}


def _layout_case(layout, n, seed=70):
    slots, raw = LAYOUTS[layout]
    rng = Rng(seed)
    X = rng.uniform_array(n * raw).reshape(n, raw)
    net = FFNetwork(slots.width(raw), [12, 10, 8], "relu", 0.01, rng)
    return slots, X, net


class TestSharedSweep:
    """The shared-layer-0, row-chunked sweep against per-label forwards."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("included", [None, (0, 1, 2), (1,), (0,)])
    @pytest.mark.parametrize("n", [1, 37])
    def test_equals_per_label_forwards(self, monkeypatch, layout, included, n):
        """37 rows in chunks of 8 cross four chunk boundaries. The float32
        sweep holds the argmax of every row whose float64 margin is clear
        of the tolerance."""
        monkeypatch.setattr(numerics, "CHUNK_ROWS", 8)
        slots, X, net = _layout_case(layout, n)
        C = slots.num_classes
        got = sweep_scores_batch(net, X, C, slots, included)
        want = loop_sweep(net, X, C, slots, included or (1, 2))
        np.testing.assert_allclose(got, want, rtol=SWEEP_RTOL, atol=0)
        clear = clear_rows(want)
        np.testing.assert_array_equal(got.argmax(axis=1)[clear], want.argmax(axis=1)[clear])

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 37])
    def test_layer_goodness_equals_per_label_forwards(self, monkeypatch, layout, n):
        """Every layer's goodness of every candidate, layer 0 included,
        whatever the included layers."""
        monkeypatch.setattr(numerics, "CHUNK_ROWS", 8)
        slots, X, net = _layout_case(layout, n)
        C = slots.num_classes
        want = np.empty((n, C, 3))
        for c in range(C):
            for i, (_, _, A) in enumerate(net.forward_batch(slots.embed(X, c))):
                want[:, c, i] = np.sum(A * A, axis=1)
        for included in (None, (0,), (1,)):
            G = np.full((n, C, 3), np.nan)
            sweep_scores_batch(net, X, C, slots, included, layer_goodness=G)
            np.testing.assert_allclose(G, want, rtol=SWEEP_RTOL, atol=0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("included", [None, (0, 1, 2), (1,), (0,)])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 37])
    def test_layer_goodness_leaves_the_scores_alone(self, monkeypatch, layout, included, n):
        monkeypatch.setattr(numerics, "CHUNK_ROWS", 8)
        slots, X, net = _layout_case(layout, n)
        C = slots.num_classes
        G = np.empty((n, C, 3))
        np.testing.assert_array_equal(
            sweep_scores_batch(net, X, C, slots, included, layer_goodness=G),
            sweep_scores_batch(net, X, C, slots, included),
        )
        np.testing.assert_array_equal(
            predict_sweep_batch(net, X, C, slots, included, layer_goodness=G),
            predict_sweep_batch(net, X, C, slots, included),
        )

    @pytest.mark.parametrize(
        "G", [np.empty((3, 4, 2)), np.empty((3, 3, 3)), np.empty((4, 4, 3)),
              np.empty((3, 4, 3), dtype=np.float32)],
        ids=["depth", "classes", "rows", "float32"],
    )
    def test_layer_goodness_of_another_shape_rejected(self, G):
        slots, X, net = _layout_case("insert@0 C=4", 3)
        with pytest.raises(UsageError, match="layer_goodness"):
            sweep_scores_batch(net, X, 4, slots, layer_goodness=G)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_goodness_beyond_float32_is_a_divergence(self, layer):
        """Weights scaled to 1e20 overflow the float32 goodness of their
        layer: a located DivergenceError, no numpy warning."""
        slots, X, net = _layout_case("insert@0 C=4", 9)
        net.layers[layer].W *= 1e20
        with pytest.raises(DivergenceError) as e:
            sweep_scores_batch(net, X, 4, slots, layer_goodness=np.empty((9, 4, 3)))
        assert e.value.layer == layer

    def test_zero_rows(self):
        slots, X, net = _layout_case("insert@0 C=4", 0)
        assert sweep_scores_batch(net, X, 4, slots).shape == (0, 4)

    @pytest.mark.parametrize("num_classes", [0, 5])
    def test_candidates_outside_the_slots_rejected(self, num_classes):
        slots, X, net = _layout_case("insert@0 C=4", 3)
        with pytest.raises(UsageError, match="num_classes"):
            sweep_scores_batch(net, X, num_classes, slots)

    @pytest.mark.parametrize("shape", [(3, 7), (3, 5), (6,)])
    def test_wrong_width_is_a_dimension_error(self, shape):
        slots, _, net = _layout_case("insert@0 C=4", 3)
        with pytest.raises(DimensionError):
            sweep_scores_batch(net, np.zeros(shape), 4, slots)


@pytest.mark.parametrize("included", [(), (3,), (-1,), (1, 1), (0, 2, 0)])
class TestIncludedLayersChecked:
    """Empty, out-of-range or repeated layers are usage errors, not a
    traceback or a layer counted twice."""

    def test_features(self, included):
        slots, X, net = _layout_case("insert@0 C=4", 3)
        with pytest.raises(UsageError, match="included"):
            features_batch(net, X, slots, included)

    def test_sweep(self, included):
        slots, X, net = _layout_case("insert@0 C=4", 3)
        with pytest.raises(UsageError, match="included"):
            sweep_scores_batch(net, X, 4, slots, included)


@pytest.mark.parametrize("included", [(0, 1, 2), (1,), (0,), (2, 0), (1, 2)])
def test_features_equal_the_stage_list_expression(monkeypatch, included):
    """Chunked forwarding into one preallocated F changes no bit of the
    stage-list expression applied to each chunk; 37 rows in chunks of 8
    end on a partial chunk."""
    monkeypatch.setattr(numerics, "CHUNK_ROWS", 8)
    slots, X, net = _layout_case("overwrite@0 C=10", 37)
    for n in (1, 7, 8, 9, 37):
        Xn = slots.neutral(X[:n])
        want = []
        for lo in range(0, n, 8):
            stages = forward_stages(net, Xn[lo : lo + 8])
            want.append(np.concatenate([row_directions(stages[i][2]) for i in included], axis=1))
        got = features_batch(net, X[:n], slots, included)
        np.testing.assert_array_equal(got, np.concatenate(want))


def _traced_peak(fn):
    """(fn(), tracemalloc peak while fn ran above what was live before)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _features_peak(net, n):
    """(tracemalloc peak of features_batch above what was live before, F bytes)."""
    X = Rng(90).uniform_array(n * 784).reshape(n, 784)
    F, peak = _traced_peak(lambda: features_batch(net, X, LABEL_SLOTS, (1,)))
    return peak, F.nbytes


def test_features_memory_is_chunk_sized():
    """Beyond F, features_batch holds a few chunk-sized matrices: its peak
    does not grow with n x 784 (a whole-split forward holds several
    n x 784 matrices at once)."""
    net = FFNetwork(784, [64, 64], "relu", 0.01, Rng(91))
    chunk_bytes = numerics.CHUNK_ROWS * 784 * 8
    peak4, F4 = _features_peak(net, 4 * numerics.CHUNK_ROWS)
    peak8, F8 = _features_peak(net, 8 * numerics.CHUNK_ROWS)
    assert peak4 < F4 + 3 * chunk_bytes
    assert peak8 - peak4 < (F8 - F4) + chunk_bytes // 2


class TestChunkPeak:
    """On a 3-chunk split whose raw rows and layers are all D wide (unless
    stated), each route's peak is its output plus a stated number of
    CHUNK_ROWS x D matrices, plus an eighth of one for per-row vectors."""

    D = 128
    SLOTS = LabelSlots(4, 0, True)  # overwrite: embedded rows are D wide too

    def _case(self):
        n = 3 * numerics.CHUNK_ROWS
        X = Rng(95).uniform_array(n * self.D).reshape(n, self.D)
        net = FFNetwork(self.D, [self.D] * 3, "relu", 0.01, Rng(96))
        return X, net, numerics.CHUNK_ROWS * self.D * 8

    def test_features(self):
        """2 beside F: a layer's input, scaled in place to its directions,
        and Z; then Z and the new activation; then the activation and its
        square for the goodness."""
        X, net, chunk = self._case()
        F, peak = _traced_peak(lambda: features_batch(net, X, self.SLOTS, (1, 2)))
        assert peak <= F.nbytes + 2 * chunk + chunk // 8

    def test_sweep(self):
        """Beside the scores and layer_goodness, 2 float32 matrices of a
        stacked chunk (about CHUNK_ROWS rows, candidates after one
        another): the two of a layer step (see test_features), in the
        sweep's float32. A float64 sweep would hold 2 float64 ones."""
        X, net, chunk = self._case()
        G_bytes = X.shape[0] * 4 * 3 * 8
        scores, peak = _traced_peak(
            lambda: sweep_scores_batch(
                net, X, 4, self.SLOTS, layer_goodness=np.empty((X.shape[0], 4, 3))
            )
        )
        assert peak <= scores.nbytes + G_bytes + 2 * (chunk // 2) + chunk // 8

    def test_sweep_wide_rows(self):
        """Raw rows 4D wide: 2 raw-row chunk matrices beside the scores, a
        neutralized chunk and its square for the norms. The last chunk's
        shared product is gone by then, and a layer step's 3 D-wide ones
        are smaller."""
        n, wide = 3 * numerics.CHUNK_ROWS, 4 * self.D
        X = Rng(97).uniform_array(n * wide).reshape(n, wide)
        net = FFNetwork(wide, [self.D] * 3, "relu", 0.01, Rng(98))
        chunk = numerics.CHUNK_ROWS * self.D * 8
        scores, peak = _traced_peak(lambda: sweep_scores_batch(net, X, 4, self.SLOTS))
        assert peak <= scores.nbytes + 2 * 4 * chunk + chunk // 8


@pytest.mark.parametrize("shape", [(3, 7), (3, 5), (6,)])
def test_head_route_wrong_width_is_a_dimension_error(shape):
    """Raw rows that do not embed to the net's input width."""
    slots, _, net = _layout_case("insert@0 C=4", 3)
    head = ClassifierHead(np.zeros((4, 18)), np.zeros(4), (1, 2))
    with pytest.raises(DimensionError):
        features_batch(net, np.zeros(shape), slots, (1, 2))
    with pytest.raises(DimensionError):
        predict_head_batch(net, head, np.zeros(shape), slots)
