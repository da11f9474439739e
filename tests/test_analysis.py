"""Weight statistics, PGM heatmaps, goodness diagnostics."""

import numpy as np
import pytest

from fflab.analysis import (
    export_heatmap,
    goodness_report,
    label_pixel_spike,
    weight_stats,
    write_goodness_csv,
    write_weight_stats_csv,
)
from fflab import analysis, mnist_data, text_data
from fflab.errors import UsageError
from fflab.ffnet import FFNetwork, goodness, train_epoch
from fflab.numerics import DenseLayer
from fflab.inference import sweep_scores_batch
from fflab.rng import Rng
from fflab.synthetic import label_slots

from oracles import SWEEP_RTOL, ks_2sample, loop_goodness_report, read_pgm, two_blob_toy

BLOB = label_slots(2)


def trained_toy(k=0.5, lr=0.05, epochs=40):
    """Config pinned by an oracle run: both layers separate past 0.9."""
    X, y, _ = two_blob_toy(n_per_class=60, separation=6.0)
    net = FFNetwork(2 + X.shape[1], [32, 32], "relu", lr, Rng(100))
    rng = Rng(101)
    for _ in range(epochs):
        train_epoch(net, X, y, BLOB, [k * 32] * 2, 16, rng)
    return X, y, net


class TestWeightStats:
    def test_zero_matrix(self):
        net = FFNetwork(3, [2], "relu", 0.01, Rng(1))
        net.layers[0].W[...] = 0.0
        s = weight_stats(net)[0]
        assert s == {"min": 0.0, "max": 0.0, "mean": 0.0, "var": 0.0}

    def test_hand_matrix(self):
        net = FFNetwork(2, [2], "relu", 0.01, Rng(2))
        net.layers[0].W[...] = np.array([[-1.0, 2.0], [0.0, 3.0]])
        s = weight_stats(net)[0]
        assert s["min"] == -1.0 and s["max"] == 3.0
        assert s["mean"] == 1.0 and s["var"] == 2.5  # population variance

    def test_stats_pure_function_of_weights(self):
        net = FFNetwork(4, [3, 2], "relu", 0.01, Rng(3))
        assert weight_stats(net) == weight_stats(net)

    def test_csv_writer(self, tmp_path):
        net = FFNetwork(4, [3], "relu", 0.01, Rng(4))
        path = tmp_path / "stats.csv"
        write_weight_stats_csv(path, weight_stats(net))
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,min,max,mean,var"
        assert len(lines) == 2


class TestHeatmap:
    def test_constant_matrix_is_mid_gray(self, tmp_path):
        path = tmp_path / "c.pgm"
        export_heatmap(np.full((3, 5), 2.7), path)
        img = read_pgm(path)
        assert img.shape == (3, 5)
        assert np.all(img == 128)

    def test_endpoints(self, tmp_path):
        path = tmp_path / "e.pgm"
        export_heatmap(np.array([[-1.0, 4.0]]), path)
        img = read_pgm(path)
        assert img[0, 0] == 0 and img[0, 1] == 255

    def test_roundtrip_within_quantization(self, tmp_path):
        rng = Rng(5)
        W = rng.uniform_array(32 * 17).reshape(32, 17) * 6 - 3
        path = tmp_path / "w.pgm"
        export_heatmap(W, path)
        img = read_pgm(path).astype(np.float64)
        lo, hi = W.min(), W.max()
        recovered = img / 255.0 * (hi - lo) + lo
        assert np.max(np.abs(recovered - W)) <= (hi - lo) / 255.0

    def test_deterministic_bytes(self, tmp_path):
        W = Rng(6).uniform_array(12).reshape(3, 4)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        export_heatmap(W, p1)
        export_heatmap(W, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        W = np.ones((3, 4))
        W[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(UsageError, match="finite weights"):
            export_heatmap(W, path)
        assert not path.exists()

    def test_label_pixel_spike_helper(self):
        W = np.ones((4, 20)) * 0.1
        W[:, :10] = 2.0
        spike, rest = label_pixel_spike(W, mnist_data.LABEL_SLOTS)
        assert spike > rest

    def test_label_pixel_spike_reads_the_slots_where_the_dataset_puts_them(self):
        # IMDb appends its two sentiment slots after the review features
        W = np.full((4, 12), 0.1)
        W[:, 10:] = -2.0
        spike, rest = label_pixel_spike(W, text_data.label_slots(10))
        assert spike == 2.0 and rest == pytest.approx(0.1)


def report_inputs(net, X, y, rng):
    """(G, y, wrong): the label sweep's per-layer goodness of every
    candidate, the true labels and one drawn wrong label per row."""
    return sweep_scores_batch(net, X, 2, BLOB), y, BLOB.wrong_labels(y, rng)


class RecordingSum:
    """numpy as ``analysis`` sees it, except that ``sum`` records the shape,
    dtype and C-contiguity of each array it reduces."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, a, *args, **kwargs):
        self.seen.append((a.shape, a.dtype, a.flags.c_contiguous))
        return np.sum(a, *args, **kwargs)


class TestSplitWeightPasses:
    """Statistics and heatmaps of full-recipe, desk and head-sized weights
    keep numpy's bits on 1, 2 and 3 workers (one split block is 64 Ki
    elements, so (10, 500) runs inline and the others split)."""

    SHAPES = [(2000, 784), (2000, 2000), (500, 784), (10, 500)]

    @staticmethod
    def weights(shape):
        """Drawn in [-0.04, 0.06), so the mean is away from zero."""
        return Rng(7).uniform_array(shape[0] * shape[1], 0.05).reshape(shape) + 0.01

    @pytest.mark.parametrize("shape", SHAPES)
    def test_weight_stats_keep_numpys_bits(self, monkeypatch, split_workers, shape):
        """Each value equals numpy's whole-array result, and the variance's
        sum reads a C-contiguous float64 array of W's shape: the bits of a
        sum depend on its order (adding up the sums of 64 Ki-element row
        blocks gives numpy's at (2000, 784), not at (2000, 2000)), so the
        squared deviations are summed whole, laid out as numpy lays them."""
        W = self.weights(shape)
        net = FFNetwork.from_layer_list([DenseLayer(shape[1], shape[0], "relu", 0.01, W=W)])
        want = [{"min": float(W.min()), "max": float(W.max()),
                 "mean": float(W.mean()), "var": float(W.var())}]
        for workers in (1, 2, 3):
            split_workers(workers)
            sums = RecordingSum()
            monkeypatch.setattr(analysis, "np", sums)
            assert weight_stats(net) == want, workers
            assert sums.seen == [(shape, np.float64, True)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_heatmap_keeps_the_whole_array_bytes(self, tmp_path, split_workers, shape):
        W = self.weights(shape)
        lo, hi = W.min(), W.max()
        want = np.clip(np.rint((W - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
        for workers in (1, 2, 3):
            split_workers(workers)
            path = tmp_path / f"w{workers}.pgm"
            export_heatmap(W, path)
            assert np.array_equal(read_pgm(path), want), workers


class TestGoodnessReport:
    def test_histogram_conservation(self):
        X, y, net = trained_toy(epochs=3)
        thetas = [0.5 * w for w in net.widths]
        report = goodness_report(*report_inputs(net, X, y, Rng(7)), thetas)
        for li in range(2):
            total = report.pos_counts[li].sum() + report.neg_counts[li].sum()
            assert total == 2 * len(y)
            assert len(report.bin_edges[li]) == 51

    def test_untrained_net_indistinguishable(self):
        """Seeded oracle run: random weights cannot split the polarities."""
        X, y, _ = two_blob_toy(n_per_class=60, separation=6.0)
        net = FFNetwork(2 + X.shape[1], [32, 32], "relu", 0.05, Rng(706))
        pos, neg = BLOB.embed(X, y), BLOB.embed(X, BLOB.wrong_labels(y, Rng(707)))
        for stage_pos, stage_neg in zip(net.forward_batch(pos), net.forward_batch(neg)):
            _, p = ks_2sample(goodness(stage_pos[2]), goodness(stage_neg[2]))
            assert p > 0.01

    def test_trained_net_distinguishable_and_separated(self):
        """After training the same distributions split decisively."""
        X, y, net = trained_toy()
        pos, neg = BLOB.embed(X, y), BLOB.embed(X, BLOB.wrong_labels(y, Rng(991)))
        for stage_pos, stage_neg in zip(net.forward_batch(pos), net.forward_batch(neg)):
            _, p = ks_2sample(goodness(stage_pos[2]), goodness(stage_neg[2]))
            assert p < 1e-10
        thetas = [0.5 * w for w in net.widths]
        report = goodness_report(*report_inputs(net, X, y, Rng(991)), thetas)
        assert np.all(report.frac_pos_above > 0.9)
        assert np.all(report.frac_neg_below > 0.9)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 37])
    def test_equals_the_stage_list_version(self, n):
        """The report is a reduction of the tensor it is given: np.histogram
        and the theta fractions over each row's true-label and wrong-label
        goodness."""
        X, y, net = trained_toy(epochs=2)
        G, y, wrong = report_inputs(net, X[:n], y[:n], Rng(9))
        thetas = [0.5 * w for w in net.widths]
        got = goodness_report(G, y, wrong, thetas)
        for li in range(2):
            pos = np.array([G[i, y[i], li] for i in range(n)])
            neg = np.array([G[i, wrong[i], li] for i in range(n)])
            edges = np.linspace(0.0, float(max(pos.max(), neg.max())), 51)
            np.testing.assert_array_equal(got.bin_edges[li], edges)
            np.testing.assert_array_equal(got.pos_counts[li], np.histogram(pos, edges)[0])
            np.testing.assert_array_equal(got.neg_counts[li], np.histogram(neg, edges)[0])
            assert got.frac_pos_above[li] == np.mean(pos > got.thetas[li])
            assert got.frac_neg_below[li] == np.mean(neg < got.thetas[li])

    @pytest.mark.parametrize("classes", [2, 4])
    def test_counts_equal_the_stream_forward_oracle(self, classes):
        """Seeded: the same counts and fractions as forwarding every row
        embedded with its true label and with the same drawn wrong label;
        edges agree to the float32 sweep's tolerance. With four classes the
        drawn label is not implied by the true one."""
        if classes == 2:
            X, y, net = trained_toy(epochs=5)
        else:
            rng = Rng(13)
            X = rng.uniform_array(40 * 6).reshape(40, 6)
            y = rng.randint_array(40, classes)
            net = FFNetwork(6 + classes, [12, 10], "relu", 0.01, rng)
        slots = label_slots(classes)
        thetas = [0.5 * w for w in net.widths]
        G = sweep_scores_batch(net, X, classes, slots)
        wrong = slots.wrong_labels(y, Rng(12))
        got = goodness_report(G, y, wrong, thetas, bins=8)
        want = loop_goodness_report(
            net, slots.embed(X, y), slots.embed(X, wrong), thetas, bins=8
        )
        for li, (edges, pos, neg, frac_pos, frac_neg) in enumerate(want):
            np.testing.assert_allclose(got.bin_edges[li], edges, rtol=SWEEP_RTOL, atol=0)
            np.testing.assert_array_equal(got.pos_counts[li], pos)
            np.testing.assert_array_equal(got.neg_counts[li], neg)
            assert (got.frac_pos_above[li], got.frac_neg_below[li]) == (frac_pos, frac_neg)

    def test_csv_schema(self, tmp_path):
        X, y, net = trained_toy(epochs=2)
        thetas = [0.5 * w for w in net.widths]
        report = goodness_report(*report_inputs(net, X, y, Rng(8)), thetas)
        path = tmp_path / "hist.csv"
        write_goodness_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,bin_lo,bin_hi,pos_count,neg_count"
        assert len(lines) == 1 + 2 * 50


class TestKs2Sample:
    def test_identical_samples_high_p(self):
        x = Rng(9).normal_array(400)
        d, p = ks_2sample(x, x)
        assert d == 0.0 and p == 1.0

    def test_shifted_samples_low_p(self):
        a = Rng(10).normal_array(400)
        b = Rng(11).normal_array(400) + 2.0
        _, p = ks_2sample(a, b)
        assert p < 1e-10

    def test_agrees_with_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        a = Rng(12).normal_array(300)
        b = Rng(13).normal_array(280) + 0.1
        d, p = ks_2sample(a, b)
        ref = scipy_stats.ks_2samp(a, b, method="asymp")
        assert d == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=0.05)
