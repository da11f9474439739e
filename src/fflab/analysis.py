"""Weight statistics, PGM heatmap export, goodness diagnostics, and the
one CSV writer every artifact table goes through.

Everything here is a pure function of a checkpoint (plus, for the
goodness report, the label sweep's per-layer goodness): re-running on
the same inputs is bit-identical. The passes over whole weight matrices
(statistics, heatmaps) are dealt across threads with the same bits.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .bp_baseline import BPNetwork
from .errors import UsageError
from .numerics import _block_rows, _min_max, _split


def write_csv(path, header, rows):
    """One header row, then ``rows``, each a list of cells already formatted."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def artifact_names(net):
    """(checkpoint, weight statistics, layer-i heatmap format) file names of
    a trained network, by its kind. The baseline's carry a ``bp_`` prefix,
    so it and its FF run share a directory without overwriting each other."""
    if isinstance(net, BPNetwork):
        return "checkpoint.bpn1", "bp_weight_stats.csv", "bp_layer{}_weights.pgm"
    return "checkpoint.ffn1", "weight_stats.csv", "layer{}_weights.pgm"


def write_weight_artifacts(out_dir, net, heatmap_layers):
    """The weight statistics CSV and the heatmaps of ``heatmap_layers``
    under ``net``'s names (:func:`artifact_names`); returns the statistics."""
    _, stats_name, heatmap_name = artifact_names(net)
    stats = weight_stats(net)
    write_weight_stats_csv(os.path.join(out_dir, stats_name), stats)
    for i in heatmap_layers:
        export_heatmap(net.layers[i].W, os.path.join(out_dir, heatmap_name.format(i)))
    return stats


def weight_stats(net):
    """Per-layer {min, max, mean, var} of the weight matrices, in layer order
    (a baseline net's output layer last); population variance.

    Each value has the bits of numpy's ``W.min()``, ``W.max()``,
    ``W.mean()`` and ``W.var()``. The min/max and the squared deviations
    from the mean go through :func:`~fflab.numerics._split`; each sum is
    one whole-array reduction, whose order numpy picks by the array's
    shape, so the squared deviations fill a C-contiguous temporary of W's
    shape (one buffer, reused across layers).
    """
    stats = []
    buf = np.empty(max(layer.W.size for layer in net.layers))
    for W in (layer.W for layer in net.layers):
        lo, hi = _min_max(W)
        mean = W.mean()
        sq = buf[: W.size].reshape(W.shape)
        _split(_squared_deviation_rows, W, mean, sq)
        stats.append(
            {
                "min": float(lo),
                "max": float(hi),
                "mean": float(mean),
                "var": float(np.sum(sq) / W.size),
            }
        )
    return stats


def _squared_deviation_rows(lo, hi, W, mean, out):
    x = np.subtract(W[lo:hi], mean, out=out[lo:hi])
    np.multiply(x, x, out=x)


def write_weight_stats_csv(path, stats):
    write_csv(path, ["layer", "min", "max", "mean", "var"],
              ([i, repr(s["min"]), repr(s["max"]), repr(s["mean"]), repr(s["var"])]
               for i, s in enumerate(stats)))


def export_heatmap(W, path):
    """Write W as a binary PGM (P5, maxval 255), min->0 and max->255:
    ``clip(rint((W - min) / (max - min) * 255.0), 0, 255)`` as bytes, made
    by :func:`~fflab.numerics._split` a few rows at a time.

    A constant matrix maps to mid-gray 128.
    """
    W = np.asarray(W, dtype=np.float64)
    # min/max propagate NaN and expose +-inf without a boolean mask
    lo, hi = (float(v) for v in _min_max(W))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError("heatmap export needs finite weights")
    if hi == lo:
        bytes_ = np.full(W.shape, 128, dtype=np.uint8)
    else:
        bytes_ = np.empty(W.shape, dtype=np.uint8)
        _split(_heatmap_rows, W, lo, hi - lo, bytes_)
    header = f"P5\n{W.shape[1]} {W.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + bytes_.tobytes())


def _heatmap_rows(lo, hi, W, w_min, span, out):
    """Rows lo..hi of the heatmap, half a block of rows at a time in one
    scratch array."""
    rows = max(1, _block_rows(W) // 2)
    scratch = np.empty((min(rows, hi - lo),) + W.shape[1:])
    for i in range(lo, hi, rows):
        s = scratch[: min(rows, hi - i)]
        np.subtract(W[i : i + len(s)], w_min, out=s)
        s /= span
        s *= 255.0
        np.rint(s, out=s)
        np.clip(s, 0, 255, out=s)
        out[i : i + len(s)] = s


def label_pixel_spike(W, slots):
    """(mean |w| over the label slot columns, mean |w| over the rest) of a
    first-layer matrix over rows embedded by ``slots`` (a ``LabelSlots``)."""
    A = np.abs(np.asarray(W, dtype=np.float64))
    label = np.zeros(A.shape[1], dtype=bool)
    label[slots.start : slots.start + slots.num_classes] = True
    return float(A[:, label].mean()), float(A[:, ~label].mean())


@dataclass
class GoodnessReport:
    bin_edges: list        # per layer, (bins+1,) array over [0, max G observed]
    pos_counts: list       # per layer, (bins,) int array
    neg_counts: list
    frac_pos_above: np.ndarray
    frac_neg_below: np.ndarray
    thetas: np.ndarray


def goodness_report(G, y, wrong, thetas, bins=50):
    """Histograms of per-layer goodness split by polarity, plus the
    fraction of positives above theta and of negatives below it.

    ``G`` is the (n, C, depth) per-layer goodness that the label sweep
    returns (:func:`~fflab.inference.sweep_scores_batch`). Row i's
    positive is ``G[i, y[i]]`` and its negative ``G[i, wrong[i]]``; no
    row is forwarded here.
    """
    if G.shape[0] == 0:
        raise UsageError("the goodness report needs at least one row")
    rows = np.arange(G.shape[0])
    pos = G[rows, np.asarray(y, dtype=np.int64)]
    neg = G[rows, np.asarray(wrong, dtype=np.int64)]
    depth = G.shape[2]
    thetas = np.asarray(thetas, dtype=np.float64)
    edges, pos_counts, neg_counts = [], [], []
    frac_pos = np.zeros(depth)
    frac_neg = np.zeros(depth)
    for li in range(depth):
        top = float(max(pos[:, li].max(), neg[:, li].max()))
        e = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
        pos_counts.append(np.histogram(pos[:, li], bins=e)[0])
        neg_counts.append(np.histogram(neg[:, li], bins=e)[0])
        edges.append(e)
        frac_pos[li] = float(np.mean(pos[:, li] > thetas[li]))
        frac_neg[li] = float(np.mean(neg[:, li] < thetas[li]))
    return GoodnessReport(edges, pos_counts, neg_counts, frac_pos, frac_neg, thetas)


def write_goodness_csv(path, report):
    write_csv(path, ["layer", "bin_lo", "bin_hi", "pos_count", "neg_count"],
              ([li, repr(float(e[b])), repr(float(e[b + 1])),
                int(report.pos_counts[li][b]), int(report.neg_counts[li][b])]
               for li, e in enumerate(report.bin_edges) for b in range(len(e) - 1)))
