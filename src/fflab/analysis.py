"""Weight statistics, PGM heatmap export, goodness diagnostics, and the
one CSV writer every artifact table goes through.

Everything here is a pure function of a checkpoint (plus, for the
goodness report, the label sweep's per-layer goodness): re-running on
the same inputs is bit-identical.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .bp_baseline import BPNetwork
from .errors import UsageError


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
    (a baseline net's output layer last); population variance."""
    stats = []
    for W in (layer.W for layer in net.layers):
        stats.append(
            {
                "min": float(W.min()),
                "max": float(W.max()),
                "mean": float(W.mean()),
                "var": float(W.var()),
            }
        )
    return stats


def write_weight_stats_csv(path, stats):
    write_csv(path, ["layer", "min", "max", "mean", "var"],
              ([i, repr(s["min"]), repr(s["max"]), repr(s["mean"]), repr(s["var"])]
               for i, s in enumerate(stats)))


def export_heatmap(W, path):
    """Write W as a binary PGM (P5, maxval 255), min->0 and max->255.

    A constant matrix maps to mid-gray 128.
    """
    W = np.asarray(W, dtype=np.float64)
    # min/max propagate NaN and expose +-inf without a boolean mask
    lo, hi = float(W.min()), float(W.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError("heatmap export needs finite weights")
    if hi == lo:
        bytes_ = np.full(W.shape, 128, dtype=np.uint8)
    else:
        scaled = np.rint((W - lo) / (hi - lo) * 255.0)
        bytes_ = np.clip(scaled, 0, 255).astype(np.uint8)
    header = f"P5\n{W.shape[1]} {W.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + bytes_.tobytes())


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
    writes (:func:`~fflab.inference.sweep_scores_batch`). Row i's
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
