"""Both prediction routes for a trained goodness network.

1. A one-layer softmax head over concatenated (per-layer normalized)
   activations of a frozen network, fed with label-neutral inputs.
2. Label sweep: embed every candidate label, run the network, and pick
   the label with the largest summed goodness.

By default both routes read every layer except the first, whose units
see the label slots directly and would leak.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError
from .ffnet import goodness_batch
from .numerics import AdamState, adam_step, row_directions
from .rng import Rng


def default_included_layers(depth, skip_first=True):
    """All layers except the first (unless the net is a single layer)."""
    if skip_first and depth > 1:
        return tuple(range(1, depth))
    return tuple(range(depth))


def features_batch(net, X_neutral, included_layers):
    """Concatenated unit-normalized activations of the included layers."""
    stages = net.forward_batch(np.asarray(X_neutral, dtype=np.float64))
    parts = [row_directions(stages[i][2]) for i in included_layers]
    return np.concatenate(parts, axis=1)


def _weights_digest(net):
    """sha256 of every layer's W and b, read from their buffers without a copy."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.W)
        h.update(layer.b)
    return h.digest()


@dataclass
class ClassifierHead:
    W: np.ndarray
    b: np.ndarray
    adam_W: AdamState
    adam_b: AdamState
    included_layers: tuple

    @property
    def num_classes(self):
        return self.W.shape[0]

    @property
    def concat_width(self):
        return self.W.shape[1]


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def train_head(
    net,
    X_neutral,
    labels,
    num_classes,
    epochs=8,
    batch_size=128,
    lr=1e-3,
    rng=None,
    included_layers=None,
):
    """Fit the softmax head on features from the frozen network.

    The network is read, never written: features are computed once up
    front and only the head's own parameters take Adam steps. The
    detachment contract is asserted — the net's weights must be
    bit-identical before and after. Gradient of the cross-entropy for
    one sample is (softmax(logits) - onehot) outer features.
    """
    X_neutral = np.asarray(X_neutral, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X_neutral.shape[0] == 0:
        raise UsageError("train_head needs a non-empty dataset")
    if rng is None:
        rng = Rng(0)
    if included_layers is None:
        included_layers = default_included_layers(len(net.layers))
    included_layers = tuple(sorted(included_layers))
    frozen = _weights_digest(net)

    F = features_batch(net, X_neutral, included_layers)
    width = F.shape[1]
    head = ClassifierHead(
        W=np.zeros((num_classes, width), dtype=np.float64),
        b=np.zeros(num_classes, dtype=np.float64),
        adam_W=AdamState.for_param((num_classes, width), lr),
        adam_b=AdamState.for_param((num_classes,), lr),
        included_layers=included_layers,
    )

    n = F.shape[0]
    order = list(range(n))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Fb = F[idx]
            yb = labels[idx]
            m = len(idx)
            P = softmax(Fb @ head.W.T + head.b)
            dlogits = P
            dlogits[np.arange(m), yb] -= 1.0
            dlogits /= m
            adam_step(head.adam_W, head.W, dlogits.T @ Fb)
            adam_step(head.adam_b, head.b, dlogits.sum(axis=0))
    if _weights_digest(net) != frozen:
        raise UsageError("head training mutated the frozen network")
    return head


def head_loss(net, head, X_neutral, labels):
    """Mean cross-entropy of the head; used by the gradient checks."""
    F = features_batch(net, X_neutral, head.included_layers)
    P = softmax(F @ head.W.T + head.b)
    n = F.shape[0]
    return float(-np.mean(np.log(P[np.arange(n), labels] + 1e-300)))


def predict_head_batch(net, head, X_neutral):
    F = features_batch(net, X_neutral, head.included_layers)
    if F.shape[1] != head.concat_width:
        raise DimensionError(
            f"head expects {head.concat_width} features, got {F.shape[1]}"
        )
    logits = F @ head.W.T + head.b
    return np.argmax(logits, axis=1)


def predict_head(net, head, x_neutral):
    """Head prediction for one neutral-encoded input; ties go to the lower index."""
    return int(predict_head_batch(net, head, np.asarray(x_neutral)[None, :])[0])


def sweep_scores_batch(net, X_raw, num_classes, embed_batch, included_layers=None):
    """(n, num_classes) matrix of summed goodness per candidate label."""
    if included_layers is None:
        included_layers = default_included_layers(len(net.layers))
    X_raw = np.asarray(X_raw, dtype=np.float64)
    scores = np.zeros((X_raw.shape[0], num_classes))
    for c in range(num_classes):
        stages = net.forward_batch(embed_batch(X_raw, c))
        for i in included_layers:
            scores[:, c] += goodness_batch(stages[i][2])
    return scores


def predict_sweep_batch(net, X_raw, num_classes, embed_batch, included_layers=None):
    scores = sweep_scores_batch(net, X_raw, num_classes, embed_batch, included_layers)
    return np.argmax(scores, axis=1)


def predict_sweep(net, x_raw, num_classes, embed, included_layers=None):
    """Label-sweep prediction for one raw (label-free) input.

    ``embed(x_raw, label)`` produces the candidate input for one label;
    the argmax of summed goodness wins, ties toward the lower label.
    """
    if num_classes < 1:
        raise UsageError("num_classes must be >= 1")

    def embed_batch(X, c):
        return embed(X[0], c)[None, :]

    return int(
        predict_sweep_batch(
            net, np.asarray(x_raw)[None, :], num_classes, embed_batch, included_layers
        )[0]
    )
