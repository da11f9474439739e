"""Both prediction routes for a trained goodness network.

1. A one-layer softmax head over concatenated (per-layer normalized)
   activations of a frozen network, fed with label-neutral inputs made
   one row chunk at a time.
2. Label sweep: every layer's goodness of every candidate label written
   into the label slots (:func:`sweep_scores_batch`), and the label with
   the largest summed goodness of the included layers
   (:func:`predict_sweep_batch`). Layer 0 is shared by all candidates
   (one GEMM per row chunk), and every candidate's activations and
   goodness are float32.

By default both routes read every layer except the first, whose units
see the label slots directly and would leak.
"""

from dataclasses import dataclass

import numpy as np

from .bp_baseline import BPNetwork, _checked_argmax, bp_train_epoch
from .errors import DimensionError, DivergenceError, UsageError
from .ffnet import goodness
from .numerics import DenseLayer, _cast, require_finite, row_chunks, row_directions


# the label sweep's activations and goodness; weights, checkpoints, the
# head's features and training stay float64
SWEEP_DTYPE = np.float32


def default_included_layers(depth, skip_first=True):
    """All layers except the first (unless the net is a single layer)."""
    if skip_first and depth > 1:
        return tuple(range(1, depth))
    return tuple(range(depth))


def _checked_layers(included_layers, depth):
    """``included_layers`` as a tuple: non-empty, each in 0..depth-1, no repeats."""
    included = tuple(int(i) for i in included_layers)
    if not included:
        raise UsageError("included_layers is empty")
    for i in included:
        if not 0 <= i < depth:
            raise UsageError(f"included layer {i} is not in 0..{depth - 1}")
    if len(set(included)) != len(included):
        raise UsageError(f"included_layers {included} names a layer twice")
    return included


def _checked_raw(net, X_raw, slots):
    """``X_raw`` as a float64 matrix whose rows embed, through ``slots``,
    to the width of the net's first layer."""
    X_raw = np.asarray(X_raw, dtype=np.float64)
    in_dim = net.layers[0].in_dim
    if X_raw.ndim != 2 or slots.width(X_raw.shape[1]) != in_dim:
        raise DimensionError(
            f"network expects embedded rows of width {in_dim}, got raw "
            f"input of shape {X_raw.shape} ({slots.num_classes} label slots)"
        )
    return X_raw


def _forward_stages(layers, X, sq=None):
    """Each layer's activation and its goodness, for the row chunk X
    forwarded through ``layers``.

    The walker takes X over: it scales X (whose per-row sum of squares is
    ``sq``, if known), then each activation it yielded, in place to its
    row directions, drops them after the layer's GEMM and Z once the
    activation exists. A step so holds two chunk matrices, if the caller
    drops each activation before asking for the next (a loop variable, or
    the result tuple ``enumerate`` and ``zip`` reuse, keeps it alive
    through the next GEMM). Training keeps
    :meth:`~fflab.ffnet.FFLayer.forward_batch`: its gradients need both.

    The walk runs in X's dtype: each layer's W and b are cast to it with
    ``copy=False``, so a float64 chunk uses them as they are, bit for
    bit, and a float32 chunk holds one layer's float32 copy at a time
    (W's copied by :func:`~fflab.numerics._split`).
    """
    for layer in layers:
        X = row_directions(X, sq=sq, out=X)
        W = _cast(layer.W, X.dtype)
        Z = X @ W.T
        del X, W
        Z += layer.b.astype(Z.dtype, copy=False)
        X = layer.act.fn(Z)
        del Z
        sq = goodness(X)
        yield X, sq


def features_batch(net, X_raw, slots, included_layers):
    """Concatenated unit-normalized activations of the included layers,
    for raw rows made label-neutral.

    ``slots`` is the dataset's :class:`~fflab.ffnet.LabelSlots`. One chunk
    of rows (:func:`~fflab.numerics.row_chunks`) at a time is neutralized
    (``slots.neutral``) and forwarded up to the last included layer by
    :func:`_forward_stages`, which keeps only the current activation.
    Each activation's sum of squares is computed once: it gives the
    included layer's directions, written straight into their rows and
    columns of F, and normalizes the next layer's input. Transients are
    chunk-sized whatever the split size; a split of more than one chunk
    gets F, and so the head fitted on it, in the chunk's rounding, not
    the whole-split GEMM's.
    """
    included = _checked_layers(included_layers, len(net.layers))
    X_raw = _checked_raw(net, X_raw, slots)
    widths = [net.layers[i].out_dim for i in included]
    F = np.empty((X_raw.shape[0], sum(widths)))
    column = dict(zip(included, np.cumsum([0] + widths)))
    layers = net.layers[: max(included) + 1]
    for rows in row_chunks(X_raw.shape[0]):
        i = 0
        for A, sq in _forward_stages(layers, slots.neutral(X_raw[rows])):
            if i in column:
                row_directions(A, sq=sq, out=F[rows, column[i] : column[i] + A.shape[1]])
            del A  # the walker scales it in place next and frees it after that GEMM
            i += 1
    return F


@dataclass
class ClassifierHead:
    W: np.ndarray
    b: np.ndarray
    included_layers: tuple

    @property
    def num_classes(self):
        return self.W.shape[0]

    @property
    def concat_width(self):
        return self.W.shape[1]


def fit_head(F, labels, num_classes, included_layers, epochs=8, batch_size=128, lr=1e-3,
             *, rng):
    """The softmax head on the feature rows ``F``, which ``features_batch``
    computed from ``included_layers``: a zero-initialized linear
    :class:`~fflab.numerics.DenseLayer`, fitted as a one-layer baseline
    network by :func:`~fflab.bp_baseline.bp_train_epoch` once per head
    epoch, with one row order reshuffled each epoch. Only F is read,
    never the network, so the network stays frozen.

    ``bp_train_epoch``'s errors pass through: a ``UsageError`` for an
    empty F, and a ``DivergenceError`` for a head whose weights left the
    finite range, its ``layer`` renamed ``"head"``.
    """
    layer = DenseLayer(F.shape[1], num_classes, None, lr, W=np.zeros((num_classes, F.shape[1])))
    net = BPNetwork.from_layer_list([layer])
    order = list(range(F.shape[0]))
    try:
        for _ in range(epochs):
            bp_train_epoch(net, F, labels, batch_size, rng, order)
    except DivergenceError as e:
        e.layer = "head"
        raise
    return ClassifierHead(layer.W, layer.b, tuple(included_layers))


def predict_head_batch(net, head, X_raw, slots):
    """Head predictions for raw rows, neutralized through ``slots`` one
    chunk at a time (see :func:`features_batch`); ties go to the lower
    index."""
    return predict_head_features(
        head, features_batch(net, X_raw, slots, head.included_layers)
    )


@np.errstate(over="ignore", invalid="ignore")
def predict_head_features(head, F):
    """Head predictions for rows of ``F`` from :func:`features_batch`, ranked as
    the baseline's are: logits that overflow raise DivergenceError (layer "head")."""
    if F.shape[1] != head.concat_width:
        raise DimensionError(
            f"head expects {head.concat_width} features, got {F.shape[1]}"
        )
    logits = F @ head.W.T
    logits += head.b
    return _checked_argmax(logits, "head")


@np.errstate(over="ignore", invalid="ignore")
def sweep_scores_batch(net, X_raw, num_classes, slots):
    """(n, num_classes, depth) float64 array G: every layer's float32
    goodness of every candidate label, layer 0 included.
    :func:`predict_sweep_batch` scores G.

    ``slots`` is the dataset's :class:`~fflab.ffnet.LabelSlots`; the
    candidates are labels 0..num_classes-1 written into them. They
    differ only by one slot column holding 1.0 in a row whose slots are
    otherwise zero, so with x0 = ``slots.neutral(X_raw)`` candidate c
    has squared norm ||x0||^2 + 1 and layer 0 is
    ``(x0 @ W.T + W[:, start + c]) / sqrt(||x0||^2 + 1) + b``: one GEMM
    per row chunk for every label. A chunk of ``CHUNK_ROWS //
    num_classes`` rows (:func:`~fflab.numerics.row_chunks`) stacks its
    candidates, candidate c's rows after candidate c-1's, into one matrix
    of about ``CHUNK_ROWS`` rows, which :func:`_forward_stages` walks
    once through every later layer, keeping only the current activation
    and each layer's goodness. Each activation's sum of squares is
    computed once: it is the layer's goodness and normalizes the next
    layer's input.

    Every activation and goodness is float32 (``SWEEP_DTYPE``): the
    neutralized chunk, layer 0's shared product, slot columns and bias,
    and each later layer's W and b, cast for one chunk and one layer at
    a time. The weights stay float64; G holds the float32 goodness
    exactly, within a few float32 eps of a float64 forward. A goodness
    that leaves the float32 range (weights near 1e19 and up) raises
    :class:`DivergenceError` naming the first such layer; the check is
    the guard, so numpy's overflow warnings are silenced.
    """
    if not 1 <= num_classes <= slots.num_classes:
        raise UsageError(
            f"num_classes must be in 1..{slots.num_classes}, got {num_classes}"
        )
    X_raw = _checked_raw(net, X_raw, slots)
    first = net.layers[0]
    # one contiguous row per candidate: a column of W has a stride of in_dim
    slot_cols = np.ascontiguousarray(
        first.W[:, slots.start : slots.start + num_classes].T, dtype=SWEEP_DTYPE
    )
    b0 = first.b.astype(SWEEP_DTYPE)
    G = np.empty((X_raw.shape[0], num_classes, len(net.layers)))
    for rows in row_chunks(X_raw.shape[0], num_classes):
        x0 = slots.neutral(X_raw[rows]).astype(SWEEP_DTYPE)
        # >= 1, so the eps floor of row_directions never applies
        norms = np.sqrt(np.sum(x0 * x0, axis=1, keepdims=True) + 1.0)
        W0 = _cast(first.W, SWEEP_DTYPE)
        shared = x0 @ W0.T
        del x0, W0
        Z = shared + slot_cols[:, None, :]  # (num_classes, rows, width)
        del shared
        Z /= norms
        Z += b0
        A = first.act.fn(Z.reshape(-1, Z.shape[2]))
        del Z
        goods = [goodness(A)]
        stages = _forward_stages(net.layers[1:], A, goods[0])
        del A  # the walker takes it over and frees it after layer 1's GEMM
        for A, g in stages:
            del A
            goods.append(g)
        for i, g in enumerate(goods):
            require_finite("goodness left the float32 range of the label sweep", g, layer=i)
            G[rows, :, i] = g.reshape(num_classes, -1).T  # (rows, num_classes)
    return G


def predict_sweep_batch(included_layers, G):
    """Label-sweep predictions from the per-layer goodness ``G`` of
    :func:`sweep_scores_batch`: the argmax over candidates of the included
    layers' goodness, summed in float64 from zero in layer order whatever
    order ``included_layers`` lists them in; ties go to the lower label.
    G comes second because the benchmark's phase-hook test
    (``tests/test_bench_hooks.py``) reads a split's rows from there."""
    scores = np.zeros(G.shape[:2])
    for i in sorted(_checked_layers(included_layers, G.shape[2])):
        scores += G[:, :, i]
    return np.argmax(scores, axis=1)
