"""Hand-rolled backpropagation MLP baseline.

One list of :class:`~fflab.numerics.DenseLayer`: the hidden geometry of
the goodness-trained network, then a linear output layer whose
activations are the logits. Trained with softmax cross-entropy and the
same Adam implementation. Inputs are label-neutralized (zeros in the
label slots) so the input dimensionality matches the local-learning
network exactly and no label leaks in. No weight decay.
"""

from dataclasses import dataclass

import numpy as np

from .activations import softmax
from .errors import DimensionError, DivergenceError, UsageError
from .numerics import DenseLayer, adam_step, row_chunks


class BPNetwork:
    """Hidden layers plus a linear output layer, one list, trained end to end."""

    def __init__(self, input_dim, widths, num_classes, activation, lr, rng):
        if not widths:
            raise UsageError("baseline network needs at least one hidden layer")
        self.layers = []
        fan_in = int(input_dim)
        for w in widths:
            self.layers.append(DenseLayer(fan_in, int(w), activation, lr, rng))
            fan_in = int(w)
        self.layers.append(DenseLayer(fan_in, int(num_classes), None, lr, rng))

    @classmethod
    def from_layer_list(cls, layers):
        net = object.__new__(cls)
        net.layers = list(layers)
        return net

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    def forward_batch(self, X):
        """Each layer's (Z, A); the last A is the logits."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(
                f"baseline expects input of shape (n, {self.input_dim}), got {X.shape}"
            )
        stages = []
        A = X
        for layer in self.layers:
            Z, A = layer.affine(A)
            stages.append((Z, A))
        return stages


@dataclass
class BpEpochMetrics:
    mean_loss: float


@np.errstate(over="ignore", invalid="ignore")
def bp_train_epoch(net, X, y, batch_size, rng, order=None):
    """One backprop epoch: shuffled minibatches, Adam updates per layer.

    ``order``, a list of row indices, is shuffled in place with ``rng``
    (default: a fresh 0..n-1); :func:`~fflab.inference.fit_head` keeps
    one list across its epochs. Each batch walks the layers once, top down.

    Raises :class:`DivergenceError` naming the first layer (the output
    layer is last) whose weights left the finite range. NaN and inf are
    absorbing under Adam, so one check at the end of the epoch finds them
    (and overflow warnings are silenced).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise UsageError("bp_train_epoch needs a non-empty dataset")
    n = X.shape[0]
    if order is None:
        order = list(range(n))
    rng.shuffle(order)
    loss_sum = 0.0

    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        Xb = X[idx]
        yb = y[idx]
        m = len(idx)

        stages = net.forward_batch(Xb)
        P = softmax(stages[-1][1])
        loss_sum += float(-np.sum(np.log(P[np.arange(m), yb] + 1e-300)))

        # delta at the logits, then delta_l = (delta_{l+1} @ pre-step W_{l+1}) * f'(z_l)
        delta = P
        delta[np.arange(m), yb] -= 1.0
        delta /= m
        for li in range(len(net.layers) - 1, -1, -1):
            layer = net.layers[li]
            if layer.act is not None:
                delta = delta * layer.act.deriv(stages[li][0])
            a_in = Xb if li == 0 else stages[li - 1][1]
            dW = delta.T @ a_in
            db = delta.sum(axis=0)
            if li > 0:
                delta = delta @ layer.W
            adam_step(layer.adam_W, layer.W, dW)
            adam_step(layer.adam_b, layer.b, db)

    for li, layer in enumerate(net.layers):
        # min/max propagate NaN and expose +-inf without a boolean mask
        for P in (layer.W, layer.b):
            if not (np.isfinite(P.min()) and np.isfinite(P.max())):
                raise DivergenceError("weights left the finite range after an update", layer=li)
    return BpEpochMetrics(mean_loss=loss_sum / n)


def bp_predict_batch(net, X):
    """Predicted class per row, forwarded one row chunk at a time; ties
    break toward the lower index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"baseline expects a matrix of rows, got shape {X.shape}")
    pred = np.empty(X.shape[0], dtype=np.int64)
    for rows in row_chunks(X.shape[0]):
        logits = net.forward_batch(X[rows])[-1][1]
        pred[rows] = np.argmax(logits, axis=1)
    return pred
