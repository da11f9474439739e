"""Hand-rolled backpropagation MLP baseline.

Same hidden geometry as the goodness-trained network plus a softmax
output layer, trained with softmax cross-entropy and the same Adam
implementation. Inputs are label-neutralized (zeros in the label slots)
so the input dimensionality matches the local-learning network exactly
and no label leaks in. No weight decay.
"""

from dataclasses import dataclass

import numpy as np

from .activations import get_activation, softmax
from .errors import DimensionError, DivergenceError, UsageError
from .numerics import AdamState, adam_step, fan_in_uniform, row_chunks


class DenseLayer:
    """Affine map plus optional activation (None = linear output layer)."""

    def __init__(self, in_dim, out_dim, activation, lr, rng=None, W=None, b=None):
        self.act = activation
        if W is None:
            W = fan_in_uniform(rng, out_dim, in_dim)
        if b is None:
            b = np.zeros(out_dim, dtype=np.float64)
        self.W = np.ascontiguousarray(W, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        self.adam_W = AdamState.for_param(self.W.shape, lr)
        self.adam_b = AdamState.for_param(self.b.shape, lr)

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]

    def forward_batch(self, X):
        Z = X @ self.W.T + self.b
        A = self.act.fn(Z) if self.act is not None else Z
        return Z, A


class BPNetwork:
    """Hidden stack + linear output head, trained end to end."""

    def __init__(self, input_dim, widths, num_classes, activation, lr, rng):
        if isinstance(activation, str):
            activation = get_activation(activation)
        if not widths:
            raise UsageError("baseline network needs at least one hidden layer")
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.layers = []
        fan_in = self.input_dim
        for w in widths:
            self.layers.append(DenseLayer(fan_in, int(w), activation, lr, rng))
            fan_in = int(w)
        self.out_layer = DenseLayer(fan_in, self.num_classes, None, lr, rng)

    @classmethod
    def from_parts(cls, input_dim, num_classes, layers, out_layer):
        net = object.__new__(cls)
        net.input_dim = int(input_dim)
        net.num_classes = int(num_classes)
        net.layers = layers
        net.out_layer = out_layer
        return net

    def forward_batch(self, X):
        """Returns (per-hidden (Z, A) list, logits)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(
                f"baseline expects input of shape (n, {self.input_dim}), got {X.shape}"
            )
        stages = []
        A = X
        for layer in self.layers:
            Z, A = layer.forward_batch(A)
            stages.append((Z, A))
        _, logits = self.out_layer.forward_batch(A)
        return stages, logits


@dataclass
class BpEpochMetrics:
    mean_loss: float


@np.errstate(over="ignore", invalid="ignore")
def bp_train_epoch(net, X, y, batch_size, rng):
    """One backprop epoch: shuffled minibatches, Adam updates per layer.

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
    order = list(range(n))
    rng.shuffle(order)
    loss_sum = 0.0

    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        Xb = X[idx]
        yb = y[idx]
        m = len(idx)

        stages, logits = net.forward_batch(Xb)
        P = softmax(logits)
        loss_sum += float(-np.sum(np.log(P[np.arange(m), yb] + 1e-300)))

        # output layer
        dlogits = P.copy()
        dlogits[np.arange(m), yb] -= 1.0
        dlogits /= m
        a_prev = stages[-1][1] if stages else Xb
        dW_out = dlogits.T @ a_prev
        db_out = dlogits.sum(axis=0)

        # hidden recursion: delta_l = (delta_{l+1} @ W_{l+1}) * f'(z_l)
        deltas = []
        delta = dlogits @ net.out_layer.W
        for li in range(len(net.layers) - 1, -1, -1):
            Z, _ = stages[li]
            delta = delta * net.layers[li].act.deriv(Z)
            deltas.append(delta)
            if li > 0:
                delta = deltas[-1] @ net.layers[li].W
        deltas.reverse()

        for li, layer in enumerate(net.layers):
            a_in = Xb if li == 0 else stages[li - 1][1]
            dW = deltas[li].T @ a_in
            db = deltas[li].sum(axis=0)
            adam_step(layer.adam_W, layer.W, dW)
            adam_step(layer.adam_b, layer.b, db)
        adam_step(net.out_layer.adam_W, net.out_layer.W, dW_out)
        adam_step(net.out_layer.adam_b, net.out_layer.b, db_out)

    for li, layer in enumerate(net.layers + [net.out_layer]):
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
        _, logits = net.forward_batch(X[rows])
        pred[rows] = np.argmax(logits, axis=1)
    return pred
