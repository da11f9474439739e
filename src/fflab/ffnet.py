"""The Forward-Forward core: layers trained by purely local goodness losses.

Each layer normalizes its input to a unit direction, applies an affine
map and an activation, and is trained to push its goodness — the sum of
squared activations — above a threshold theta for positive samples and
below it for negative samples. Gradients are closed-form and never
cross a layer boundary: a layer's update reads only its own input,
pre-activation, activation, and theta, so a step runs layer by layer.

An epoch trains on the n raw rows, each paired with one drawn wrong
label: a batch holds m rows embedded with their true labels (positive)
followed by the same m rows embedded with their wrong labels (negative).
"""

from dataclasses import dataclass

import numpy as np

from .activations import stable_sigmoid
from .errors import DimensionError, UsageError
from .numerics import DenseLayer, adam_step, require_finite, row_directions


@dataclass(frozen=True)
class LabelSlots:
    """Where a dataset writes the label: ``num_classes`` one-hot slot columns.

    The slots sit at column ``start`` of the embedded row. With
    ``overwrite`` they replace raw columns start..start+C-1 (MNIST's
    first ten border pixels); without it they are inserted there and the
    raw columns from ``start`` on shift right (prepended at 0, appended
    at the raw width). Positive and negative data differ only by the
    label written into these slots.
    """

    num_classes: int
    start: int
    overwrite: bool

    def width(self, raw_dim):
        """Embedded row width for raw rows of ``raw_dim`` columns."""
        return raw_dim if self.overwrite else raw_dim + self.num_classes

    def neutral(self, X_raw):
        """Embedded copy with every slot zero: what the head and baseline see."""
        X = np.asarray(X_raw, dtype=np.float64)
        s, e = self.start, self.start + self.num_classes
        if self.overwrite:
            out = X.copy()
            out[:, s:e] = 0.0
        else:
            out = np.zeros((X.shape[0], X.shape[1] + self.num_classes))
            out[:, :s] = X[:, :s]
            out[:, e:] = X[:, s:]
        return out

    def embed(self, X_raw, labels):
        """Embedded copy with slot ``labels`` set: one int, or one per row."""
        labels = np.asarray(labels, dtype=np.int64)
        bad = labels[(labels < 0) | (labels >= self.num_classes)]
        if bad.size:
            raise UsageError(
                f"label must be in 0..{self.num_classes - 1}, got {bad.flat[0]}"
            )
        out = self.neutral(X_raw)
        out[np.arange(out.shape[0]), self.start + labels] = 1.0
        return out

    def wrong_labels(self, y, rng):
        """One wrong label per row, in row order, drawn uniformly from the
        other C-1 classes: one ``randint(C-1)`` draw per row."""
        y = np.asarray(y, dtype=np.int64)
        wrong = rng.randint_array(y.shape[0], self.num_classes - 1)
        wrong += wrong >= y
        return wrong


def softplus(u):
    """log(1 + e^u), linearized above 30 to avoid overflow."""
    u = np.asarray(u, dtype=np.float64)
    out = np.where(u > 30.0, u, np.log1p(np.exp(np.minimum(u, 30.0))))
    return out if out.ndim else float(out)


def goodness(A):
    """Sum of squared activations over the last axis: one value per row of
    a batch, or a scalar for a single activation vector."""
    return np.sum(A * A, axis=-1)


def ff_loss(G, theta, signs):
    """Layer-local loss, elementwise over G and ``signs``.

    softplus(theta - G) where the sign is +1 (positive data) and
    softplus(G - theta) where it is -1 (negative data): strictly
    decreasing in G for positive, strictly increasing for negative;
    log(2) at G == theta.
    """
    return softplus(signs * (theta - G))


def _dloss_dG(G, theta, signs):
    # dL/dG = -s * sigmoid(s * (theta - G))
    return -signs * stable_sigmoid(signs * (theta - G))


class FFLayer(DenseLayer):
    """One fully connected layer trained by its own local loss."""

    def forward_batch(self, X):
        """(Xhat, Z, A) for a batch matrix; each row is reduced to its
        direction before the affine map."""
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimensionError(
                f"layer expects input of shape (n, {self.in_dim}), got {X.shape}"
            )
        Xhat = row_directions(X)
        return (Xhat, *self.affine(Xhat))

    def grads_batch(self, Xhat, Z, A, signs, theta):
        """Mean closed-form gradients over a batch.

        Returns (dW, db, losses, G). No gradient with respect to the
        layer input is ever formed.
        """
        G = goodness(A)
        losses = ff_loss(G, theta, signs)
        dG = _dloss_dG(G, theta, signs)
        dZ = (dG[:, None] * 2.0 * A) * self.act.deriv(Z)
        n = Xhat.shape[0]
        dW = dZ.T @ Xhat
        dW /= n
        db = dZ.mean(axis=0)
        return dW, db, losses, G

    def apply_grads(self, dW, db):
        """One Adam step on W and b."""
        adam_step(self.adam_W, self.W, dW)
        adam_step(self.adam_b, self.b, db)


class FFNetwork:
    """A stack of FFLayers. Activations flow forward; gradients never do."""

    def __init__(self, input_dim, widths, activation, lr, rng):
        if not widths:
            raise UsageError("network needs at least one layer")
        self.layers = []
        fan_in = int(input_dim)
        for w in widths:
            self.layers.append(FFLayer(fan_in, int(w), activation, lr, rng))
            fan_in = int(w)

    @classmethod
    def from_layer_list(cls, layers):
        net = object.__new__(cls)
        net.layers = list(layers)
        return net

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def widths(self):
        return [layer.out_dim for layer in self.layers]

    def forward_batch(self, X):
        """Each layer's (Xhat, Z, A) for an (n, input_dim) batch, lazily:
        layer l+1 is forwarded from l's A only when asked for, so a caller
        may update layer l in between. ``list()`` forwards every layer."""
        X = np.asarray(X, dtype=np.float64)
        for layer in self.layers:
            Xhat, Z, X = layer.forward_batch(X)
            yield Xhat, Z, X
            del Xhat, Z  # the next forward needs only X


@dataclass
class EpochMetrics:
    mean_loss: np.ndarray      # per layer
    mean_g_pos: np.ndarray     # per layer
    mean_g_neg: np.ndarray     # per layer


@np.errstate(over="ignore", invalid="ignore")
def train_epoch(net, X_raw, y, slots, thetas, batch_size, rng):
    """One pass over the n raw rows, each seen once as a positive and once
    as a negative.

    Each row draws one wrong label (:meth:`LabelSlots.wrong_labels`, n
    draws in row order); then the n row indices are shuffled once (n-1
    draws). A batch is ``batch_size // 2`` shuffled rows r, embedded as
    ``slots.embed(X_raw[r ++ r], y[r] ++ wrong[r])``: the m positives
    first, then their m negatives in the same row order, so the first m
    embedded rows have sign +1 and the last m sign -1.

    Per batch, layer l is forwarded with its pre-update weights and takes
    one Adam step on its local gradients (threshold ``thetas[l]``, see
    ``config.thetas``); then layer l+1 is forwarded from l's pre-step
    activation. So one layer's (Xhat, Z, A) and one gradient are alive at
    a time, with the bits of forwarding every layer first.

    After the last batch every layer is checked once (NaN and inf are
    absorbing under Adam): a :class:`DivergenceError` names the lowest
    non-finite layer, which diverged by itself, and the caller stamps
    its epoch. The check is the guard, so overflow warnings are silenced, in Adam's pool too.
    """
    if batch_size < 2 or batch_size % 2:
        raise UsageError(
            f"batch_size must be even and >= 2 (a row's positive and negative "
            f"share a batch), got {batch_size}"
        )
    depth = len(net.layers)
    if len(thetas) != depth:
        raise UsageError(f"{len(thetas)} thresholds for a depth-{depth} network")
    n = X_raw.shape[0]
    if n == 0:
        raise UsageError("cannot train on zero rows")
    y = np.asarray(y, dtype=np.int64)
    wrong = slots.wrong_labels(y, rng)
    order = np.array(rng.shuffle(list(range(n))))

    loss_sum = np.zeros(depth)
    g_pos_sum = np.zeros(depth)
    g_neg_sum = np.zeros(depth)

    rows_per_batch = batch_size // 2
    for start in range(0, n, rows_per_batch):
        r = order[start : start + rows_per_batch]
        m = r.shape[0]
        stages = net.forward_batch(
            slots.embed(X_raw[np.concatenate((r, r))], np.concatenate((y[r], wrong[r])))
        )
        signs = np.repeat([1.0, -1.0], m)
        for li, layer in enumerate(net.layers):
            dW, db, losses, G = layer.grads_batch(*next(stages), signs, thetas[li])
            layer.apply_grads(dW, db)
            # one live gradient at a time: free it before the next layer's
            del dW, db
            loss_sum[li] += losses.sum()
            g_pos_sum[li] += G[:m].sum()
            g_neg_sum[li] += G[m:].sum()

    for li, layer in enumerate(net.layers):
        require_finite("weights left the finite range after an update",
                       layer.W, layer.b, layer=li)
    return EpochMetrics(
        mean_loss=loss_sum / (2 * n),
        mean_g_pos=g_pos_sum / n,
        mean_g_neg=g_neg_sum / n,
    )
