"""The Forward-Forward core: layers trained by purely local goodness losses.

Each layer normalizes its input to a unit direction, applies an affine
map and an activation, and is trained to push its goodness — the sum of
squared activations — above a threshold theta for positive samples and
below it for negative samples. Gradients are closed-form and never
cross a layer boundary: a layer's update reads only its own input,
pre-activation, activation, and theta.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .activations import get_activation, stable_sigmoid
from .errors import DimensionError, DivergenceError, UsageError
from .numerics import AdamState, adam_step, direction, row_directions
from .thresholds import resolve as resolve_theta


class Polarity(IntEnum):
    POSITIVE = 1
    NEGATIVE = -1


@dataclass
class Sample:
    """One training datum: an embedded feature vector plus its polarity.

    ``true_label`` is bookkeeping (the class the datum came from), kept
    even for negative samples whose embedded label is deliberately wrong.
    """

    features: np.ndarray
    polarity: int
    true_label: int


def softplus(u):
    """log(1 + e^u), linearized above 30 to avoid overflow."""
    u = np.asarray(u, dtype=np.float64)
    out = np.where(u > 30.0, u, np.log1p(np.exp(np.minimum(u, 30.0))))
    return out if out.ndim else float(out)


def goodness(a):
    """Sum of squared activations of one layer for one sample."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def goodness_batch(A):
    return np.sum(A * A, axis=1)


def ff_loss(g, theta, polarity):
    """Layer-local loss: softplus(theta - G) for positive samples,

    softplus(G - theta) for negative ones. Strictly decreasing in G for
    positive, strictly increasing for negative; log(2) at G == theta.
    """
    s = int(polarity)
    return softplus(s * (theta - g))


def _loss_batch(G, theta, signs):
    return softplus(signs * (theta - G))


def _dloss_dG_batch(G, theta, signs):
    # dL/dG = -s * sigmoid(s * (theta - G))
    return -signs * stable_sigmoid(signs * (theta - G))


class FFLayer:
    """One fully connected layer with its own Adam state and local loss."""

    def __init__(self, in_dim, out_dim, activation, lr, rng=None, W=None, b=None):
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.act = activation
        if W is None:
            bound = 1.0 / np.sqrt(in_dim)
            W = (rng.uniform_array(out_dim * in_dim).reshape(out_dim, in_dim) * 2.0 - 1.0) * bound
        if b is None:
            b = np.zeros(out_dim, dtype=np.float64)
        self.W = np.ascontiguousarray(W, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        if self.W.shape != (out_dim, in_dim) or self.b.shape != (out_dim,):
            raise DimensionError(
                f"layer wants W {(out_dim, in_dim)} and b {(out_dim,)}, "
                f"got {self.W.shape} and {self.b.shape}"
            )
        self.adam_W = AdamState.for_param(self.W.shape, lr)
        self.adam_b = AdamState.for_param(self.b.shape, lr)

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]

    def forward(self, x):
        """(z, a) for one sample. The input is reduced to its direction first."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise DimensionError(
                f"layer expects input of width {self.in_dim}, got {x.shape}"
            )
        xhat = direction(x)
        z = self.W @ xhat + self.b
        return z, self.act.fn(z)

    def forward_batch(self, X):
        if X.shape[1] != self.in_dim:
            raise DimensionError(
                f"layer expects input width {self.in_dim}, got {X.shape[1]}"
            )
        Xhat = row_directions(X)
        Z = Xhat @ self.W.T + self.b
        return Xhat, Z, self.act.fn(Z)

    def grads_batch(self, Xhat, Z, A, signs, theta):
        """Mean closed-form gradients over a batch.

        Returns (dW, db, losses, G). No gradient with respect to the
        layer input is ever formed.
        """
        G = goodness_batch(A)
        losses = _loss_batch(G, theta, signs)
        dG = _dloss_dG_batch(G, theta, signs)
        dZ = (dG[:, None] * 2.0 * A) * self.act.deriv(Z)
        n = Xhat.shape[0]
        dW = dZ.T @ Xhat
        dW /= n
        db = dZ.mean(axis=0)
        return dW, db, losses, G

    def grads(self, x, polarity, theta):
        """(dW, db, loss) for a single sample."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise DimensionError(
                f"layer expects input of width {self.in_dim}, got {x.shape}"
            )
        signs = np.array([float(int(polarity))])
        Xhat, Z, A = self.forward_batch(x[None, :])
        dW, db, losses, _ = self.grads_batch(Xhat, Z, A, signs, theta)
        return dW, db, float(losses[0])

    def apply_grads(self, dW, db, index=None):
        """One Adam step on W and b; ``index`` names the layer in errors."""
        adam_step(self.adam_W, self.W, dW)
        adam_step(self.adam_b, self.b, db)
        # min/max propagate NaN and expose +-inf without a boolean mask
        for P in (self.W, self.b):
            if not (np.isfinite(P.min()) and np.isfinite(P.max())):
                raise DivergenceError(
                    "weights left the finite range after an update", layer=index
                )


class FFNetwork:
    """A stack of FFLayers. Activations flow forward; gradients never do."""

    def __init__(self, input_dim, widths, activation, lr, rng):
        if not widths:
            raise UsageError("network needs at least one layer")
        self.input_dim = int(input_dim)
        self.layers = []
        fan_in = self.input_dim
        for w in widths:
            self.layers.append(FFLayer(fan_in, int(w), activation, lr, rng))
            fan_in = int(w)

    @classmethod
    def from_layer_list(cls, input_dim, layers):
        net = object.__new__(cls)
        net.input_dim = int(input_dim)
        net.layers = list(layers)
        return net

    @property
    def widths(self):
        return [layer.out_dim for layer in self.layers]

    def forward(self, x):
        """Per-layer (z, a) pairs for one sample."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise DimensionError(
                f"network expects input of width {self.input_dim}, got {x.shape}"
            )
        out = []
        for layer in self.layers:
            z, a = layer.forward(x)
            out.append((z, a))
            x = a
        return out

    def forward_batch(self, X):
        """Per-layer (Xhat, Z, A) triples for a batch matrix."""
        X = np.asarray(X, dtype=np.float64)
        out = []
        for layer in self.layers:
            Xhat, Z, A = layer.forward_batch(X)
            out.append((Xhat, Z, A))
            X = A
        return out


@dataclass
class EpochMetrics:
    mean_loss: np.ndarray      # per layer
    mean_g_pos: np.ndarray     # per layer
    mean_g_neg: np.ndarray     # per layer
    thetas: np.ndarray         # per layer
    n_pos: int
    n_neg: int


def train_epoch(net, samples, strategy, epoch, batch_size, rng):
    """One pass over a mixed positive/negative sample stream.

    Every batch is forwarded once with the pre-update weights; each
    layer then computes its local gradients from its own stored input
    and theta(layer, epoch), and takes one Adam step. All layers update
    in the same pass.

    The layers update one after another on the calling thread. Running
    their Adam steps on a thread pool was measured on 2 cores and was no
    faster at 784->2000x4 and 10-15% slower on small nets, most likely
    because the GIL changes hands at every ufunc call and BLAS threads
    keep spinning after the gradient GEMMs.
    """
    if not samples:
        raise UsageError("train_epoch needs a non-empty sample list")
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")

    n = len(samples)
    order = list(range(n))
    rng.shuffle(order)

    depth = len(net.layers)
    thetas = np.array(
        [
            resolve_theta(strategy, i, net.layers[i].out_dim, epoch)
            for i in range(depth)
        ]
    )
    loss_sum = np.zeros(depth)
    g_pos_sum = np.zeros(depth)
    g_neg_sum = np.zeros(depth)
    n_pos = 0
    n_neg = 0

    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        X = np.stack([samples[i].features for i in idx])
        signs = np.array([float(samples[i].polarity) for i in idx])
        pos_mask = signs > 0
        n_pos += int(pos_mask.sum())
        n_neg += int((~pos_mask).sum())

        stages = net.forward_batch(X)
        for li, layer in enumerate(net.layers):
            Xhat, Z, A = stages[li]
            dW, db, losses, G = layer.grads_batch(Xhat, Z, A, signs, thetas[li])
            try:
                layer.apply_grads(dW, db, li)
            except DivergenceError as e:
                e.epoch = epoch
                raise
            loss_sum[li] += losses.sum()
            g_pos_sum[li] += G[pos_mask].sum()
            g_neg_sum[li] += G[~pos_mask].sum()

    return EpochMetrics(
        mean_loss=loss_sum / n,
        mean_g_pos=g_pos_sum / max(n_pos, 1),
        mean_g_neg=g_neg_sum / max(n_neg, 1),
        thetas=thetas,
        n_pos=n_pos,
        n_neg=n_neg,
    )
