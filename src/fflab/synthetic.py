"""Built-in synthetic classification task: Gaussian class blobs.

The fast CI target: per-class Gaussian blobs in a low-dimensional
feature space, with label slots prepended to the feature vector the
same way image pixels carry the label elsewhere.
"""

import numpy as np

from .errors import UsageError
from .ffnet import LabelSlots


def make_blobs(num_classes, dim, n_per_class, separation, rng):
    """(X, y): rows drawn as class_mean + unit-variance Gaussian noise.

    Class means are themselves drawn uniformly in
    [-separation, separation]^dim from the given stream.
    """
    if num_classes < 2:
        raise UsageError("need at least two classes")
    means = (rng.uniform_array(num_classes * dim).reshape(num_classes, dim) * 2 - 1) * separation
    X = np.empty((num_classes * n_per_class, dim))
    y = np.empty(num_classes * n_per_class, dtype=np.int64)
    noise = rng.normal_array(num_classes * n_per_class * dim).reshape(-1, dim)
    for c in range(num_classes):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        X[sl] = means[c] + noise[sl]
        y[sl] = c
    return X, y


def label_slots(num_classes):
    """One-hot label slots prepended to the raw features."""
    return LabelSlots(num_classes, start=0, overwrite=False)
