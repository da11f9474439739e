"""MNIST IDX parsing and the MNIST label layout.

Labels are embedded straight into the image (:data:`LABEL_SLOTS`): the
first ten pixels (part of the black border) become a one-hot slot row —
pixel ``label`` is set to 1.0 and the other nine to 0.0. Positive
samples carry the true label, negative samples a uniformly random wrong
one, regenerated fresh every epoch.
"""

import gzip
import os
import struct
import zlib

import numpy as np

from .errors import DataError, FormatError
from .ffnet import LabelSlots

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
NUM_CLASSES = 10
IMAGE_SIZE = 784
LABEL_SLOTS = LabelSlots(NUM_CLASSES, start=0, overwrite=True)


def _maybe_gunzip(data):
    if data[:2] != b"\x1f\x8b":
        return data
    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as e:
        raise FormatError(f"corrupt gzip data: {e}") from None


def _image_bytes(data):
    """(n, 784) uint8 pixels of a whole IDX image file, header and
    payload length checked."""
    data = _maybe_gunzip(data)
    if len(data) < 16:
        raise FormatError("image file shorter than its 16-byte header", offset=len(data))
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    if rows != 28 or cols != 28:
        raise FormatError(f"expected 28x28 images, got {rows}x{cols}", offset=8)
    expected = count * rows * cols
    if len(data) - 16 != expected:
        raise FormatError(
            f"payload holds {len(data) - 16} bytes, expected {expected}",
            offset=16 + min(len(data) - 16, expected),
        )
    return np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, IMAGE_SIZE)


def _label_bytes(data):
    """(n,) uint8 labels of a whole IDX label file, header, payload
    length and every label checked; the first bad label is located."""
    data = _maybe_gunzip(data)
    if len(data) < 8:
        raise FormatError("label file shorter than its 8-byte header", offset=len(data))
    magic, count = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}", offset=0)
    if len(data) - 8 != count:
        raise FormatError(
            f"payload holds {len(data) - 8} labels, expected {count}",
            offset=8 + min(len(data) - 8, count),
        )
    labels = np.frombuffer(data, dtype=np.uint8, offset=8)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise FormatError(f"label {labels[bad[0]]} out of range 0-9", offset=8 + int(bad[0]))
    return labels


def _pixels(images):
    return images.astype(np.float64) / 255.0


def parse_idx_images(data):
    """(n, 784) float64 matrix scaled to [0, 1] from raw IDX bytes."""
    return _pixels(_image_bytes(data))


def parse_idx_labels(data):
    """(n,) int64 label vector from raw IDX bytes."""
    return _label_bytes(data).astype(np.int64)


_CANDIDATE_NAMES = {
    "train_images": ["train-images-idx3-ubyte", "train-images.idx3-ubyte"],
    "train_labels": ["train-labels-idx1-ubyte", "train-labels.idx1-ubyte"],
    "test_images": ["t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"],
    "test_labels": ["t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"],
}


def _find_file(directory, names):
    for name in names:
        for candidate in (name, name + ".gz"):
            path = os.path.join(directory, candidate)
            if os.path.exists(path):
                return path
    raise DataError(
        f"none of {names} (optionally .gz) found under {directory!r}"
    )


def load_mnist(directory, train_limit=0, test_limit=0):
    """(X_train, y_train, X_test, y_test) from the standard four files.

    Every file is checked whole, but only the first ``train_limit`` and
    ``test_limit`` rows of each split are converted (all of them when the
    limit is 0 or at least the split's size). A split of zero images is
    a :class:`DataError` that names its image file.
    """
    raw = []
    for key, check in (
        ("train_images", _image_bytes),
        ("train_labels", _label_bytes),
        ("test_images", _image_bytes),
        ("test_labels", _label_bytes),
    ):
        path = _find_file(directory, _CANDIDATE_NAMES[key])
        with open(path, "rb") as f:
            data = f.read()
        try:
            raw.append(check(data))
        except FormatError as e:
            located = FormatError(f"{path}: {e}")
            located.offset = e.offset
            raise located from None
        if check is _image_bytes and not len(raw[-1]):
            raise DataError(f"{path}: holds no images")
    x_tr, y_tr, x_te, y_te = raw
    if x_tr.shape[0] != y_tr.shape[0] or x_te.shape[0] != y_te.shape[0]:
        raise DataError(
            f"image/label counts disagree: train {x_tr.shape[0]}/{y_tr.shape[0]}, "
            f"test {x_te.shape[0]}/{y_te.shape[0]}"
        )
    tr, te = slice(train_limit or None), slice(test_limit or None)
    return (
        _pixels(x_tr[tr]), y_tr[tr].astype(np.int64),
        _pixels(x_te[te]), y_te[te].astype(np.int64),
    )
