"""Seeded input generators: MNIST-shaped IDX files and an aclImdb review tree.

Both draw from ``numpy.random.default_rng(seed)`` rather than the
program's own generator, so the benchmark's inputs do not move when the
program's code does. The same seed gives the same bytes.

Labels are learnable but not trivially so: images mix their class
template with a weaker template of another class, and reviews mix the
sentiment words of both classes.
"""

import gzip
import os
import struct

import numpy as np

SIDE = 28
PIXELS = SIDE * SIDE
CLASSES = 10
BLOBS = 4      # Gaussian blobs per class template
MIX = 0.8      # largest weight of the other class's template
NOISE = 0.25   # pixel noise, in units of full ink


def _templates(rng):
    """Ten 28x28 class templates, each a sum of Gaussian blobs, max 1."""
    rr, cc = np.mgrid[0:SIDE, 0:SIDE]
    out = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(BLOBS):
            r0, c0 = rng.uniform(5, 23, size=2)
            sr, sc = rng.uniform(1.2, 3.5, size=2)
            out[c] += np.exp(-((rr - r0) ** 2 / (2 * sr**2) + (cc - c0) ** 2 / (2 * sc**2)))
        out[c] /= out[c].max()
    out[:, 0, :] = 0.0  # the first row carries the label slots
    return out.reshape(CLASSES, PIXELS)


def mnist_arrays(seed, n_train, n_test):
    """(X_train, y_train, X_test, y_test) as uint8 images and uint8 labels.

    Each image is a*T[label] + b*T[other] + noise with a in [0.6, 1] and
    b in [0, MIX], so some images are ambiguous.
    """
    rng = np.random.default_rng(seed)
    T = _templates(rng)

    def draw(n):
        y = rng.integers(0, CLASSES, size=n)
        other = (y + rng.integers(1, CLASSES, size=n)) % CLASSES
        a = rng.uniform(0.6, 1.0, size=n)
        b = rng.uniform(0.0, MIX, size=n)
        X = a[:, None] * T[y] + b[:, None] * T[other]
        X += NOISE * rng.standard_normal((n, PIXELS))
        X[X < 0.2] = 0.0  # an ink-free background, as in MNIST
        return np.clip(np.rint(X * 255.0), 0, 255).astype(np.uint8), y.astype(np.uint8)

    X_tr, y_tr = draw(n_train)
    X_te, y_te = draw(n_test)
    return X_tr, y_tr, X_te, y_te


def write_idx_dir(root, seed, n_train, n_test):
    """The four standard MNIST files under ``root``; label files gzipped."""
    X_tr, y_tr, X_te, y_te = mnist_arrays(seed, n_train, n_test)
    os.makedirs(root, exist_ok=True)
    for prefix, X, y in (("train", X_tr, y_tr), ("t10k", X_te, y_te)):
        n = X.shape[0]
        with open(os.path.join(root, f"{prefix}-images-idx3-ubyte"), "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, n, SIDE, SIDE) + X.tobytes())
        with gzip.open(os.path.join(root, f"{prefix}-labels-idx1-ubyte.gz"), "wb") as f:
            f.write(struct.pack(">II", 0x00000801, n) + y.tobytes())


# ---------------------------------------------------------------------------
# reviews

# all in the program's stop list, so preprocessing has to drop them
_STOP = (
    "the a and of to is it this that was in for with but on as at be by "
    "have his her they an are from so very just there about i you he she"
).split()

# suffixes that exercise Porter steps 1-5 (plurals, -ed/-ing, -ational, ...)
_SUFFIXES = (
    "", "", "", "s", "ed", "ing", "er", "ers", "ly", "ness", "ful", "fully",
    "ation", "ational", "ive", "iveness", "ment", "ments", "ism", "able",
)

_POS_BASES = (
    "delight charm excit inspir enjoy amaz thrill wonder brillian superb "
    "captivat masterwork gorgeous uplift heartwarm stunn remark fascinat"
).split()
_NEG_BASES = (
    "dread tedi horribl disappoint bor annoy clumsi dull wast mess "
    "pointless lifeless awkward shallow irritat mediocr predictabl sloppi"
).split()

_ONSETS = "b c d f g h j k l m n p r s t v w br cl dr fl gr pl st tr".split()
_NUCLEI = "a e i o u ea ou ai".split()
_CODAS = "n r t l m s nd rt st ck".split()


def _forms(bases, rng, count):
    """``count`` distinct word forms, each a base plus a suffix."""
    out = []
    seen = set()
    while len(out) < count:
        w = bases[rng.integers(len(bases))] + _SUFFIXES[rng.integers(len(_SUFFIXES))]
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _neutral_vocab(rng, count):
    bases = []
    seen = set()
    while len(bases) < count // 2:
        w = "".join(
            p[rng.integers(len(p))] for p in (_ONSETS, _NUCLEI, _CODAS, _NUCLEI, _CODAS)
        )
        if w not in seen:
            seen.add(w)
            bases.append(w)
    return _forms(bases, rng, count)


def _zipf(n, s=1.07):
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


P_STOP = 0.35   # share of stop words
P_SENT = 0.12   # share of sentiment words
AGREE = 0.7     # share of sentiment words from the review's own class


class ReviewWriter:
    """Reviews with HTML tags, stop words, suffixed words, Zipf frequencies.

    Each token is a stop word with probability P_STOP, a sentiment word
    with probability P_SENT (from the review's own class with probability
    AGREE, else from the other class), and otherwise one of 1500 neutral
    words. Every pool is drawn Zipf-like.
    """

    def __init__(self, rng):
        self.rng = rng
        self.neutral = _neutral_vocab(rng, 1500)
        self.sent = (_forms(_NEG_BASES, rng, 60), _forms(_POS_BASES, rng, 60))
        self.w_neutral = _zipf(len(self.neutral))
        self.w_sent = _zipf(60)
        self.w_stop = _zipf(len(_STOP))

    def review(self, label, length):
        rng = self.rng
        kind = rng.uniform(size=length)
        agree = rng.uniform(size=length) < AGREE
        stop = rng.choice(len(_STOP), size=length, p=self.w_stop)
        sent = rng.choice(len(self.w_sent), size=length, p=self.w_sent)
        neutral = rng.choice(len(self.neutral), size=length, p=self.w_neutral)
        italic, stop_mark = rng.uniform(size=(2, length))
        out = []
        for i in range(length):
            if kind[i] < P_STOP:
                w = _STOP[stop[i]]
            elif kind[i] < P_STOP + P_SENT:
                w = self.sent[label if agree[i] else 1 - label][sent[i]]
            else:
                w = self.neutral[neutral[i]]
            if i % 11 == 0:
                w = w.capitalize()
            if italic[i] < 0.03:
                w = f"<i>{w}</i>"
            out.append(w)
            if i % 11 == 10:
                out.append("." if stop_mark[i] < 0.7 else "!<br /><br />")
        return " ".join(out).replace(" .", ".").replace(" !", "!")


def write_imdb_tree(root, seed, n_train, n_test, length):
    """``root/{train,test}/{pos,neg}/<i>_<rating>.txt``, balanced classes.

    Review lengths are uniform in [length/2, 3*length/2] words.
    """
    rng = np.random.default_rng(seed)
    writer = ReviewWriter(rng)
    for split, n in (("train", n_train), ("test", n_test)):
        for name, label in (("neg", 0), ("pos", 1)):
            d = os.path.join(root, split, name)
            os.makedirs(d, exist_ok=True)
            for i in range(n // 2):
                n_tok = int(rng.integers(length // 2, length * 3 // 2 + 1))
                rating = int(rng.integers(7, 11) if label else rng.integers(1, 5))
                with open(os.path.join(d, f"{i}_{rating}.txt"), "w", encoding="utf-8") as f:
                    f.write(writer.review(label, n_tok))
