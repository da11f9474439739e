"""IMDb review pipeline: preprocessing, skip-gram-with-negative-sampling
embeddings, review vectorization, and the sentiment label layout: two
label slots appended after the review features.

The embedding model deliberately stays a single-hidden-layer model with
no nonlinearity between the two tables — no gradient ever crosses a
layer boundary here either, which is what makes it an admissible
feature extractor for the local-learning network downstream.
"""

import functools
import hashlib
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, UsageError
from .ffnet import LabelSlots
from .kernels import pairs_per_sentence, sgns_epoch
from .numerics import require_finite
from .porter import stem

# Fixed ~150-word stop list, committed for reproducibility. Negations
# (not/no/nor/never) are deliberately kept out: this feeds a sentiment
# task. Single letters and contraction fragments cover "don't" -> don, t.
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by can cannot could did do does
doing down during each few for from further had has have having he her
here hers herself him himself his how i if in into is it its itself just
me more most my myself now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with would you your yours yourself yourselves
s t d ll m re ve
aren couldn didn doesn don hadn hasn haven isn mightn mustn needn shan
shouldn wasn weren won wouldn
""".split())

_TAG_RE = re.compile(r"<[^>]*>")
_SPLIT_RE = re.compile(r"[^a-z0-9]+")


@functools.lru_cache(maxsize=1 << 18)
def stem_fixpoint(token):
    """Iterate the stemmer until the token stops changing.

    Single-pass suffix stripping is not idempotent (agreed -> agre ->
    agr); the pipeline must be a fixpoint of itself, so it stems to
    convergence. Terminates: each pass shortens the token or leaves it.
    Memoized: a corpus repeats its words, and both splits share the
    cache. The bound holds a full-IMDb vocabulary with room to spare.
    """
    s = stem(token)
    while s != token:
        token, s = s, stem(s)
    return s


def preprocess(raw_review):
    """Raw review text to a stemmed token list.

    Tags out, lowercase, split on non-alphanumerics, stop words out,
    stem to fixpoint, and drop any token whose stem landed in the stop
    list (keeps the whole pipeline a fixpoint of itself).
    """
    text = _TAG_RE.sub(" ", raw_review).lower()
    tokens = [t for t in _SPLIT_RE.split(text) if t and t not in STOPWORDS]
    stemmed = [stem_fixpoint(t) for t in tokens]
    return [t for t in stemmed if t not in STOPWORDS]


@dataclass
class Vocab:
    """Dense token universe: index 0..V-1 ordered by count desc, then token."""

    tokens: list
    index: dict
    counts: np.ndarray

    def __len__(self):
        return len(self.tokens)


def build_vocab(corpus, min_count=5):
    """Count tokens across the corpus and keep those seen >= min_count times."""
    counts = {}
    for tokens in corpus:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocab(
        tokens=kept,
        index={t: i for i, t in enumerate(kept)},
        counts=np.array([counts[t] for t in kept], dtype=np.float64),
    )


def encode_corpus(corpus, vocab):
    """Token id sequences with OOV dropped, as a flat array plus offsets."""
    flat = []
    offsets = [0]
    for tokens in corpus:
        ids = [vocab.index[t] for t in tokens if t in vocab.index]
        flat.extend(ids)
        offsets.append(len(flat))
    return np.array(flat, dtype=np.int32), np.array(offsets, dtype=np.int64)


def noise_cdf(counts):
    """Cumulative unigram^0.75 noise distribution; last entry exactly 1."""
    p = counts ** 0.75
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    return cdf


def count_pairs(offsets, window):
    """Number of (center, context) pairs one epoch will visit."""
    return int(pairs_per_sentence(offsets, window).sum())


def init_embeddings(vocab_size, dim, rng):
    """word2vec-style init: inputs uniform (-0.5, 0.5)/dim, outputs zero."""
    win = (rng.uniform_array(vocab_size * dim).reshape(vocab_size, dim) - 0.5) / dim
    wout = np.zeros((vocab_size, dim), dtype=np.float64)
    return win, wout


@np.errstate(over="ignore", invalid="ignore")
def train_sgns(corpus, vocab, *, rng, dim=100, window=5, neg_k=5, epochs=5, lr=0.025):
    """Train the embedding table on tokenized reviews. Returns (V, dim).

    Sequential per-pair updates in corpus order; learning rate decays
    linearly per pair from lr to lr*1e-4 across all epochs. Negative
    targets come from the unigram^0.75 distribution; a draw that hits
    the context word is skipped (the draw still advances the stream).

    Raises :class:`DivergenceError` naming the first epoch after which
    either table left the finite range (overflow warnings are silenced).
    """
    if not corpus or len(vocab) == 0:
        raise UsageError("train_sgns needs a non-empty corpus and vocabulary")
    tokens, offsets = encode_corpus(corpus, vocab)
    win, wout = init_embeddings(len(vocab), dim, rng)
    if epochs == 0:
        return win
    cdf = noise_cdf(vocab.counts)
    per_epoch = count_pairs(offsets, window)
    if per_epoch == 0:
        return win
    total_pairs = per_epoch * epochs
    state = rng.next_u64()  # decorrelated in-kernel draw stream
    done = 0
    for epoch in range(epochs):
        state, done = sgns_epoch(
            tokens, offsets, win, wout, cdf, window, neg_k,
            lr, lr * 1e-4, done, total_pairs, state,
        )
        require_finite("SGNS embeddings left the finite range", win, wout, epoch=epoch)
    return win


def vectorize_review(tokens, vocab, table):
    """Mean of the embedding rows of in-vocab tokens; zeros if none."""
    rows = [vocab.index[t] for t in tokens if t in vocab.index]
    if not rows:
        return np.zeros(table.shape[1], dtype=np.float64)
    return table[rows].mean(axis=0)


NUM_SENTIMENTS = 2


def label_slots(dim):
    """The two sentiment slots, appended after ``dim`` review features."""
    return LabelSlots(NUM_SENTIMENTS, start=dim, overwrite=False)


# ---------------------------------------------------------------------------
# embedding cache: plain text "V d" header then one "token v1 .. vd" per line


def corpus_fingerprint(corpus, params):
    """sha256 over the token stream and the training hyperparameters."""
    h = hashlib.sha256()
    for tokens in corpus:
        h.update(" ".join(tokens).encode("utf-8"))
        h.update(b"\n")
    h.update(json.dumps(params, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def save_embeddings(path, vocab, table, fingerprint=None):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{table.shape[0]} {table.shape[1]}\n")
        for i, tok in enumerate(vocab.tokens):
            f.write(tok + " " + " ".join(repr(float(v)) for v in table[i]) + "\n")
    if fingerprint is not None:
        with open(path + ".meta.json", "w", encoding="utf-8") as f:
            json.dump({"fingerprint": fingerprint}, f)


def load_embeddings(path):
    """Returns (tokens, table) from the text format.

    A malformed file raises :class:`FormatError` naming the path and the
    line: a header that is not two non-negative integers, a file that
    ends before its V rows, a row without exactly a token and d values,
    a value that is not a finite number, a line that is not UTF-8, or an
    empty table too wide to hold.
    """

    def malformed(line_no, what):
        return FormatError(f"embedding cache {path!r}, line {line_no}: {what}")

    with open(path, "rb") as f:

        def read_line(line_no):
            try:
                return f.readline().decode("utf-8")
            except UnicodeDecodeError as e:
                raise malformed(line_no, f"not UTF-8 ({e.reason})") from None

        header = read_line(1).split()
        try:
            v, d = (int(x) for x in header)
        except ValueError:
            v = d = -1
        if v < 0 or d < 0:
            raise malformed(1, f"expected a 'V d' header, got {' '.join(header)!r}")
        tokens, rows = [], []
        for i in range(v):
            line = read_line(i + 2)
            if not line:
                raise malformed(i + 2, f"file ends after {i} of {v} rows")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise malformed(
                    i + 2, f"expected a token and {d} values, got {len(parts)} fields"
                )
            try:
                rows.append([float(x) for x in parts[1:]])
            except ValueError as e:
                raise malformed(i + 2, str(e)) from None
            tokens.append(parts[0])
    # built from the rows read, so a header's V allocates nothing up front;
    # only a V of 0 leaves d unchecked by the rows, and numpy refuses a huge one
    try:
        table = np.array(rows, dtype=np.float64).reshape(v, d)
    except ValueError:
        raise malformed(1, f"a table of width {d} is too large") from None
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise malformed(int(bad[0]) + 2, "non-finite value")
    return tokens, table


def load_cached_embeddings(path, fingerprint):
    """(tokens, table) if the sidecar fingerprint matches, else None.

    A sidecar that is not a JSON object raises :class:`FormatError`.
    """
    meta_path = path + ".meta.json"
    if not (os.path.exists(path) and os.path.exists(meta_path)):
        return None
    with open(meta_path, "rb") as f:
        raw = f.read()
    try:
        meta = json.loads(raw)
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"embedding cache sidecar {meta_path!r}: {e}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"embedding cache sidecar {meta_path!r}: not a JSON object")
    if meta.get("fingerprint") != fingerprint:
        return None
    return load_embeddings(path)


# ---------------------------------------------------------------------------
# aclImdb directory layout: {train,test}/{pos,neg}/*.txt


def load_imdb_split(root, split, limit=0):
    """Sorted deterministic read of one split. Returns (texts, labels 0/1).

    A ``limit`` > 0 reads the first ``(limit + 1) // 2`` negative and
    ``limit // 2`` positive reviews, so exactly ``limit`` when there are
    that many; 0 reads all.
    """
    texts, labels = [], []
    for label_name, label in (("neg", 0), ("pos", 1)):
        d = os.path.join(root, split, label_name)
        if not os.path.isdir(d):
            raise DataError(f"missing IMDb directory {d!r}")
        names = sorted(name for name in os.listdir(d) if name.endswith(".txt"))
        if limit:
            names = names[: (limit + 1 - label) // 2]
        for name in names:
            path = os.path.join(d, name)
            try:
                with open(path, "r", encoding="utf-8") as f:
                    texts.append(f.read())
            except UnicodeDecodeError as e:
                raise DataError(f"review {path!r} is not UTF-8 ({e.reason})") from None
            labels.append(label)
    if not texts:
        raise DataError(f"no review files under {root!r}/{split}")
    return texts, np.array(labels, dtype=np.int64)
