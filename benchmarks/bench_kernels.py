#!/usr/bin/env python3
"""Time the SGNS kernel, the layer-training path and the eval paths.

Run:  python benchmarks/bench_kernels.py [--pairs N]

The skip-gram trainer (``kernels.sgns_epoch``) is the python-bound hot
loop. It is timed on two corpora, each cut so one SGNS epoch visits
about N pairs (the real count is printed): 60-token documents at window
5, and 6-token reviews at window 2 shaped like the imdb-text benchmark,
capped at that benchmark's 47k pairs. The layer-training path is
BLAS-bound numpy and is timed here for context only (a hand-rolled
kernel would not beat BLAS there): one epoch at a desk shape, and eight
batch steps at the full recipe shape, 784 -> 2000x4 with batch 128,
with the tracemalloc peak of a two-step epoch there: one gradient and a
few batch matrices, since a step holds one layer's at a time.
Eval throughput is the label sweep's candidate rows scored per second,
ten labels on MNIST-shaped rows at 784 -> [500, 500]; the head's
features are timed at the same shape from raw rows and MNIST's label
slots, with the tracemalloc peak of one call (numpy reports its buffers
to tracemalloc), which should be F plus a few row-chunk-sized matrices.
"""

import argparse
import time
import tracemalloc

import numpy as np

from fflab.ffnet import FFNetwork, train_epoch
from fflab.inference import features_batch, sweep_scores_batch
from fflab.kernels import sgns_epoch
from fflab.mnist_data import LABEL_SLOTS
from fflab.numerics import CHUNK_ROWS
from fflab.rng import Rng
from fflab.synthetic import label_slots, make_blobs
from fflab.text_data import (
    build_vocab,
    count_pairs,
    encode_corpus,
    init_embeddings,
    noise_cdf,
)


def synth_corpus(n_docs, doc_len, vocab_size, seed=1):
    rng = Rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    # zipf-ish: draw two uniforms, keep the smaller index
    docs = []
    for _ in range(n_docs):
        doc = []
        for _ in range(doc_len):
            a = int(rng.randint(vocab_size))
            b = int(rng.randint(vocab_size))
            doc.append(words[min(a, b)])
        docs.append(doc)
    return docs


# (name, tokens per document, window, vocabulary, pair cap): long documents,
# where the per-pair work dominates, and short reviews shaped like the
# imdb-text benchmark's one SGNS epoch (about 47k pairs), where the
# kernel's per-review set-up shows as well
SGNS_CORPORA = (
    ("60-token docs", 60, 5, 2000, None),
    ("6-token reviews", 6, 2, 600, 47_000),
)
FULL_STEPS = 8


def bench_sgns(target_pairs):
    for name, doc_len, window, vocab_size, cap in SGNS_CORPORA:
        asked = target_pairs if cap is None else min(target_pairs, cap)
        _bench_sgns_corpus(name, asked, doc_len, window, vocab_size)


def _bench_sgns_corpus(name, target_pairs, doc_len, window, vocab_size):
    pairs_per_doc = count_pairs(np.array([0, doc_len]), window)
    corpus = synth_corpus(max(1, round(target_pairs / pairs_per_doc)), doc_len, vocab_size)
    vocab = build_vocab(corpus, min_count=1)
    tokens, offsets = encode_corpus(corpus, vocab)
    cdf = noise_cdf(vocab.counts)
    per_epoch = count_pairs(offsets, window)
    print(f"{name}: {len(corpus)} docs, {tokens.shape[0]} tokens, vocab {len(vocab)}, "
          f"window {window}, {per_epoch} pairs/epoch (asked for {target_pairs}), "
          f"dim 100, 5 negatives")

    win, wout = init_embeddings(len(vocab), 100, Rng(7))
    t0 = time.perf_counter()
    _, done, _ = sgns_epoch(
        tokens, offsets, win, wout, cdf, window, 5, 0.025, 2.5e-6, 0, per_epoch, 3
    )
    dt = time.perf_counter() - t0
    print(f"sgns_epoch  {done:>9d} pairs in {dt:7.2f}s   {done / dt:>12,.0f} pairs/s")


def bench_ff_epoch():
    rng = Rng(11)
    X, y = make_blobs(10, 20, 500, 2.0, rng)
    net = FFNetwork(30, [500, 500], "relu", 0.01, Rng(12))
    samples = 2 * X.shape[0]  # each row gives a positive and a negative
    t0 = time.perf_counter()
    train_epoch(net, X, y, label_slots(10), [0.5 * 500] * 2, 0, 128, Rng(14))
    dt = time.perf_counter() - t0
    print(f"\nlayer-training epoch ({samples} samples, arch [500, 500], "
          f"numpy/BLAS): {dt:.2f}s  ({samples / dt:,.0f} samples/s)")

    bench_full_steps()


def bench_full_steps(width=2000, steps=FULL_STEPS):
    """The full recipe, 784 -> width x4 at batch 128: one warm-up step,
    ``steps`` timed steps, then the tracemalloc peak of a two-step epoch,
    beside the largest gradient and one batch matrix of the widest layer."""
    batch = 128
    rows = batch * steps // 2  # each row gives a positive and a negative
    X = Rng(15).uniform_array(rows * 784).reshape(rows, 784)
    y = np.arange(rows) % 10
    net = FFNetwork(784, [width] * 4, "relu", 0.01, Rng(16))
    thetas = [0.005 * width] * 4
    half = batch // 2
    train_epoch(net, X[:half], y[:half], LABEL_SLOTS, thetas, 0, batch, Rng(17))
    t0 = time.perf_counter()
    train_epoch(net, X, y, LABEL_SLOTS, thetas, 0, batch, Rng(18))
    dt = time.perf_counter() - t0
    tracemalloc.start()
    train_epoch(net, X[:batch], y[:batch], LABEL_SLOTS, thetas, 0, batch, Rng(19))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    grad_mb = max(layer.W.nbytes for layer in net.layers) / 1e6
    print(f"full-recipe steps (784 -> {width}x4, batch {batch}, {steps} steps): "
          f"{dt / steps * 1e3:.0f} ms/step; tracemalloc peak {peak / 1e6:.1f} MB "
          f"(a gradient is {grad_mb:.1f} MB, a batch matrix {batch * width * 8 / 1e6:.1f} MB)")


def bench_sweep(rows):
    X = Rng(21).uniform_array(rows * 784).reshape(rows, 784)
    net = FFNetwork(784, [500, 500], "relu", 0.01, Rng(22))
    sweep_scores_batch(net, X[:1], 10, LABEL_SLOTS)  # warm-up
    t0 = time.perf_counter()
    sweep_scores_batch(net, X, 10, LABEL_SLOTS)
    dt = time.perf_counter() - t0
    print(f"label sweep (784 -> [500, 500], 10 labels, {rows} rows): {dt:.2f}s  "
          f"({rows * 10 / dt:,.0f} candidate rows/s)")


def bench_features(rows):
    """Raw MNIST-shaped rows, neutralized one chunk at a time inside."""
    X = Rng(23).uniform_array(rows * 784).reshape(rows, 784)
    net = FFNetwork(784, [500, 500], "relu", 0.01, Rng(24))
    features_batch(net, X[:1], LABEL_SLOTS, (1,))  # warm-up
    t0 = time.perf_counter()
    F_mb = features_batch(net, X, LABEL_SLOTS, (1,)).nbytes / 1e6
    dt = time.perf_counter() - t0
    tracemalloc.start()
    features_batch(net, X, LABEL_SLOTS, (1,))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    chunk_mb = min(rows, CHUNK_ROWS) * 784 * 8 / 1e6
    print(f"head features (784 -> [500, 500], layer 1, {rows} rows): {dt:.2f}s  "
          f"({rows / dt:,.0f} head-feature rows/s); tracemalloc peak {peak / 1e6:.1f} MB "
          f"(F is {F_mb:.1f} MB, a chunk of 784 columns {chunk_mb:.1f} MB)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--pairs", type=int, default=300_000,
                        help="about this many pair updates (one SGNS epoch)")
    args = parser.parse_args()
    bench_sgns(args.pairs)
    bench_ff_epoch()
    bench_sweep(10_000)
    bench_features(10_000)
