#!/usr/bin/env python3
"""Benchmark the @njit kernels against their pure-numpy twins.

Run:  python benchmarks/bench_kernels.py [--pairs N]

The skip-gram trainer is the python-bound hot loop and is where the JIT
pays off; the corpus is cut so one SGNS epoch visits about N pairs, and
the real count is printed. The layer-training path is BLAS-bound numpy
and is timed here for context only (a hand-rolled kernel would not beat
BLAS there): one epoch at a desk shape, and eight batch steps at the
full recipe shape, 784 -> 2000x4 with batch 128.
"""

import argparse
import time

import numpy as np

from fflab.backend import HAVE_NUMBA
from fflab.ffnet import FFNetwork, Sample, train_epoch
from fflab.kernels import sgns_epoch_with_backend
from fflab.rng import Rng
from fflab.synthetic import build_blob_stream, make_blobs
from fflab.text_data import (
    build_vocab,
    count_pairs,
    encode_corpus,
    init_embeddings,
    noise_cdf,
)
from fflab.thresholds import ConstantK


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


DOC_LEN = 60
WINDOW = 5
FULL_STEPS = 8


def bench_sgns(target_pairs):
    pairs_per_doc = count_pairs(np.array([0, DOC_LEN]), WINDOW)
    corpus = synth_corpus(max(1, round(target_pairs / pairs_per_doc)), DOC_LEN, 2000)
    vocab = build_vocab(corpus, min_count=1)
    tokens, offsets = encode_corpus(corpus, vocab)
    cdf = noise_cdf(vocab.counts)
    per_epoch = count_pairs(offsets, WINDOW)
    print(f"corpus: {len(corpus)} docs, {tokens.shape[0]} tokens, vocab {len(vocab)}, "
          f"{per_epoch} pairs/epoch (asked for {target_pairs}), dim 100, 5 negatives")

    results = {}
    for label, use_numba in (("numba @njit", True), ("numpy twin", False)):
        if use_numba and not HAVE_NUMBA:
            print(f"{label:12s}  unavailable (numba not installed)")
            continue
        win, wout = init_embeddings(len(vocab), 100, Rng(7))
        if use_numba:  # compile outside the timed region
            sgns_epoch_with_backend(
                True, tokens[: offsets[1]], offsets[:2].copy(), win, wout, cdf,
                WINDOW, 5, 0.025, 2.5e-6, 0, per_epoch, 3,
            )
            win, wout = init_embeddings(len(vocab), 100, Rng(7))
        t0 = time.perf_counter()
        _, done, _ = sgns_epoch_with_backend(
            use_numba, tokens, offsets, win, wout, cdf,
            WINDOW, 5, 0.025, 2.5e-6, 0, per_epoch, 3,
        )
        dt = time.perf_counter() - t0
        rate = done / dt
        results[label] = rate
        print(f"{label:12s}  {done:>9d} pairs in {dt:7.2f}s   {rate:>12,.0f} pairs/s")
    if len(results) == 2:
        print(f"speedup: {results['numba @njit'] / results['numpy twin']:.1f}x")


def bench_ff_epoch():
    rng = Rng(11)
    X, y = make_blobs(10, 20, 500, 2.0, rng)
    net = FFNetwork(30, [500, 500], "relu", 0.01, Rng(12))
    stream = build_blob_stream(X, y, 10, Rng(13))
    t0 = time.perf_counter()
    train_epoch(net, stream, ConstantK(0.5), 0, 128, Rng(14))
    dt = time.perf_counter() - t0
    print(f"\nlayer-training epoch ({len(stream)} samples, arch [500, 500], "
          f"numpy/BLAS): {dt:.2f}s  ({len(stream) / dt:,.0f} samples/s)")

    # full recipe: one warm-up step, then FULL_STEPS timed steps
    batch = 128
    rng = Rng(15)
    samples = [
        Sample(rng.uniform_array(784), 1 if i % 2 == 0 else -1, 0)
        for i in range(batch * FULL_STEPS)
    ]
    net = FFNetwork(784, [2000] * 4, "relu", 0.01, Rng(16))
    train_epoch(net, samples[:batch], ConstantK(0.005), 0, batch, Rng(17))
    t0 = time.perf_counter()
    train_epoch(net, samples, ConstantK(0.005), 0, batch, Rng(18))
    dt = time.perf_counter() - t0
    print(f"full-recipe steps (784 -> 2000x4, batch {batch}, {FULL_STEPS} steps): "
          f"{dt / FULL_STEPS * 1e3:.0f} ms/step")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--pairs", type=int, default=300_000,
                        help="about this many pair updates per backend (one SGNS epoch)")
    args = parser.parse_args()
    bench_sgns(args.pairs)
    bench_ff_epoch()
