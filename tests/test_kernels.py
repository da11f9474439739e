"""The SGNS kernel against its per-draw and per-sentence oracles."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fflab import kernels
from fflab.errors import UsageError
from fflab.kernels import negative_targets, pairs_per_sentence, sgns_epoch
from fflab.rng import Rng
from fflab.text_data import (
    build_vocab,
    count_pairs,
    encode_corpus,
    init_embeddings,
    noise_cdf,
)

from oracles import loop_sgns_epoch, sentence_sgns_epoch
from test_text_data import make_clique_corpus


def _setup(seed=5, dim=16):
    corpus, _ = make_clique_corpus(n_reviews=60)
    vocab = build_vocab(corpus, min_count=1)
    tokens, offsets = encode_corpus(corpus, vocab)
    cdf = noise_cdf(vocab.counts)
    rng = Rng(seed)
    win, wout = init_embeddings(len(vocab), dim, rng)
    total = count_pairs(offsets, 3) * 2
    return tokens, offsets, win, wout, cdf, total


def test_dispatcher_runs_and_updates_in_place():
    tokens, offsets, win, wout, cdf, total = _setup()
    before = win.copy()
    state, done = sgns_epoch(
        tokens, offsets, win, wout, cdf, 3, 5, 0.025, 2.5e-6, 0, total // 2, 99
    )
    assert done == total // 2
    assert not np.array_equal(win, before)


def test_epoch_is_deterministic():
    tokens, offsets, win1, wout1, cdf, total = _setup()
    _, _, win2, wout2, _, _ = _setup()
    r1 = sgns_epoch(tokens, offsets, win1, wout1, cdf, 3, 5, 0.025, 2.5e-6, 0, total, 7)
    r2 = sgns_epoch(tokens, offsets, win2, wout2, cdf, 3, 5, 0.025, 2.5e-6, 0, total, 7)
    assert r1 == r2
    np.testing.assert_array_equal(win1, win2)
    np.testing.assert_array_equal(wout1, wout2)


def test_bench_kernels_script_runs(capsys):
    """benchmarks/bench_kernels.py still runs against the package API."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.bench_sgns(2000)
    bench.bench_sweep(20)
    bench.bench_features(20)
    bench.bench_full_steps(width=16, steps=2)
    out = capsys.readouterr().out
    assert "sgns_epoch" in out and "pairs/s" in out
    assert "candidate rows/s" in out
    assert "head-feature rows/s" in out and "tracemalloc peak" in out
    assert "ms/step; tracemalloc peak" in out


def test_negative_neg_k_rejected():
    tokens, offsets, win, wout, cdf, total = _setup()
    with pytest.raises(UsageError, match="neg_k"):
        sgns_epoch(tokens, offsets, win, wout, cdf, 3, -1, 0.025, 2.5e-6, 0, total, 7)


def _brute_pairs(length, window):
    return sum(
        1 for i in range(length) for j in range(length) if i != j and abs(i - j) <= window
    )


@pytest.mark.parametrize("window", [0, 1, 2, 3, 7, 40])
def test_pairs_per_sentence_matches_enumeration(window):
    """Lengths 0 and 1 yield no pairs; a window past the sentence pairs
    every token with every other one."""
    lengths = [0, 1, 2, 3, 5, 8, 0, 1, 13, 30]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    counts = pairs_per_sentence(offsets, window)
    assert counts.tolist() == [_brute_pairs(n, window) for n in lengths]
    assert count_pairs(offsets, window) == sum(counts.tolist())


def test_bulk_negatives_equal_scalar_draws():
    """One sentence's bulk draws give the ids and the rng state of one
    scalar next_u64 + searchsorted draw at a time."""
    cdf = noise_cdf(np.array([9.0, 5.0, 5.0, 2.0, 1.0, 1.0]))
    bulk, scalar = Rng(31), Rng(31)
    ids = negative_targets(bulk, cdf, 37)
    expected = [
        int(np.searchsorted(cdf, (scalar.next_u64() >> 11) * 2.0 ** -53, side="right"))
        for _ in range(37)
    ]
    assert ids.tolist() == expected
    assert bulk.state == scalar.state


def _tiny_corpus(vocab_size, lengths, seed):
    rng = Rng(seed)
    tokens = np.array([int(rng.randint(vocab_size)) for _ in range(sum(lengths))],
                      dtype=np.int32)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    counts = np.bincount(tokens, minlength=vocab_size) + 1.0
    win = rng.uniform_array(vocab_size * 8).reshape(vocab_size, 8) - 0.5
    wout = rng.uniform_array(vocab_size * 8).reshape(vocab_size, 8) - 0.5
    return tokens, offsets, win, wout, noise_cdf(counts)


# Sentences of 0 and 1 tokens sit between the others. total_pairs is a
# third of the pairs, so most pairs train at the lr_min floor.
ORACLE_CASES = {
    # four words and five negatives: nearly every pair repeats a target
    "repeats": (4, 5, 2),
    # one negative never repeats: every pair takes the gather+matvec path
    "no-repeats": (30, 1, 3),
    # both paths interleaved in one epoch
    "mixed": (12, 5, 3),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_numpy_twin_matches_per_draw_oracle(case):
    vocab_size, neg_k, window = ORACLE_CASES[case]
    lengths = [6, 0, 1, 9, 1, 0, 14, 2, 5]
    tokens, offsets, win1, wout1, cdf = _tiny_corpus(vocab_size, lengths, seed=8)
    win2, wout2 = win1.copy(), wout1.copy()
    total = count_pairs(offsets, window) // 3
    args = (cdf, window, neg_k, 0.05, 1e-3, 4, total, 2024)

    s1, d1 = sgns_epoch(tokens, offsets, win1, wout1, *args)
    s2, d2 = loop_sgns_epoch(tokens, offsets, win2, wout2, *args)
    assert s1 == s2
    assert d1 == d2 == 4 + count_pairs(offsets, window)
    np.testing.assert_allclose(win1, win2, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(wout1, wout2, rtol=1e-10, atol=1e-13)


# Corpora the kernel must match the per-sentence oracle on, bit for bit:
# (vocab size, neg_k, window, review lengths).
BLOCK_CASES = {
    **{name: (*ORACLE_CASES[name], [6, 0, 1, 9, 1, 0, 14, 2, 5]) for name in ORACLE_CASES},
    # empty and one-token reviews open, close and split blocks, and a run
    # of them longer than a small block's look-ahead holds no pair at all
    "empty-edges": (12, 5, 2, [0, 1, 3, 1, 0, 4, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 2, 1, 3, 0]),
    # one review with more pairs than a block, even an unpatched one
    "long-review": (40, 3, 3, [5, 700, 0, 3]),
}


def _epochs(epoch, case, n_epochs):
    vocab_size, neg_k, window, lengths = BLOCK_CASES[case]
    tokens, offsets, win, wout, cdf = _tiny_corpus(vocab_size, lengths, seed=8)
    total = count_pairs(offsets, window) * n_epochs // 2
    state, done = 2024, 4
    for _ in range(n_epochs):
        state, done = epoch(
            tokens, offsets, win, wout, cdf, window, neg_k, 0.05, 1e-3, done, total, state
        )
    return win, wout, state, done


@pytest.mark.parametrize("block", [1, 7, 8, None])
@pytest.mark.parametrize("n_epochs", [1, 2])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_twin_matches_sentence_twin_bit_for_bit(monkeypatch, case, n_epochs, block):
    """Preparing per block of reviews changes no bit: the tables, the rng
    state and the pair count equal the per-sentence oracle's, whatever the
    block size; a second epoch carries pairs_done."""
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_PAIRS", block)
    win1, wout1, *rest1 = _epochs(sgns_epoch, case, n_epochs)
    win2, wout2, *rest2 = _epochs(sentence_sgns_epoch, case, n_epochs)
    assert np.array_equal(win1, win2)
    assert np.array_equal(wout1, wout2)
    assert rest1 == rest2


@pytest.mark.parametrize("window", [1, 2, 3, 7, 40])
def test_block_pairs_match_enumeration(window):
    """Every (center, context) position pair of a block, in visit order."""
    lengths = [0, 1, 2, 3, 5, 8, 0, 1, 13, 30]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    for first, stop in ((0, len(lengths)), (3, 9), (6, 8), (2, 3)):
        want = [
            (i, j)
            for s in range(first, stop)
            for i in range(offsets[s], offsets[s + 1])
            for j in range(offsets[s], offsets[s + 1])
            if i != j and abs(i - j) <= window
        ]
        centers, contexts = kernels._block_pairs(offsets, first, stop, window)
        assert list(zip(centers.tolist(), contexts.tolist())) == want


def test_review_blocks_cover_the_corpus_in_order(monkeypatch):
    """Blocks are consecutive; each but the last holds at least
    _BLOCK_PAIRS pairs unless its look-ahead ran out of pairs."""
    monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 8)
    lengths = [3, 0, 1, 4, 2, 9, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    blocks = list(kernels._review_blocks(offsets, 2))
    assert blocks[0][0] == 0 and blocks[-1][1] == len(lengths)
    for (_, stop), (first, _) in zip(blocks, blocks[1:]):
        assert stop == first
    for first, stop in blocks:
        counts = pairs_per_sentence(offsets[first : stop + 1], 2)
        held = int(counts.sum())
        assert held >= 8 or stop - first == 8 or stop == len(lengths)
        assert held - int(counts[-1]) < 8


def test_epoch_scratch_does_not_grow_with_corpus_length(monkeypatch):
    """At a fixed block size the transient memory of one epoch is the same
    for a corpus eight times as long."""
    monkeypatch.setattr(kernels, "_BLOCK_PAIRS", 64)

    def peak(n_reviews):
        lengths = [2 + i % 3 for i in range(n_reviews)]
        tokens, offsets, win, wout, cdf = _tiny_corpus(50, lengths, seed=3)
        total = count_pairs(offsets, 2)
        tracemalloc.start()
        sgns_epoch(tokens, offsets, win, wout, cdf, 2, 5, 0.05, 1e-3, 0, total, 9)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    short, long = peak(60), peak(480)
    assert long < 1.2 * short, (short, long)
