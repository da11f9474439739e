"""The skip-gram negative-sampling (SGNS) epoch kernel.

The trainer walks every (center, context) pair of the corpus doing
d-length dot products and rank-1 updates, a python-bound loop. The
algorithm is sequential per pair: every target of a pair is scored
against the center's pre-pair row, each target's row is updated before
the next copy of it is read, and the center's row is updated last.
:func:`sgns_epoch` prepares a block of reviews at a time: it lists the
block's pairs, draws all their negatives in bulk from the splitmix64
stream and computes their masks and learning rates at once. It then
scores each pair's distinct targets with one gather and one matvec into
reused scratch; a pair whose targets repeat falls back to the per-draw
loop. ``tests/oracles.py`` keeps the per-draw and per-sentence forms it
must match.

``benchmarks/bench_kernels.py`` times the kernel.
"""

import numpy as np

from .errors import UsageError
from .rng import Rng

# the kernel prepares reviews in blocks of at least this many pairs
_BLOCK_PAIRS = 4096


def pairs_per_sentence(offsets, window):
    """Number of (center, context) pairs each sentence yields.

    A sentence of L tokens pairs each position with every other one at
    most ``window`` away. With m = min(window, L - 1) that is
    2 * sum_{k=1..m} (L - k) = m * (2L - m - 1) pairs.
    """
    L = np.diff(offsets)
    m = np.maximum(np.minimum(window, L - 1), 0)
    return m * (2 * L - m - 1)


def _review_blocks(offsets, window):
    """[first, stop) ranges of consecutive reviews, in corpus order.

    A block takes reviews until it holds at least ``_BLOCK_PAIRS`` pairs,
    so one review with more pairs is a block of its own. The pair counts
    are looked up ``_BLOCK_PAIRS`` reviews ahead at a time; a look-ahead
    that falls short (0- and 1-token reviews hold no pairs) is a block of
    its own too. Yields (first, stop, pair count of each review).
    """
    n = offsets.shape[0] - 1
    first = 0
    while first < n:
        counts = pairs_per_sentence(offsets[first : first + _BLOCK_PAIRS + 1], window)
        held = np.cumsum(counts)
        stop = min(int(np.searchsorted(held, _BLOCK_PAIRS)) + 1, counts.shape[0])
        yield first, first + stop, counts[:stop]
        first += stop


def _block_pairs(offsets, first, stop, window):
    """(center, context) token positions of reviews [first, stop), in visit
    order: by review, by center, then by context position.

    Every position is paired with the 2 * window offsets around it, and
    the pairs that leave the position's review are masked out.
    """
    bounds = offsets[first : stop + 1]
    lengths = np.diff(bounds)
    # no step reaches past the block's longest review
    w = min(window, int(lengths.max(initial=0)) - 1)
    steps = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    pos = np.arange(bounds[0], bounds[-1])
    ctx = pos[:, None] + steps
    inside = (ctx >= np.repeat(bounds[:-1], lengths)[:, None]) & (
        ctx < np.repeat(bounds[1:], lengths)[:, None]
    )
    return pos[np.nonzero(inside)[0]], ctx[inside]


def negative_targets(rng, cdf, n):
    """The next n noise words: ``rng``'s draws mapped through ``cdf``.

    splitmix64 is counter-based, so these are the same ids as n scalar
    draws, each mapped with ``searchsorted(cdf, draw, side="right")``.
    """
    return np.searchsorted(cdf, rng.uniform_array(n), side="right")


def sgns_epoch(tokens, offsets, win, wout, cdf, window, neg_k,
               lr0, lr_min, pairs_done, total_pairs, state):
    """One pass over the encoded corpus; updates win/wout in place.

    Returns (rng state, pairs processed so far, summed pair loss). A
    negative ``neg_k`` raises :class:`UsageError`.

    Per block of reviews (see :func:`_review_blocks`), the pairs are
    listed, every negative is drawn and every pair's learning rate is
    computed at once. Per pair, the targets are the context word then the
    negatives that differ from it. When they are distinct, one gather and
    one matvec score them all against the center's pre-pair row, as the
    sequential loop does; a pair whose targets repeat runs one target at
    a time, so a second copy sees the first copy's update. The loss is
    summed per review, in pair order.
    """
    if neg_k < 0:
        raise UsageError(f"neg_k must be >= 0, got {neg_k}")
    rng = Rng(state)
    width = 1 + neg_k
    dim = win.shape[1]
    # loss of slot q is softplus(sign[q] * u): slot 0 is the context word
    sign = np.ones(width)
    sign[0] = -1.0
    # per kept-target count k: the target labels (1 for the context word,
    # 0 after it) and views of the reusable scratch
    labels = [np.eye(1, k).ravel() for k in range(width + 1)]
    g_buf = np.empty(width)
    rows_buf = np.empty((width, dim))
    rank1_buf = np.empty((width, dim))
    g_of = [g_buf[:k] for k in range(width + 1)]
    g_col = [g_buf[:k, None] for k in range(width + 1)]
    rows_of = [rows_buf[:k] for k in range(width + 1)]
    rank1_of = [rank1_buf[:k] for k in range(width + 1)]
    grad_c = np.empty(dim)
    # the per-pair calls, bound once: the loop runs them ~10 times a pair
    take, exp, multiply = wout.take, np.exp, np.multiply
    maximum, minimum, negative, divide, subtract = (
        np.maximum, np.minimum, np.negative, np.divide, np.subtract
    )
    loss_sum = 0.0
    for first, stop, counts in _review_blocks(offsets, window):
        pos_c, pos_o = _block_pairs(offsets, first, stop, window)
        n_pairs = pos_c.shape[0]
        if n_pairs == 0:
            continue
        targets = np.empty((n_pairs, width), dtype=np.int64)
        targets[:, 0] = tokens[pos_o]
        targets[:, 1:] = negative_targets(rng, cdf, n_pairs * neg_k).reshape(n_pairs, neg_k)
        # a draw that hits the context word is skipped
        kept = targets != targets[:, :1]
        kept[:, 0] = True
        # skipped slots get distinct ids below 0, so they never count as repeats
        marked = np.sort(np.where(kept, targets, -1 - np.arange(width)), axis=1)
        repeats = (marked[:, 1:] == marked[:, :-1]).any(axis=1)
        lrs = np.maximum(
            lr0 * (1.0 - (pairs_done + np.arange(n_pairs)) / total_pairs), lr_min
        )
        pairs_done += n_pairs
        # clipped dot products; an unused slot stays -inf and adds no loss
        u_kept = np.full((n_pairs, width), -np.inf)
        per_pair = zip(
            tokens[pos_c].tolist(), lrs.tolist(), kept.all(axis=1).tolist(), repeats.tolist()
        )
        for p, (c, lr, all_kept, repeat) in enumerate(per_pair):
            idx = targets[p] if all_kept else targets[p][kept[p]]
            wc = win[c]
            if repeat:
                grad_c.fill(0.0)
                for q, t in enumerate(idx.tolist()):
                    wt = wout[t]
                    uc = max(min(float(wc @ wt), 40.0), -40.0)
                    g = ((1.0 if q == 0 else 0.0) - 1.0 / (1.0 + float(exp(-uc)))) * lr
                    u_kept[p, q] = uc
                    grad_c += g * wt
                    wt += g * wc
            else:
                k = idx.shape[0]
                # the ids are valid, so "clip" only spares the buffered
                # copy that the default "raise" makes of an ``out`` array
                rows = take(idx, 0, rows_of[k], "clip")
                u = u_kept[p, :k]
                rows.dot(wc, u)
                minimum(maximum(u, -40.0, out=u), 40.0, out=u)
                # g = (label - 1 / (1 + exp(-u))) * lr, in place
                g = g_of[k]
                exp(negative(u, out=g), out=g)
                g += 1.0
                subtract(labels[k], divide(1.0, g, out=g), out=g)
                g *= lr
                g.dot(rows, grad_c)
                rows += multiply(g_col[k], wc, out=rank1_of[k])
                wout[idx] = rows
            wc += grad_c
        loss = np.log1p(np.exp(sign * u_kept))
        for end, n in zip(np.cumsum(counts).tolist(), counts.tolist()):
            if n:
                loss_sum += float(loss[end - n : end].sum())
    return rng.state, pairs_done, loss_sum
