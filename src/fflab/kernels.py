"""Hot inner loops, in two interchangeable forms.

The skip-gram negative-sampling trainer walks tens of millions of
(center, context) pairs doing d-length dot products and rank-1 updates;
that loop is python-bound without JIT. ``sgns_epoch`` dispatches to an
``@njit`` kernel when the numba backend is active (see
:mod:`fflab.backend`) and to a numpy twin otherwise. Both consume the
identical splitmix64 draw stream and implement the identical per-pair
sequential algorithm: every target of a pair is scored against the
center's pre-pair row, each target's row is updated before the next
copy of it is read, and the center's row is updated last. The numba
kernel runs it one draw at a time. The numpy twin draws a sentence's
negatives in bulk and scores a pair's distinct targets with one gather
and one matvec; a pair whose targets repeat falls back to the per-draw
loop. So the twins differ only by float summation order.

``benchmarks/bench_kernels.py`` times the two paths side by side.
"""

import numpy as np

from .backend import NUMBA_ENABLED, jit_kernel
from .errors import UsageError
from .rng import (
    _GOLDEN_U64,
    _INV53,
    _MIX1_U64,
    _MIX2_U64,
    _U64_11,
    _U64_27,
    _U64_30,
    _U64_31,
    Rng,
)


def sgns_pair_grads(v_center, v_context, v_negatives):
    """Closed-form gradients of one pair's loss, for the gradient checks.

    loss = softplus(-u_pos) + sum_i softplus(u_neg_i) with u = v_center
    dot v_target. Returns (d_center, d_context, d_negatives, loss).
    """
    u_pos = float(v_center @ v_context)
    s_pos = 1.0 / (1.0 + np.exp(-max(min(u_pos, 40.0), -40.0)))
    d_center = (s_pos - 1.0) * v_context
    d_context = (s_pos - 1.0) * v_center
    loss = np.log1p(np.exp(-u_pos)) if u_pos > -30 else -u_pos
    d_negatives = np.zeros_like(v_negatives)
    for i in range(v_negatives.shape[0]):
        u = float(v_center @ v_negatives[i])
        s = 1.0 / (1.0 + np.exp(-max(min(u, 40.0), -40.0)))
        d_center = d_center + s * v_negatives[i]
        d_negatives[i] = s * v_center
        loss += np.log1p(np.exp(u)) if u < 30 else u
    return d_center, d_context, d_negatives, loss


def pairs_per_sentence(offsets, window):
    """Number of (center, context) pairs each sentence yields.

    A sentence of L tokens pairs each position with every other one at
    most ``window`` away. With m = min(window, L - 1) that is
    2 * sum_{k=1..m} (L - k) = m * (2L - m - 1) pairs.
    """
    L = np.diff(offsets)
    m = np.maximum(np.minimum(window, L - 1), 0)
    return m * (2 * L - m - 1)


def _sentence_pairs(n, window):
    """(center, context) positions of an n-token sentence, in visit order:
    by center, then by context position."""
    w = min(window, n - 1)
    steps = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    ctx = np.arange(n)[:, None] + steps
    inside = (ctx >= 0) & (ctx < n)
    return np.nonzero(inside)[0], ctx[inside]


def negative_targets(rng, cdf, n):
    """The next n noise words: ``rng``'s draws mapped through ``cdf``.

    splitmix64 is counter-based, so these are the same ids as n scalar
    draws, each mapped with ``searchsorted(cdf, draw, side="right")``.
    """
    return np.searchsorted(cdf, rng.uniform_array(n), side="right")


def _sgns_epoch_numpy(tokens, offsets, win, wout, cdf, window, neg_k,
                      lr0, lr_min, pairs_done, total_pairs, state):
    """Pure-numpy twin: same pair order, same rng stream, same updates.

    Per sentence, every negative is drawn in bulk and every pair's
    learning rate is computed at once. Per pair, the targets are the
    context word then the negatives that differ from it. When they are
    distinct, one gather and one matvec score them all against the
    center's pre-pair row, as the sequential loop does; a pair whose
    targets repeat runs one target at a time, so a second copy sees the
    first copy's update.
    """
    rng = Rng(state)
    width = 1 + neg_k
    # loss of slot q is softplus(sign[q] * u): slot 0 is the context word
    sign = np.ones(width)
    sign[0] = -1.0
    # target labels for m kept targets: 1 for the context word, 0 after it
    labels = [np.eye(1, m).ravel() for m in range(width + 1)]
    loss_sum = 0.0
    counts = pairs_per_sentence(offsets, window)
    for s in np.flatnonzero(counts):
        n_pairs = int(counts[s])
        sent = tokens[offsets[s] : offsets[s + 1]]
        pos_c, pos_o = _sentence_pairs(sent.shape[0], window)
        targets = np.empty((n_pairs, width), dtype=np.int64)
        targets[:, 0] = sent[pos_o]
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
            sent[pos_c].tolist(), lrs.tolist(), kept.all(axis=1).tolist(), repeats.tolist()
        )
        for p, (c, lr, all_kept, repeat) in enumerate(per_pair):
            idx = targets[p] if all_kept else targets[p][kept[p]]
            wc = win[c]
            if repeat:
                grad_c = np.zeros(wc.shape[0])
                for q, t in enumerate(idx.tolist()):
                    uc = max(min(float(wc @ wout[t]), 40.0), -40.0)
                    g = ((1.0 if q == 0 else 0.0) - 1.0 / (1.0 + np.exp(-uc))) * lr
                    u_kept[p, q] = uc
                    grad_c += g * wout[t]
                    wout[t] += g * wc
            else:
                rows = wout.take(idx, axis=0)
                u = rows.dot(wc)
                np.minimum(np.maximum(u, -40.0, out=u), 40.0, out=u)
                g = (labels[idx.shape[0]] - 1.0 / (1.0 + np.exp(-u))) * lr
                u_kept[p, : idx.shape[0]] = u
                grad_c = g.dot(rows)
                rows += g[:, None] * wc
                wout[idx] = rows
            wc += grad_c
        loss_sum += float(np.log1p(np.exp(sign * u_kept)).sum())
    return rng.state, pairs_done, loss_sum


def _sgns_epoch_jit_impl(tokens, offsets, win, wout, cdf, window, neg_k,
                         lr0, lr_min, pairs_done, total_pairs, state):
    d = win.shape[1]
    V = cdf.shape[0]
    loss_sum = 0.0
    grad_c = np.zeros(d)
    n_sent = offsets.shape[0] - 1
    for s in range(n_sent):
        lo = int(offsets[s])
        hi = int(offsets[s + 1])
        for i in range(lo, hi):
            c = int(tokens[i])
            j_lo = i - window
            if j_lo < lo:
                j_lo = lo
            j_hi = i + window
            if j_hi > hi - 1:
                j_hi = hi - 1
            for j in range(j_lo, j_hi + 1):
                if j == i:
                    continue
                o = int(tokens[j])
                lr = lr0 * (1.0 - pairs_done / total_pairs)
                if lr < lr_min:
                    lr = lr_min
                pairs_done += 1

                for k in range(d):
                    grad_c[k] = 0.0
                u = 0.0
                for k in range(d):
                    u += win[c, k] * wout[o, k]
                uc = min(max(u, -40.0), 40.0)
                f = 1.0 / (1.0 + np.exp(-uc))
                g = (1.0 - f) * lr
                loss_sum += np.log1p(np.exp(-uc))
                for k in range(d):
                    grad_c[k] += g * wout[o, k]
                    wout[o, k] += g * win[c, k]

                for _ in range(neg_k):
                    state = state + _GOLDEN_U64
                    z = state
                    z = (z ^ (z >> _U64_30)) * _MIX1_U64
                    z = (z ^ (z >> _U64_27)) * _MIX2_U64
                    z = z ^ (z >> _U64_31)
                    udraw = np.float64(z >> _U64_11) * _INV53
                    t_lo = 0
                    t_hi = V
                    while t_lo < t_hi:
                        mid = (t_lo + t_hi) // 2
                        if cdf[mid] > udraw:
                            t_hi = mid
                        else:
                            t_lo = mid + 1
                    t = t_lo
                    if t == o:
                        continue
                    u = 0.0
                    for k in range(d):
                        u += win[c, k] * wout[t, k]
                    uc = min(max(u, -40.0), 40.0)
                    f = 1.0 / (1.0 + np.exp(-uc))
                    g = (0.0 - f) * lr
                    loss_sum += np.log1p(np.exp(uc))
                    for k in range(d):
                        grad_c[k] += g * wout[t, k]
                        wout[t, k] += g * win[c, k]

                for k in range(d):
                    win[c, k] += grad_c[k]
    return state, pairs_done, loss_sum


_sgns_epoch_jit = jit_kernel(_sgns_epoch_jit_impl)


def sgns_epoch(tokens, offsets, win, wout, cdf, window, neg_k,
               lr0, lr_min, pairs_done, total_pairs, state,
               use_numba=NUMBA_ENABLED):
    """One pass over the encoded corpus; updates win/wout in place.

    ``use_numba`` picks the backend; the default is the active one (see
    :mod:`fflab.backend`). Asking for numba while its backend is inactive
    raises :class:`UsageError`: the uncompiled kernel body would run in
    the interpreter, slower than the numpy twin. A negative ``neg_k``
    raises :class:`UsageError`. Returns (rng state, pairs processed so
    far, summed pair loss).
    """
    if neg_k < 0:
        raise UsageError(f"neg_k must be >= 0, got {neg_k}")
    if use_numba:
        if not NUMBA_ENABLED:
            raise UsageError(
                "use_numba=True but the numba backend is inactive "
                "(numba is not installed, or FFLAB_NUMBA=0)"
            )
        new_state, done, loss = _sgns_epoch_jit(
            tokens, offsets, win, wout, cdf,
            np.int64(window), np.int64(neg_k),
            np.float64(lr0), np.float64(lr_min),
            np.int64(pairs_done), np.int64(total_pairs),
            np.uint64(state),
        )
        return int(new_state), int(done), float(loss)
    return _sgns_epoch_numpy(
        tokens, offsets, win, wout, cdf, int(window), int(neg_k),
        float(lr0), float(lr_min), int(pairs_done), int(total_pairs), int(state),
    )
