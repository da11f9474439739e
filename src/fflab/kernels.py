"""Hot inner loops, in two interchangeable forms.

The skip-gram negative-sampling trainer walks tens of millions of
(center, context) pairs doing d-length dot products and rank-1 updates;
that loop is python-bound without JIT. ``sgns_epoch`` dispatches to an
``@njit`` kernel when the numba backend is active (see
:mod:`fflab.backend`) and to a numpy per-pair twin otherwise. Both
implement the identical per-pair sequential algorithm and consume the
identical splitmix64 draw stream, so they differ only by float
summation order.

``benchmarks/bench_kernels.py`` times the two paths side by side.
"""

import numpy as np

from .backend import NUMBA_ENABLED, jit_kernel
from .errors import UsageError
from .rng import (
    GOLDEN,
    MASK64,
    _GOLDEN_U64,
    _INV53,
    _MIX1_U64,
    _MIX2_U64,
    _U64_11,
    _U64_27,
    _U64_30,
    _U64_31,
    mix64,
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


def _sgns_epoch_numpy(tokens, offsets, win, wout, cdf, window, neg_k,
                      lr0, lr_min, pairs_done, total_pairs, state):
    """Pure-numpy twin: same pair order, same rng stream, same updates."""
    d = win.shape[1]
    loss_sum = 0.0
    n_sent = offsets.shape[0] - 1
    for s in range(n_sent):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        for i in range(lo, hi):
            c = int(tokens[i])
            j_lo = max(lo, i - window)
            j_hi = min(hi - 1, i + window)
            for j in range(j_lo, j_hi + 1):
                if j == i:
                    continue
                o = int(tokens[j])
                lr = lr0 * (1.0 - pairs_done / total_pairs)
                if lr < lr_min:
                    lr = lr_min
                pairs_done += 1

                grad_c = np.zeros(d)
                u = float(win[c] @ wout[o])
                uc = max(min(u, 40.0), -40.0)
                f = 1.0 / (1.0 + np.exp(-uc))
                g = (1.0 - f) * lr
                loss_sum += np.log1p(np.exp(-uc))
                grad_c += g * wout[o]
                wout[o] += g * win[c]

                for _ in range(neg_k):
                    state = (state + GOLDEN) & MASK64
                    udraw = (mix64(state) >> 11) * _INV53
                    # first index with cdf > draw
                    t = int(np.searchsorted(cdf, udraw, side="right"))
                    if t == o:
                        continue
                    u = float(win[c] @ wout[t])
                    uc = max(min(u, 40.0), -40.0)
                    f = 1.0 / (1.0 + np.exp(-uc))
                    g = (0.0 - f) * lr
                    loss_sum += np.log1p(np.exp(uc))
                    grad_c += g * wout[t]
                    wout[t] += g * win[c]

                win[c] += grad_c
    return state, pairs_done, loss_sum


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
    the interpreter, slower than the numpy twin. Returns (rng state,
    pairs processed so far, summed pair loss).
    """
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
