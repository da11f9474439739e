"""Row normalization, initial weights, a hand-rolled, in-place Adam
optimizer, the dense layer every trained affine map is, and the finite
check that guards every trainer.

Batches are float64 matrices with one sample per row (the label sweep
forwards float32 ones); parameters are float64 ndarrays of any shape.
"""

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .errors import DimensionError, DivergenceError

__all__ = [
    "CHUNK_ROWS", "row_chunks", "row_directions", "fan_in_uniform", "AdamState", "adam_step",
    "DenseLayer", "require_finite",
]

# Rows per chunk of every whole-split forward pass (label sweep, head
# features, baseline predictions): their transients are a few matrices
# of this many rows whatever the split size. Results depend on it in the
# last bits, since a chunk's GEMM may round differently from a whole one.
CHUNK_ROWS = 1024


def row_chunks(n, copies=1):
    """Slices covering rows 0..n-1 in order, ``CHUNK_ROWS // copies`` (at
    least one) at a time: a chunk whose rows are each stacked ``copies``
    times, as the label sweep stacks its candidates, stays about
    ``CHUNK_ROWS`` rows."""
    size = max(1, CHUNK_ROWS // copies)
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def row_directions(X, eps=1e-8, sq=None, out=None):
    """Each row of X divided by max(||row||_2, eps): exactly scale-free away
    from zero, and zero-safe.

    Layers normalize their inputs with this form; dividing by
    ``norm + eps`` would leak the input magnitude back in at small scales.

    ``sq``, if given, holds the rows' sums of squares, one per row, as
    ``ffnet.goodness(X)`` computes them: the same reduction as here, so
    the result has the same bits and X is not squared a second time.
    ``out``, if given, receives the directions (X itself scales in place);
    the bits are the same either way. A float32 X gives float32
    directions; anything else is computed in float64.
    """
    X = np.asarray(X)
    if X.dtype != np.float32:
        X = X.astype(np.float64, copy=False)
    if sq is None:
        sq = np.sum(X * X, axis=1)
    norms = np.sqrt(sq)[:, None]
    return np.divide(X, np.maximum(norms, eps), out=out)


def fan_in_uniform(rng, out_dim, in_dim):
    """Initial (out_dim, in_dim) weights uniform in +-1/sqrt(in_dim), drawn
    straight into W as ``(u * 2.0 - 1.0) * bound`` (``rng.uniform_array``)."""
    return rng.uniform_array(out_dim * in_dim, 1.0 / np.sqrt(in_dim)).reshape(out_dim, in_dim)


# Adam's decay rates and denominator floor, Kingma & Ba's defaults (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment estimates, step size and step count for one parameter array.

    Single-owner mutable; one instance per parameter array.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.01

    @classmethod
    def for_param(cls, shape, lr):
        return cls(
            m=np.zeros(shape, dtype=np.float64),
            v=np.zeros(shape, dtype=np.float64),
            lr=lr,
        )


# Rows of a parameter that one Adam block covers hold about this many
# elements; a thread works through them half a block (256 KiB an array) at
# a time, as fast on 2 cores as whole blocks (train_epoch at 784->2000x4:
# 2.56 s against 2.64 s, medians of 4 alternating runs, spread 2.41-3.30 s).
_ADAM_BLOCK = 1 << 16

# Threads that share a step of two or more blocks: OpenBLAS's thread count, at most 2 (measured)
_ADAM_WORKERS = None
_adam_pool = None  # _ADAM_WORKERS - 1 threads from the first split step on
_adam_work = threading.local()  # each thread's two work arrays, kept across steps
os.register_at_fork(after_in_child=lambda: globals().update(_adam_pool=None))


def _split_pool():
    """The pool of a step that splits; None (one worker from then on) where OpenBLAS has one
    thread or is not mapped. Unless OPENBLAS_THREAD_TIMEOUT is set, OpenBLAS first restarts its
    threads with the shortest spin after a GEMM (2^4 cycles, not 2^28), so idle ones sleep."""
    global _ADAM_WORKERS, _adam_pool
    if _adam_pool is None and _ADAM_WORKERS != 1:
        try:
            with open("/proc/self/maps") as f:
                lib = ctypes.CDLL(next(ln[ln.index("/"):-1] for ln in f if "openblas64_" in ln))
            count, *restart = [getattr(lib, name) for name in ("scipy_openblas_get_num_threads64_",
                               "openblas_read_env", "blas_thread_shutdown_", "blas_thread_init")]
            _ADAM_WORKERS = _ADAM_WORKERS or min(2, count())
        except (OSError, StopIteration, AttributeError):
            _ADAM_WORKERS = 1
        if _ADAM_WORKERS > 1 and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
            for call in restart:
                call()
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        _adam_pool = ThreadPoolExecutor(_ADAM_WORKERS - 1) if _ADAM_WORKERS > 1 else None
    return _adam_pool


def _adam_rows(lo, hi, rows, P, G, M, V, m_scale, v_scale, lr):
    """Adam over rows lo..hi, ``rows`` at a time, in this thread's work arrays."""
    shape = (min(rows, hi - lo),) + P.shape[1:]
    size = math.prod(shape)
    work = getattr(_adam_work, "arrays", None)
    if work is None or work.shape[1] < size:
        work = _adam_work.arrays = np.empty((2, size))
    scratch, step = (w[:size].reshape(shape) for w in work)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i in range(lo, hi, rows):
        j = min(i + rows, hi)
        p, g, m, v = P[i:j], G[i:j], M[i:j], V[i:j]
        s, d = scratch[: j - i], step[: j - i]
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s
        # s <- sqrt(v_hat) + eps ; d <- lr * m_hat / s
        np.divide(v, v_scale, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, m_scale, out=d)
        d *= lr
        d /= s
        p -= d


def adam_step(state, params, grads):
    """One Adam update, in place. Returns ``params``.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    params <- params - lr * m_hat / (sqrt(v_hat) + eps) with the usual
    bias-corrected m_hat, v_hat (eps sits outside the square root).

    The update runs over blocks of rows in the textbook's order; a parameter
    of two or more blocks is dealt out in whole blocks to the caller and a
    private pool (``_split_pool``). Every operation is elementwise, so the
    result is bit-identical to the whole expression on any number of threads.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError(
            f"adam_step shape mismatch: params {params.shape}, "
            f"grads {grads.shape}, moments {state.m.shape}"
        )
    state.t += 1
    P, G, M, V = params, grads, state.m, state.v
    if P.ndim == 0:
        P, G, M, V = P[None], G[None], M[None], V[None]
    rows = max(1, _ADAM_BLOCK // max(1, math.prod(P.shape[1:])))
    args = (max(1, rows // 2), P, G, M, V, 1.0 - ADAM_BETA1 ** state.t,
            1.0 - ADAM_BETA2 ** state.t, state.lr)
    if len(P) <= rows or _split_pool() is None:
        _adam_rows(0, len(P), *args)
        return params
    blocks = -(-len(P) // rows)
    workers = min(_ADAM_WORKERS, blocks)
    ends = [min(len(P), blocks * k // workers * rows) for k in range(workers + 1)]
    pooled = np.errstate(**np.geterr())(_adam_rows)  # the error state is per thread
    shares = [_adam_pool.submit(pooled, lo, hi, *args) for lo, hi in zip(ends[1:-1], ends[2:])]
    try:
        _adam_rows(0, ends[1], *args)
    finally:
        for done in wait(shares).done:
            done.result()
    return params


class DenseLayer:
    """Affine map plus an activation or its name (``None``: linear), with
    one Adam state per parameter. A W or b not given starts as
    :func:`fan_in_uniform` draws from ``rng`` or as zeros."""

    def __init__(self, in_dim, out_dim, activation, lr, rng=None, W=None, b=None):
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.act = activation
        if W is None:
            W = fan_in_uniform(rng, out_dim, in_dim)
        if b is None:
            b = np.zeros(out_dim, dtype=np.float64)
        self.W = np.ascontiguousarray(W, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        if self.W.shape != (out_dim, in_dim) or self.b.shape != (out_dim,):
            raise DimensionError(
                f"layer wants W {(out_dim, in_dim)} and b {(out_dim,)}, "
                f"got {self.W.shape} and {self.b.shape}"
            )
        self.adam_W = AdamState.for_param(self.W.shape, lr)
        self.adam_b = AdamState.for_param(self.b.shape, lr)

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]

    def affine(self, X):
        """(Z, A) for a batch matrix: Z = X @ W.T + b, and A = act(Z) or Z."""
        Z = X @ self.W.T
        Z += self.b
        return Z, (Z if self.act is None else self.act.fn(Z))


def require_finite(message, *arrays, **where):
    """Raise ``DivergenceError(message, **where)`` unless every element of
    ``arrays`` is finite. NaN and inf are absorbing under Adam, so a
    trainer checks its weights once, after its epoch."""
    for a in arrays:
        # min/max propagate NaN and expose +-inf without a boolean mask
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise DivergenceError(message, **where)
