"""Row normalization, initial weights, a hand-rolled, in-place Adam
optimizer, the dense layer every trained affine map is, and the finite
check that guards every trainer.

Batches are float64 matrices with one sample per row (the label sweep
forwards float32 ones); parameters are float64 ndarrays of any shape.

Every pass over a weight-sized array (Adam steps, bulk draws, the sweep's
float32 copies, finite checks, weight statistics) is dealt across the
BLAS threads' cores by one private helper, :func:`_split`, with the bits
of the whole-array pass; shares take their scratch from :func:`_runs`.
"""

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import reduce

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


# A split block: about this many elements of an array, in whole rows. A pass
# over an array of two or more blocks is dealt out across threads
# (:func:`_split`). A share walks its rows half a block (256 KiB a float64
# array) at a time (:func:`_runs`); Adam ran as fast that way on 2 cores as
# in whole blocks (train_epoch at 784->2000x4: 2.56 s against 2.64 s, medians
# of 4 alternating runs, spread 2.41-3.30 s).
_SPLIT_BLOCK = 1 << 16

# Threads that share a pass of two or more blocks: OpenBLAS's thread count, at most 2 (measured)
_SPLIT_WORKERS = None
_pool = None  # _SPLIT_WORKERS - 1 threads from the first split pass on
_thread_work = threading.local()  # each thread's work array, kept across passes
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _split_pool():
    """The pool of a pass that splits; None (one worker from then on) where OpenBLAS has one
    thread or is not mapped. Unless OPENBLAS_THREAD_TIMEOUT is set, OpenBLAS first restarts its
    threads with the shortest spin after a GEMM (2^4 cycles, not 2^28), so idle ones sleep."""
    global _SPLIT_WORKERS, _pool
    if _pool is None and _SPLIT_WORKERS != 1:
        try:
            with open("/proc/self/maps") as f:
                lib = ctypes.CDLL(next(ln[ln.index("/"):-1] for ln in f if "openblas64_" in ln))
            count, *restart = [getattr(lib, name) for name in ("scipy_openblas_get_num_threads64_",
                               "openblas_read_env", "blas_thread_shutdown_", "blas_thread_init")]
            _SPLIT_WORKERS = _SPLIT_WORKERS or min(2, count())
        except (OSError, StopIteration, AttributeError):
            _SPLIT_WORKERS = 1
        if _SPLIT_WORKERS > 1 and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
            for call in restart:
                call()
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        _pool = ThreadPoolExecutor(_SPLIT_WORKERS - 1) if _SPLIT_WORKERS > 1 else None
    return _pool


def _block_rows(a):
    """Rows of ``a`` in one split block: ``_SPLIT_BLOCK`` elements, at least one row."""
    return max(1, _SPLIT_BLOCK // max(1, math.prod(a.shape[1:])))


def _split(share, a, *args):
    """``share(lo, hi, a, *args)`` over rows 0..len(a) of array ``a``, in
    contiguous shares lo..hi; returns the shares' results in row order.

    An ``a`` of at most one block (:func:`_block_rows`) is one share on the
    caller. A larger one is dealt out in whole blocks to the caller, which
    runs the first share, and the private pool (:func:`_split_pool`). The
    shares run under the caller's ``np.geterr()``, and an exception in one
    is raised once every share has finished. A share that runs the same
    elementwise operations on its rows as a whole pass would gives the
    same bits on any number of threads. Shares run no public function of
    the package, so a single-threaded tracer of those still sees every call,
    and never split again: a pool thread would wait on its own queue.
    """
    rows = _block_rows(a)
    if len(a) <= rows or _split_pool() is None:
        return [share(0, len(a), a, *args)]
    blocks = -(-len(a) // rows)
    workers = min(_SPLIT_WORKERS, blocks)
    ends = [min(len(a), blocks * k // workers * rows) for k in range(workers + 1)]
    pooled = np.errstate(**np.geterr())(share)  # the error state is per thread
    futures = [_pool.submit(pooled, lo, hi, a, *args) for lo, hi in zip(ends[1:-1], ends[2:])]
    try:
        first = share(0, ends[1], a, *args)
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _min_max_rows(lo, hi, a):
    return a[lo:hi].min(), a[lo:hi].max()


def _min_max(a):
    """(min, max) of a non-empty array, by :func:`_split`: exact in any order,
    and a NaN anywhere gives NaN, as ``a.min()`` and ``a.max()`` do."""
    mins, maxs = zip(*_split(_min_max_rows, np.atleast_1d(a)))
    return reduce(np.minimum, mins), reduce(np.maximum, maxs)


def _cast_rows(lo, hi, a, out):
    out[lo:hi] = a[lo:hi]


def _cast(a, dtype):
    """``a.astype(dtype, copy=False)``: ``a`` itself if it has that dtype,
    else a new C-contiguous copy made by :func:`_split`."""
    if a.dtype == dtype:
        return a
    out = np.empty(a.shape, dtype)
    _split(_cast_rows, a, out)
    return out


def _work(n):
    """The first n elements of this thread's kept float64 work array, grown if shorter
    to n and at least a split block (two runs), since an outgrown array stays a heap hole."""
    work = getattr(_thread_work, "array", None)
    if work is None or work.size < n:
        work = _thread_work.array = np.empty(max(n, _SPLIT_BLOCK))
    return work[:n]


def _runs(lo, hi, a, k):
    """Half-block runs of rows lo..hi of ``a``: each run's slice, then ``k`` scratch views."""
    rows = max(1, _block_rows(a) // 2)
    shape = (min(rows, hi - lo),) + a.shape[1:]
    scratch = tuple(_work(k * math.prod(shape)).reshape((k,) + shape))
    for i in range(lo, hi, rows):
        if i + rows > hi:  # the share's last run is shorter
            scratch = tuple(s[: hi - i] for s in scratch)
        yield (slice(i, min(i + rows, hi)), *scratch)


def _adam_rows(lo, hi, P, G, M, V, m_scale, v_scale, lr):
    """Adam over rows lo..hi, a run (:func:`_runs`) at a time."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for rows, s, d in _runs(lo, hi, P, 2):
        p, g, m, v = P[rows], G[rows], M[rows], V[rows]
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

    The update runs over blocks of rows in the textbook's order, dealt
    out across threads by :func:`_split`. Every operation is elementwise,
    so the result is bit-identical to the whole expression on any number
    of threads.
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
    _split(_adam_rows, P, G, M, V, 1.0 - ADAM_BETA1 ** state.t,
           1.0 - ADAM_BETA2 ** state.t, state.lr)
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
        if a.size:
            lo, hi = _min_max(a)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DivergenceError(message, **where)
