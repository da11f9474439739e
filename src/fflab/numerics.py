"""Dense float64 linear algebra primitives and a hand-rolled Adam optimizer.

Matrices are C-contiguous float64 ndarrays (row-major), vectors are 1-D
float64 ndarrays. Everything downstream builds on the handful of
operations here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "matmul",
    "l2_normalize",
    "direction",
    "row_directions",
    "AdamState",
    "adam_step",
]


def matmul(a, b):
    """Matrix product with an explicit shape check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def l2_normalize(x, eps=1e-8):
    """x / (||x||_2 + eps). The eps guard maps the zero vector to itself."""
    x = np.asarray(x, dtype=np.float64)
    return x / (np.linalg.norm(x) + eps)


def direction(x, eps=1e-8):
    """x / max(||x||_2, eps): exactly scale-free away from zero, zero-safe.

    Layers normalize their inputs with this form; dividing by
    ``norm + eps`` would leak the input magnitude back in at small scales.
    """
    x = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(x)
    return x / (n if n > eps else eps)


def row_directions(X, eps=1e-8):
    """Row-wise :func:`direction` for a batch matrix."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.sqrt(np.sum(X * X, axis=1, keepdims=True))
    return X / np.maximum(norms, eps)


@dataclass
class AdamState:
    """Moment estimates and hyperparameters for one parameter array.

    Single-owner mutable; one instance per parameter array.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 0.01

    @classmethod
    def for_param(cls, shape, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m=np.zeros(shape, dtype=np.float64),
            v=np.zeros(shape, dtype=np.float64),
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            lr=lr,
        )


# Rows of a parameter that one Adam block covers hold about this many
# elements: the six arrays a block touches (512 KiB each) stay in L2.
_ADAM_BLOCK = 1 << 16


def adam_step(state, params, grads):
    """One Adam update, in place. Returns ``params``.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    params <- params - lr * m_hat / (sqrt(v_hat) + eps) with the usual
    bias-corrected m_hat, v_hat (eps sits outside the square root).

    The update runs over blocks of rows, writing into one scratch and one
    step array allocated per call, with the operations in the order of the
    textbook expression; every operation is elementwise, so the result is
    bit-identical to evaluating it whole with temporaries.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError(
            f"adam_step shape mismatch: params {params.shape}, "
            f"grads {grads.shape}, moments {state.m.shape}"
        )
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m_scale = 1.0 - b1 ** state.t
    v_scale = 1.0 - b2 ** state.t
    P, G, M, V = params, grads, state.m, state.v
    if P.ndim == 0:
        P, G, M, V = P[None], G[None], M[None], V[None]
    rows = max(1, _ADAM_BLOCK // max(1, math.prod(P.shape[1:])))
    scratch = np.empty((min(rows, len(P)),) + P.shape[1:])
    step = np.empty_like(scratch)
    for i in range(0, len(P), rows):
        p, g, m, v = P[i : i + rows], G[i : i + rows], M[i : i + rows], V[i : i + rows]
        s, d = scratch[: len(p)], step[: len(p)]
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
        s += state.eps
        np.divide(m, m_scale, out=d)
        d *= state.lr
        d /= s
        p -= d
    return params
