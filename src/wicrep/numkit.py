"""Dense numeric kernels: activations, initializers, seeded RNG, gradient oracle.

Matrices and vectors are plain float64 numpy arrays throughout; 32-bit
precision appears only at the checkpoint serialization boundary.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

InitMode = Literal["uniform", "glorot", "orthogonal"]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; equal seeds reproduce equal draw sequences across runs."""
    return np.random.Generator(np.random.PCG64(seed))


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b with explicit dimension checks."""
    if w.ndim != 2 or x.ndim != 1 or b.ndim != 1:
        raise ValueError(f"affine expects matrix/vector/vector, got ndim {w.ndim}/{x.ndim}/{b.ndim}")
    if w.shape[1] != x.shape[0] or w.shape[0] != b.shape[0]:
        raise ValueError(f"affine dimension mismatch: w {w.shape}, x {x.shape}, b {b.shape}")
    return w @ x + b


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid as tanh(x/2)/2 + 1/2, written into out (which may be x).

    tanh saturates instead of overflowing, so both tails are clean: exactly 0.0
    below about x = -38, exactly 1.0 above about x = 37, NaN stays NaN. The
    absolute error against the exact value is within 2.3e-16.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softmax_stable(u: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction; entries positive, sum 1 within 1e-12."""
    if u.ndim != 1 or u.shape[0] < 1:
        raise ValueError("softmax_stable expects a non-empty vector")
    shifted = u - np.max(u)
    e = np.exp(shifted)
    return e / e.sum()


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def init_matrix(
    rows: int,
    cols: int,
    mode: InitMode,
    rng: np.random.Generator,
    scale: float | None = None,
) -> np.ndarray:
    """Draw a fresh (rows, cols) parameter matrix.

    uniform: i.i.d. in [-scale, scale]; glorot: i.i.d. in +-sqrt(6/(rows+cols));
    orthogonal: square only, QR of a standard-normal draw with the sign of the
    triangular factor's diagonal folded in so the result is unique given the seed.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"init_matrix needs positive dims, got {rows}x{cols}")
    if mode == "uniform":
        if scale is None:
            raise ValueError("uniform mode requires a scale")
        return rng.uniform(-scale, scale, size=(rows, cols))
    if mode == "glorot":
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))
    if mode == "orthogonal":
        if rows != cols:
            raise ValueError("orthogonal init is restricted to square matrices")
        q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
        return q * np.sign(np.diag(r))
    raise ValueError(f"unknown init mode {mode!r}")


def finite_difference_grad(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Central-difference gradient (f(x+eps*e_k) - f(x-eps*e_k)) / 2eps per coordinate.

    Serves as the independent oracle for analytic gradients; f must be
    evaluable at every perturbed point.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    probe = x.copy()
    for k in range(x.shape[0]):
        probe[k] = x[k] + epsilon
        hi = f(probe)
        probe[k] = x[k] - epsilon
        lo = f(probe)
        probe[k] = x[k]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"finite_difference_grad: non-finite f at coordinate {k}")
        grad[k] = (hi - lo) / (2.0 * epsilon)
    return grad
