"""Dense complex linear algebra primitives used by every other module.

Kets are plain 1-D complex ndarrays, operators 2-D complex ndarrays.
Joint bases are flattened row-major: the product ket |i>|j> of subsystems
with dimensions (da, db) sits at flat index i * db + j.  All indices are
zero-based (one-based labels elsewhere map here by subtracting 1).

All functions are pure and never mutate their inputs; random number
generator state is owned by the caller.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, PositivityError, ShapeError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (of every matrix in a stack)."""
    return np.swapaxes(a, -1, -2).conj()


def partial_trace(rho: np.ndarray, keep: int, dims: list[int] | tuple[int, ...]) -> np.ndarray:
    """Reduced operator on subsystem ``keep`` of a multipartite operator.

    ``dims`` lists the subsystem dimensions in tensor order; ``rho`` must be
    square with side equal to their product.  The trace is preserved.
    """
    rho = np.asarray(rho)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ShapeError(f"operator shape {rho.shape} does not match dims {dims}")
    if not 0 <= keep < len(dims):
        raise ShapeError(f"keep index {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    # Trace out every subsystem except `keep`, pairing row index k with
    # column index n + k.
    for k in reversed(range(n)):
        if k == keep:
            continue
        reshaped = np.trace(reshaped, axis1=k, axis2=reshaped.ndim // 2 + k)
    return reshaped


def haar_random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized ket drawn from the unitarily invariant (Haar) measure.

    Sampled as a vector of independent standard complex Gaussians, then
    normalized, which makes the distribution invariant under any fixed
    unitary.
    """
    if d < 2:
        raise ShapeError(f"dimension must be at least 2, got {d}")
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # Fix the QR phase ambiguity so the distribution is exactly Haar.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def von_neumann_entropy(rho: np.ndarray, trace_tol: float = 1e-8) -> float:
    """Entropy -sum(p log2 p) of a density operator, in bits.

    Requires a positive semidefinite operator with unit trace; eigenvalues
    at or below zero contribute nothing (0 log 0 := 0).
    """
    rho = np.asarray(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise NormalizationError(f"trace {tr!r} deviates from 1 by more than {trace_tol}")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -1e-10:
        raise PositivityError(f"density operator has negative eigenvalue {vals[0]:.3e}")
    vals = vals[vals > 0.0]
    entropy = float(-np.sum(vals * np.log2(vals)))
    return max(entropy, 0.0)
