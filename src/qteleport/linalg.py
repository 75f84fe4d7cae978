"""Complex linear algebra primitives used by every other module.

Kets are plain 1-D complex ndarrays, operators 2-D complex ndarrays, and a
stack of operators with at most one nonzero per row and per column (the
clock-and-shift operators and everything built from them) is a
``Monomial``: d entries per operator instead of d^2.
Joint bases are flattened row-major: the product ket |i>|j> of subsystems
with dimensions (da, db) sits at flat index i * db + j.  All indices are
zero-based (one-based labels elsewhere map here by subtracting 1).

All functions are pure and never mutate their inputs; random number
generator state is owned by the caller.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError, ShapeError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (of every matrix in a stack)."""
    return np.swapaxes(a, -1, -2).conj()


# Entries per chunk when a stack is read piecewise to bound its temporaries.
CHUNK_ENTRIES = 1 << 13


def chunks(n: int, entries_each: int) -> Iterator[slice]:
    """Slices covering n items, about ``CHUNK_ENTRIES`` entries each (at least one item)."""
    step = max(1, CHUNK_ENTRIES // entries_each)
    for start in range(0, n, step):
        yield slice(start, start + step)


@dataclass(frozen=True)
class Monomial:
    """A stack of n (d, d) matrices with at most one nonzero per row and per column.

    Row i of matrix k holds ``values[k, i]`` in column ``cols[k, i]`` and is
    zero elsewhere; a zero value marks an all-zero row, whatever its column.
    Both arrays have shape (n, d) and are read-only; the values are stored
    complex; the values may have a leading member axis, (L, n, d): L stacks
    sharing ``cols``.  The nonzero values of one matrix must sit in distinct
    columns in [0, d): the builders of this package guarantee it, and
    ``UnitaryBasis`` and ``PovmSet`` take it as given, since their monomial
    checks (unit moduli, the diagonal of sum B^† B) rely on it.  Nothing
    converts a dense stack to this form: a stack is monomial because it was
    built so, never because its values happen to fit.
    """

    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=np.intp)
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (2, 3) or cols.shape != values.shape[-2:]:
            raise ShapeError(f"values {values.shape} need cols {cols.shape} (n, d) and at most one more axis")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        for arr in (cols, values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[-2]

    def dense(self) -> np.ndarray:
        """The (n, d, d) stack, zero off the stored entries; (L, n, d, d) with a member axis."""
        n, d = self.cols.shape
        out = np.zeros(self.values.shape + (d,), dtype=complex)
        out[..., np.arange(n)[:, None], np.arange(d), self.cols] = self.values
        return out

    def concat(self, other: Monomial) -> Monomial:
        """This stack followed by ``other``, member by member."""
        cols = np.concatenate([self.cols, other.cols])
        return Monomial(cols, np.concatenate([self.values, other.values], axis=-2))


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
    if not np.isfinite(rho).all():
        raise NormalizationError("density operator has a non-finite entry")
    tr = np.trace(rho).real
    # Written so that a NaN trace fails it too.
    if not abs(tr - 1.0) <= trace_tol:
        raise NormalizationError(f"trace {tr!r} deviates from 1 by more than {trace_tol}")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -1e-10:
        raise PositivityError(f"density operator has negative eigenvalue {vals[0]:.3e}")
    vals = vals[vals > 0.0]
    entropy = float(-np.sum(vals * np.log2(vals)))
    return max(entropy, 0.0)
