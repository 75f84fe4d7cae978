"""Clock-and-shift (Weyl-Heisenberg) unitary basis.

The d^2 operators X^m Z^n, with X|j> = |j+1 mod d> and Z|j> = w^j |j>
(w = exp(2 pi i / d)), form an orthogonal operator basis:

    Tr(U_a^† U_b) = d delta_ab
    (1/d) sum_a U_a[i,j] conj(U_a[k,l]) = delta_ik delta_jl

For d = 2 they reduce to {I, Z, X, XZ}, which spans the same projector set
as the Pauli operators (XZ = -i sigma_y).  Global phases are deliberately
left alone: every downstream formula uses the operators through
phase-insensitive combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import dagger


@dataclass(frozen=True)
class UnitaryBasis:
    """An ordered set of d^2 unitaries satisfying the orthogonality relations.

    ``ops`` has shape (d^2, d, d); element alpha = m*d + n is X^m Z^n for
    the stock construction, but any set satisfying the relations above is
    admissible (see :func:`conjugated_basis`).
    """

    dim: int
    ops: np.ndarray

    def __post_init__(self):
        if self.ops.shape != (self.dim**2, self.dim, self.dim):
            raise ShapeError(
                f"expected ops of shape {(self.dim**2, self.dim, self.dim)}, got {self.ops.shape}"
            )
        self.ops.setflags(write=False)


def shift_matrix(d: int) -> np.ndarray:
    """X with X|j> = |j+1 mod d>: the identity with its rows rolled down by one."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_matrix(d: int) -> np.ndarray:
    """Z = diag(1, w, w^2, ...) with w = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def build_weyl_basis(d: int) -> UnitaryBasis:
    """Construct the clock-and-shift basis for dimension d >= 2.

    The construction is deterministic: rebuilding yields bit-identical
    matrices.
    """
    if d < 2:
        raise ShapeError(f"dimension must be at least 2, got {d}")
    x = shift_matrix(d)
    z = clock_matrix(d)
    # Power tables xs[m] = X^m and zs[n] = Z^n by repeated products.
    xs = np.empty((d, d, d), dtype=complex)
    zs = np.empty((d, d, d), dtype=complex)
    xs[0] = zs[0] = np.eye(d)
    for k in range(1, d):
        xs[k] = xs[k - 1] @ x
        zs[k] = zs[k - 1] @ z
    ops = (xs[:, None] @ zs[None, :]).reshape(d * d, d, d)
    return UnitaryBasis(dim=d, ops=ops)


def maximally_entangled_basis(basis: UnitaryBasis) -> np.ndarray:
    """The d^2 orthonormal entangled kets (U_a x I) |psi_m>, one per row.

    |psi_m> = d^{-1/2} sum_i |ii> is the maximally entangled reference
    state; the resulting set is complete and orthonormal in the d^2-dim
    joint space.
    """
    d = basis.dim
    # (U x I)|psi_m> has joint components U[i, j] / sqrt(d) at flat index i*d + j.
    kets = basis.ops.reshape(d * d, d * d) / np.sqrt(d)
    kets.setflags(write=False)
    return kets


def conjugated_basis(basis: UnitaryBasis, left: np.ndarray, right: np.ndarray) -> UnitaryBasis:
    """Transport the basis to {L U_a R^†} for fixed unitaries L and R.

    Both orthogonality relations are preserved, so the result is again an
    admissible measurement basis.
    """
    ops = np.einsum("ij,ajk,lk->ail", left, basis.ops, right.conj())
    return UnitaryBasis(dim=basis.dim, ops=ops)


def orthogonality_residuals(basis: UnitaryBasis) -> tuple[float, float, float]:
    """Max-abs residuals of (unitarity, pairwise trace, completeness)."""
    d = basis.dim
    eye = np.eye(d)
    unit = max(
        float(np.max(np.abs(dagger(u) @ u - eye))) for u in basis.ops
    )
    gram = np.einsum("aij,bij->ab", basis.ops.conj(), basis.ops)
    trace_res = float(np.max(np.abs(gram - d * np.eye(d * d))))
    comp = np.einsum("aij,akl->ijkl", basis.ops, basis.ops.conj()) / d
    target = np.einsum("ik,jl->ijkl", eye, eye)
    comp_res = float(np.max(np.abs(comp - target)))
    return unit, trace_res, comp_res
