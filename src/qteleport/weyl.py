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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import Monomial, dagger


@dataclass(frozen=True, init=False, eq=False)
class UnitaryBasis:
    """An ordered set of d^2 unitaries satisfying the orthogonality relations.

    Built from ``ops``: a ``Monomial`` stack of d^2 operators, as
    :func:`build_weyl_basis` gives, stored as ``monomial``; or a dense
    (d^2, d, d) array (see :func:`conjugated_basis`), stored as the
    read-only ``ops`` view with ``monomial`` None, whatever its values.
    Element alpha = m*d + n is X^m Z^n for the stock construction, but any
    set satisfying the relations above is admissible.
    """

    dim: int
    monomial: Monomial | None

    def __init__(self, dim: int, ops: Monomial | np.ndarray):
        given = isinstance(ops, Monomial)
        shape, want = (ops.values.shape, (dim**2, dim)) if given else (ops.shape, (dim**2, dim, dim))
        if shape != want:
            raise ShapeError(f"expected ops of shape {want}, got {shape}")
        if not given:
            ops.setflags(write=False)
            # The dense input is the view ``ops`` returns.
            self.__dict__["ops"] = ops
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "monomial", ops if given else None)

    @cached_property
    def ops(self) -> np.ndarray:
        """The dense (d^2, d, d) operators, read-only, built on first use from ``monomial``."""
        dense = self.monomial.dense()
        dense.setflags(write=False)
        return dense


def build_weyl_basis(d: int) -> UnitaryBasis:
    """Construct the clock-and-shift basis for dimension d >= 2, in monomial form.

    Each operator is written from its index rule X^m Z^n |j> = w^(n j mod d)
    |j + m mod d>, with w^k read from one table of exp(2 pi i k / d): row i
    of X^m Z^n holds w^(n j mod d) in column j = (i - m) mod d.  No matrix
    product rounds the phases, and rebuilding yields bit-identical
    operators on any BLAS.
    """
    if not isinstance(d, numbers.Integral) or isinstance(d, bool):
        raise DomainError(f"dimension must be an integer, got {d!r}")
    if d < 2:
        raise ShapeError(f"dimension must be at least 2, got {d}")
    k = np.arange(d)
    # The (d, d) index table comes first: an impossible d raises MemoryError here.
    power = np.outer(k, k) % d
    clock = np.exp(2j * np.pi * k / d)[power]
    cols = (k[None, :] - k[:, None]) % d  # [m, i]
    values = clock[k[None, :, None], cols[:, None, :]]  # [m, n, i]
    cols = np.broadcast_to(cols[:, None, :], (d, d, d))
    return UnitaryBasis(dim=d, ops=Monomial(cols.reshape(d * d, d), values.reshape(d * d, d)))


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
    return UnitaryBasis(dim=basis.dim, ops=left @ basis.ops @ right.conj().T)


def orthogonality_residuals(basis: UnitaryBasis) -> tuple[float, float, float]:
    """Max-abs residuals of (unitarity, pairwise trace, completeness), each one product of the operators."""
    d = basis.dim
    flat = basis.ops.reshape(d * d, d * d)
    unit = float(np.max(np.abs(dagger(basis.ops) @ basis.ops - np.eye(d))))
    trace_res = float(np.max(np.abs(flat.conj() @ flat.T - d * np.eye(d * d))))
    comp_res = float(np.max(np.abs(flat.T @ flat.conj() / d - np.eye(d * d))))
    return unit, trace_res, comp_res
