"""Schmidt-decomposed pure entangled channel and its measurement states.

A pure bipartite channel |psi> = sum_i a_i |ii> with real a_i >= 0 is fully
described by its Schmidt coefficients.  Applying each basis unitary to the
first half yields the d^2 measurement states

    |psi_a> = (U_a x I)|psi> = sum_ij G_a[i,j] |ij>,   G_a[i,j] = U_a[i,j] a_j,

which are linearly independent exactly when every a_j > 0.  In that case the
coefficient tensor has an explicit inverse, Ginv_a[i,j] = conj(U_a[i,j]) /
(d a_j), and the biorthogonal dual states |dual_a> = sum_ij conj(Ginv_a[i,j])
|ij> satisfy <dual_a|psi_b> = delta_ab.  Complex phases on the coefficients
must be absorbed into the local bases by the caller beforehand.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ShapeError, SingularChannelError
from .linalg import Monomial
from .weyl import UnitaryBasis

# The smallest normal float, finfo(float).tiny.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class SchmidtChannel:
    """Real nonnegative Schmidt coefficients of the pure channel."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def probs(self) -> np.ndarray:
        """Squared coefficients (the reduced-state eigenvalues)."""
        return self.coeffs**2

    def ket(self) -> np.ndarray:
        """The channel ket sum_i a_i |ii> in the d^2-dim joint space."""
        d = self.dim
        psi = np.zeros(d * d, dtype=complex)
        psi[np.arange(d) * d + np.arange(d)] = self.coeffs
        return psi


def make_channel(coeffs) -> SchmidtChannel:
    """Validate and wrap Schmidt coefficients.

    Coefficients must be real, finite, nonnegative and already normalized to
    sum(a_i^2) = 1 within 1e-9 (the copy stored is renormalized exactly).
    """
    arr = np.asarray(coeffs)
    # The float cast would drop imaginary parts with only a warning.
    if np.iscomplexobj(arr):
        raise NormalizationError(f"coefficients must be real, got {arr}")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ShapeError(f"need a 1-D array of at least 2 coefficients, got shape {arr.shape}")
    # Every comparison with NaN is false, so the checks below would pass it.
    if not np.all(np.isfinite(arr)):
        raise NormalizationError(f"coefficients must be finite, got {arr}")
    if np.any(arr < 0):
        raise NormalizationError(f"coefficients must be nonnegative, got {arr}")
    if not np.any(arr > 0):
        raise NormalizationError("at least one coefficient must be positive")
    norm_sq = float(np.sum(arr**2))
    if abs(norm_sq - 1.0) > 1e-9:
        raise NormalizationError(
            f"sum of squared coefficients is {norm_sq!r}; pass normalized coefficients"
        )
    arr = arr / np.sqrt(norm_sq)
    return SchmidtChannel(coeffs=arr)


def qubit_channel_from_cos_theta(cos_theta_c: float) -> SchmidtChannel:
    """d=2 channel with coefficients sqrt((1 -/+ cos_theta_c)/2).

    The overlap parameter cos_theta_c = 1 - 2*min(a^2) measures how far the
    channel is from maximal entanglement (0 -> maximal, 1 -> product).
    """
    if not -1.0 <= cos_theta_c <= 1.0:
        raise NormalizationError(f"cos_theta_c must lie in [-1, 1], got {cos_theta_c}")
    return make_channel(
        [np.sqrt((1.0 - cos_theta_c) / 2.0), np.sqrt((1.0 + cos_theta_c) / 2.0)]
    )


def _check_full_rank(ch: SchmidtChannel, basis: UnitaryBasis) -> None:
    if ch.dim != basis.dim:
        raise ShapeError(f"channel dim {ch.dim} does not match basis dim {basis.dim}")
    # A coefficient whose square underflows to 0 is singular in floating
    # point, and a subnormal square keeps too few bits for a complete POVM.
    if (ch.coeffs <= 0).any() or (ch.probs < _TINY).any():
        raise SingularChannelError(
            "dual construction needs every Schmidt coefficient positive, with a square of at least "
            f"the smallest normal float; got {ch.coeffs}"
        )


def basis_states(ch: SchmidtChannel, basis: UnitaryBasis) -> np.ndarray:
    """The d^2 measurement states (U_a x I)|psi>, one ket per row.

    Linearly independent (and hence a basis) whenever all a_i > 0; a
    singular channel is rejected because the conclusive protocol is
    undefined for it.
    """
    _check_full_rank(ch, basis)
    d = ch.dim
    states = (basis.ops * ch.coeffs).reshape(d * d, d * d)
    states.setflags(write=False)
    return states


def dual_states(ch: SchmidtChannel, basis: UnitaryBasis) -> Monomial | np.ndarray:
    """The unnormalized duals with <dual_a|state_b> = delta_ab.

    Dual a has joint components U_a[i, j] / (d a_j).  For a monomial basis
    they come as a ``Monomial`` in the vector form of ``PovmSet``: row i of
    matrix a holds dual_a[i*d + j] in column j.  For a dense basis they come
    as a (d^2, d^2) array, one dual per row.
    """
    _check_full_rank(ch, basis)
    d = ch.dim
    scale = d * ch.coeffs
    if basis.monomial is not None:
        cols = basis.monomial.cols
        return Monomial(cols, basis.monomial.values / scale[cols])
    duals = (basis.ops / scale).reshape(d * d, d * d)
    duals.setflags(write=False)
    return duals
