"""Joint POVMs for conclusive teleportation.

The conclusive set consists of d^2 equally weighted rank-one elements
lam * |dual_a><dual_a| built from the channel's dual states, plus one
diagonal remainder

    R = sum_ij (1 - lam / (d a_j^2)) |ij><ij|

that restores completeness.  R is positive iff lam <= d * min_j a_j^2.
Two refinements split R into d^2 rank-one pieces:

* product:  the diagonal pieces weight_j |ij><ij| themselves, ordered
  j-major after the conclusive block;
* residual: S P_a S with S = sqrt(R) and P_a the maximally entangled
  projectors, which keeps the split aligned with the measurement basis.

Every element is therefore stored as one vector w with element |w><w|,
and the unrefined remainder as its diagonal; dense matrices are built only
on demand, for checks.  The two refinements sum to the same remainder but
are inequivalent measurements; the fidelity engine treats them as distinct
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .channel import SchmidtChannel, dual_states, qubit_channel_from_cos_theta
from .errors import DecompositionError, PositivityError, ShapeError
from .weyl import UnitaryBasis, maximally_entangled_basis


@dataclass(frozen=True)
class Conclusive:
    alpha: int


@dataclass(frozen=True)
class InconclusiveProduct:
    i: int
    j: int


@dataclass(frozen=True)
class InconclusiveResidual:
    alpha: int


@dataclass(frozen=True)
class Remainder:
    pass


Tag = Union[Conclusive, InconclusiveProduct, InconclusiveResidual, Remainder]


@dataclass(frozen=True)
class PovmSet:
    """Ordered POVM on the d^2-dimensional joint space.

    ``vectors`` has shape (n, d^2): rank-one element k is |w_k><w_k| with
    w_k = vectors[k].  An unrefined set carries its diagonal remainder as
    ``remainder`` (shape (d^2,)), which is the last element; it is ``None``
    once refined.  ``tags`` classifies each element, remainder included;
    ``lam`` is the common conclusive weight.
    """

    d: int
    vectors: np.ndarray
    tags: tuple[Tag, ...]
    lam: float
    remainder: np.ndarray | None = None

    def __post_init__(self):
        joint = self.d * self.d
        n = len(self.tags) - (self.remainder is not None)
        if self.vectors.shape != (n, joint):
            raise ShapeError(f"expected vectors of shape {(n, joint)}, got {self.vectors.shape}")
        if self.remainder is not None and self.remainder.shape != (joint,):
            raise ShapeError(
                f"expected a remainder diagonal of shape {(joint,)}, got {self.remainder.shape}"
            )
        tagged = bool(self.tags) and isinstance(self.tags[-1], Remainder)
        if (self.remainder is not None) != tagged:
            raise ShapeError("a remainder diagonal must come with a last tag Remainder(), and only then")
        for arr in (self.vectors, self.remainder):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def elements(self) -> np.ndarray:
        """Dense elements, shape (n, d^2, d^2), built on first use (checks only)."""
        dense = np.einsum("ki,kj->kij", self.vectors, self.vectors.conj())
        if self.remainder is not None:
            dense = np.concatenate([dense, np.diag(self.remainder).astype(complex)[None]])
        dense.setflags(write=False)
        return dense

    @property
    def joint_dim(self) -> int:
        return self.d * self.d

    @property
    def n_outcomes(self) -> int:
        return len(self.tags)

    def is_refined(self) -> bool:
        return self.remainder is None


def lambda_max(ch: SchmidtChannel) -> float:
    """Largest conclusive weight keeping the remainder positive: d * min a^2."""
    return float(ch.dim * np.min(ch.probs))


def _remainder_weights(ch: SchmidtChannel, lam: float) -> np.ndarray:
    """Diagonal remainder weights per column index j: 1 - lam / (d a_j^2)."""
    return 1.0 - lam / (ch.dim * ch.probs)


def build_conclusive_povm(ch: SchmidtChannel, basis: UnitaryBasis, lam: float) -> PovmSet:
    """d^2 conclusive elements lam |dual_a><dual_a| plus the diagonal remainder.

    The weights are equal across outcomes; each conclusive outcome then
    occurs with Haar-average probability lam / d^2 and identifies its
    measurement state exactly.
    """
    d = ch.dim
    if not lam >= 0:  # also rejects NaN
        raise PositivityError(f"weight must be nonnegative, got {lam}")
    # The duals reject a singular channel before the weights divide by a_j^2.
    duals = dual_states(ch, basis)
    weights = _remainder_weights(ch, lam)
    bad = np.nonzero(weights < -1e-12)[0]
    if bad.size:
        raise PositivityError(
            f"weight {lam} exceeds the positivity bound {lambda_max(ch)} "
            f"(remainder entry negative for column j={bad.tolist()})"
        )
    tags = tuple(Conclusive(alpha) for alpha in range(d * d)) + (Remainder(),)
    # The remainder depends on the column index j only (clamp the
    # exact-boundary entries at zero).
    diag = np.tile(np.clip(weights, 0.0, None), d)
    return PovmSet(d=d, vectors=np.sqrt(lam) * duals, tags=tags, lam=float(lam), remainder=diag)


def _split_remainder(p: PovmSet) -> np.ndarray:
    if p.remainder is None:
        raise DecompositionError("POVM has no remainder element to refine")
    return p.remainder


def refine_inconclusive_product(p: PovmSet) -> PovmSet:
    """Replace the remainder by its d^2 diagonal rank-one pieces.

    New elements are weight |ij><ij| appended j-major (all i for j=0, then
    j=1, ...), giving a 2 d^2 element set.
    """
    diag = _split_remainder(p)
    d = p.d
    j, i = np.divmod(np.arange(d * d), d)
    flat = i * d + j
    pieces = np.zeros((d * d, d * d), dtype=complex)
    pieces[np.arange(d * d), flat] = np.sqrt(diag[flat])
    tags = p.tags[:-1] + tuple(InconclusiveProduct(*ij) for ij in zip(i.tolist(), j.tolist()))
    return PovmSet(d=d, vectors=np.concatenate([p.vectors, pieces]), tags=tags, lam=p.lam)


def refine_inconclusive_residual(p: PovmSet, basis: UnitaryBasis) -> PovmSet:
    """Replace the remainder R by the d^2 pieces S P_a S, S = sqrt(R).

    P_a are the maximally entangled projectors, so piece a is |S e_a><S e_a|
    for the entangled ket e_a: rank-one, positive, and the pieces sum back
    to R exactly.  R is diagonal, so S e_a is sqrt(diag R) times e_a
    entrywise; entries of R below 1e-12 count as zero.
    """
    diag = _split_remainder(p)
    d = p.d
    root = np.sqrt(np.where(diag < 1e-12, 0.0, diag))
    pieces = root * maximally_entangled_basis(basis)
    tags = p.tags[:-1] + tuple(InconclusiveResidual(alpha) for alpha in range(d * d))
    return PovmSet(d=d, vectors=np.concatenate([p.vectors, pieces]), tags=tags, lam=p.lam)


@dataclass(frozen=True)
class ThetaPovmFamily:
    """d=2 measurement family with the conclusive overlap relaxed.

    ``cos_theta_c`` fixes the channel; ``cos_theta`` sets the overlap of the
    four measurement states (equal to cos_theta_c for the conclusive set,
    0 for orthogonal measurement).  Positivity requires
    0 <= lam <= 1 - |cos_theta|.
    """

    cos_theta_c: float
    cos_theta: float
    lam: float

    def __post_init__(self):
        if not -1.0 < self.cos_theta < 1.0:
            raise PositivityError(f"cos_theta must lie in (-1, 1), got {self.cos_theta}")
        if not -1.0 < self.cos_theta_c < 1.0:
            raise PositivityError(f"cos_theta_c must lie in (-1, 1), got {self.cos_theta_c}")
        bound = 1.0 - abs(self.cos_theta)
        if not 0.0 <= self.lam <= bound + 1e-12:
            raise PositivityError(
                f"weight {self.lam} outside [0, 1 - |cos_theta|] = [0, {bound}]"
            )

    def channel(self) -> SchmidtChannel:
        return qubit_channel_from_cos_theta(self.cos_theta_c)


def build_theta_povm(fam: ThetaPovmFamily) -> PovmSet:
    """Four rank-one elements with relative overlap cos_theta, plus remainder.

    At cos_theta = cos_theta_c this reproduces the conclusive POVM of the
    family's channel element-for-element; at cos_theta = 0 the four states
    become Bell projectors scaled by lam.
    """
    ct = fam.cos_theta
    lam = fam.lam
    n = 1.0 / np.sqrt(2.0 - 2.0 * ct * ct)
    hi = np.sqrt(1.0 + ct)
    lo = np.sqrt(1.0 - ct)
    # Flat joint index i*2 + j for |ij>, i, j in {0, 1}.
    states = np.zeros((4, 4), dtype=complex)
    states[0, 0], states[0, 3] = n * hi, n * lo     # |00> , |11>
    states[1, 0], states[1, 3] = n * hi, -n * lo
    states[2, 2], states[2, 1] = n * hi, n * lo     # |10> , |01>
    states[3, 2], states[3, 1] = n * hi, -n * lo
    tags = tuple(Conclusive(alpha) for alpha in range(4)) + (Remainder(),)
    w0 = max(1.0 - lam / (1.0 - ct), 0.0)
    w1 = max(1.0 - lam / (1.0 + ct), 0.0)
    return PovmSet(
        d=2, vectors=np.sqrt(lam) * states, tags=tags, lam=float(lam), remainder=np.array([w0, w1, w0, w1])
    )
