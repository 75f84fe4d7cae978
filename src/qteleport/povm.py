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

The two refinements sum to the same remainder but are inequivalent
measurements; the fidelity engine treats them as distinct strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import SchmidtChannel, dual_states, qubit_channel_from_cos_theta
from .errors import DecompositionError, PositivityError, ShapeError
from .linalg import psd_sqrt
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
    """Ordered POVM elements on the d^2-dimensional joint space.

    ``elements`` has shape (n, d^2, d^2); ``tags`` classifies each element;
    ``lam`` is the common conclusive weight.
    """

    d: int
    elements: np.ndarray
    tags: tuple[Tag, ...]
    lam: float

    def __post_init__(self):
        n = len(self.tags)
        joint = self.d * self.d
        if self.elements.shape != (n, joint, joint):
            raise ShapeError(
                f"expected elements of shape {(n, joint, joint)}, got {self.elements.shape}"
            )
        self.elements.setflags(write=False)

    @property
    def joint_dim(self) -> int:
        return self.d * self.d

    @property
    def n_outcomes(self) -> int:
        return len(self.tags)

    def remainder_index(self) -> int | None:
        for k, tag in enumerate(self.tags):
            if isinstance(tag, Remainder):
                return k
        return None

    def is_refined(self) -> bool:
        return self.remainder_index() is None


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
    duals = dual_states(ch, basis)
    weights = _remainder_weights(ch, lam)
    bad = np.nonzero(weights < -1e-12)[0]
    if bad.size:
        raise PositivityError(
            f"weight {lam} exceeds the positivity bound {lambda_max(ch)} "
            f"(remainder entry negative for column j={bad.tolist()})"
        )
    elements = np.empty((d * d + 1, d * d, d * d), dtype=complex)
    tags: list[Tag] = []
    for alpha in range(d * d):
        elements[alpha] = lam * np.outer(duals[alpha], duals[alpha].conj())
        tags.append(Conclusive(alpha))
    # Remainder constructed analytically: diagonal over |ij> with the
    # j-dependent weights (clamp the exact-boundary entries at zero).
    diag = np.repeat(np.clip(weights, 0.0, None)[None, :], d, axis=0).reshape(d * d)
    elements[d * d] = np.diag(diag).astype(complex)
    tags.append(Remainder())
    return PovmSet(d=d, elements=elements, tags=tuple(tags), lam=float(lam))


def _split_remainder(p: PovmSet) -> tuple[np.ndarray, np.ndarray, int]:
    idx = p.remainder_index()
    if idx is None:
        raise DecompositionError("POVM has no remainder element to refine")
    rem = p.elements[idx]
    off = rem - np.diag(np.diag(rem))
    if np.max(np.abs(off)) > 1e-10:
        raise DecompositionError("remainder is not diagonal in the product basis")
    return rem, np.diag(rem).real, idx


def refine_inconclusive_product(p: PovmSet) -> PovmSet:
    """Replace the remainder by its d^2 diagonal rank-one pieces.

    New elements are weight |ij><ij| appended j-major (all i for j=0, then
    j=1, ...), giving a 2 d^2 element set.
    """
    _, diag, idx = _split_remainder(p)
    d = p.d
    elements = [p.elements[k] for k in range(p.n_outcomes) if k != idx]
    tags = [t for t in p.tags if not isinstance(t, Remainder)]
    for j in range(d):
        for i in range(d):
            flat = i * d + j
            piece = np.zeros((d * d, d * d), dtype=complex)
            piece[flat, flat] = max(diag[flat], 0.0)
            elements.append(piece)
            tags.append(InconclusiveProduct(i, j))
    return PovmSet(d=d, elements=np.stack(elements), tags=tuple(tags), lam=p.lam)


def refine_inconclusive_residual(p: PovmSet, basis: UnitaryBasis) -> PovmSet:
    """Replace the remainder R by the d^2 pieces S P_a S, S = sqrt(R).

    P_a are the maximally entangled projectors, so the pieces are rank-one,
    positive, and sum back to R exactly.
    """
    rem, _, idx = _split_remainder(p)
    d = p.d
    s = psd_sqrt(rem)
    kets = maximally_entangled_basis(basis)
    elements = [p.elements[k] for k in range(p.n_outcomes) if k != idx]
    tags = [t for t in p.tags if not isinstance(t, Remainder)]
    for alpha in range(d * d):
        v = s @ kets[alpha]
        elements.append(np.outer(v, v.conj()))
        tags.append(InconclusiveResidual(alpha))
    return PovmSet(d=d, elements=np.stack(elements), tags=tuple(tags), lam=p.lam)


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
    elements = np.empty((5, 4, 4), dtype=complex)
    tags: list[Tag] = []
    for alpha in range(4):
        elements[alpha] = lam * np.outer(states[alpha], states[alpha].conj())
        tags.append(Conclusive(alpha))
    w0 = max(1.0 - lam / (1.0 - ct), 0.0)
    w1 = max(1.0 - lam / (1.0 + ct), 0.0)
    elements[4] = np.diag([w0, w1, w0, w1]).astype(complex)
    tags.append(Remainder())
    return PovmSet(d=2, elements=elements, tags=tuple(tags), lam=float(lam))
