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
and the unrefined remainder as its diagonal.  Every vector built here has,
for each i, at most one nonzero w[i*d + j]: the set stores them as a
``Monomial`` (d entries per vector), and dense vectors and elements are
built only on demand, for checks and the dilation.  The two refinements
sum to the same remainder but are inequivalent measurements; the fidelity
engine treats them as distinct strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .channel import SchmidtChannel, dual_states
from .errors import DecompositionError, PositivityError, ShapeError
from .linalg import Monomial
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


@dataclass(frozen=True, init=False, eq=False)
class PovmSet:
    """Ordered POVM on the d^2-dimensional joint space.

    Rank-one element k is |w_k><w_k|.  The vectors are given as a
    ``Monomial`` of n (d, d) matrices, row i of matrix k holding w_k[i*d + j]
    in column j, or as a dense (n, d^2) array; a dense array whose vectors
    have at most one nonzero per such row and column is scanned into
    ``monomial`` once, here, and any other (e.g. a realized Neumark
    extension) leaves ``monomial`` None.  ``vectors`` and ``elements`` read
    the dense forms back, read-only, built on first use.  An unrefined set
    carries its diagonal remainder as ``remainder`` (shape (d^2,)), which is
    the last element; it is ``None`` once refined.  ``tags`` classifies each
    element, remainder included; ``lam`` is the common conclusive weight.
    """

    d: int
    tags: tuple[Tag, ...]
    lam: float
    remainder: np.ndarray | None
    monomial: Monomial | None

    def __init__(
        self,
        d: int,
        vectors: Monomial | np.ndarray,
        tags: tuple[Tag, ...],
        lam: float,
        remainder: np.ndarray | None = None,
    ):
        joint = d * d
        n = len(tags) - (remainder is not None)
        given = isinstance(vectors, Monomial)
        shape, want = (vectors.values.shape, (n, d)) if given else (vectors.shape, (n, joint))
        if shape != want:
            raise ShapeError(f"expected vectors of shape {want}, got {shape}")
        if remainder is not None and remainder.shape != (joint,):
            raise ShapeError(f"expected a remainder diagonal of shape {(joint,)}, got {remainder.shape}")
        tagged = bool(tags) and isinstance(tags[-1], Remainder)
        if (remainder is not None) != tagged:
            raise ShapeError("a remainder diagonal must come with a last tag Remainder(), and only then")
        if remainder is not None:
            remainder.setflags(write=False)
        if not given:
            vectors.setflags(write=False)
            # The dense input is the view ``vectors`` returns.
            self.__dict__["vectors"] = vectors
            vectors = Monomial.scan(vectors.reshape(n, d, d))
        fields = {"d": d, "tags": tags, "lam": lam, "remainder": remainder, "monomial": vectors}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Dense vectors, shape (n, d^2), built on first use from ``monomial``."""
        dense = self.monomial.dense().reshape(len(self.monomial), -1)
        dense.setflags(write=False)
        return dense

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
    tags = tuple(map(Conclusive, range(d * d))) + (Remainder(),)
    # The remainder depends on the column index j only (clamp the
    # exact-boundary entries at zero).
    diag = np.tile(np.clip(weights, 0.0, None), d)
    scale = np.sqrt(lam)
    if isinstance(duals, Monomial):
        vectors = Monomial(duals.cols, scale * duals.values)
    else:
        vectors = scale * duals
    return PovmSet(d=d, vectors=vectors, tags=tags, lam=float(lam), remainder=diag)


def _remainder(p: PovmSet) -> np.ndarray:
    """The remainder diagonal of an unrefined set."""
    if p.remainder is None:
        raise DecompositionError("POVM has no remainder element to refine")
    return p.remainder


def _refined(p: PovmSet, pieces: Monomial | np.ndarray, tags: tuple[Tag, ...]) -> PovmSet:
    """``p`` with its remainder replaced by the rank-one ``pieces``: monomial if both are, else dense."""
    if p.monomial is not None and isinstance(pieces, Monomial):
        vectors = p.monomial.concat(pieces)
    else:
        dense = pieces.dense().reshape(len(pieces), -1) if isinstance(pieces, Monomial) else pieces
        vectors = np.concatenate([p.vectors, dense])
    return PovmSet(d=p.d, vectors=vectors, tags=p.tags[:-1] + tags, lam=p.lam)


def refine_inconclusive_product(p: PovmSet) -> PovmSet:
    """Replace the remainder by its d^2 diagonal rank-one pieces.

    New elements are weight |ij><ij| appended j-major (all i for j=0, then
    j=1, ...), giving a 2 d^2 element set.
    """
    diag = _remainder(p)
    d = p.d
    j, i = np.divmod(np.arange(d * d), d)
    cols = np.zeros((d * d, d), dtype=np.intp)
    values = np.zeros((d * d, d), dtype=complex)
    # Piece i + d j has its one nonzero in row i, column j.
    cols[np.arange(d * d), i] = j
    values[np.arange(d * d), i] = np.sqrt(diag[i * d + j])
    tags = tuple(map(InconclusiveProduct, i.tolist(), j.tolist()))
    return _refined(p, Monomial(cols, values), tags)


def refine_inconclusive_residual(p: PovmSet, basis: UnitaryBasis) -> PovmSet:
    """Replace the remainder R by the d^2 pieces S P_a S, S = sqrt(R).

    P_a are the maximally entangled projectors, so piece a is |S e_a><S e_a|
    for the entangled ket e_a: rank-one, positive, and the pieces sum back
    to R exactly.  R is diagonal, so S e_a is sqrt(diag R) times e_a
    entrywise; entries of R below 1e-12 count as zero.  On a monomial
    basis, e_a[i*d + j] = U_a[i, j] / sqrt(d) is nonzero in one column j
    per row i, and so is the piece.
    """
    diag = _remainder(p)
    d = p.d
    root = np.sqrt(np.where(diag < 1e-12, 0.0, diag))
    u = basis.monomial
    if u is None:
        pieces = root * maximally_entangled_basis(basis)
    else:
        pieces = Monomial(u.cols, root[np.arange(d) * d + u.cols] * (u.values / np.sqrt(d)))
    return _refined(p, pieces, tuple(map(InconclusiveResidual, range(d * d))))


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
    # Row i, column j of state k holds its component on |ij>: |00> and |11>
    # for the first two states, |01> and |10> for the last two.
    cols = np.array([[0, 1], [0, 1], [1, 0], [1, 0]])
    values = np.array(
        [[n * hi, n * lo], [n * hi, -n * lo], [n * lo, n * hi], [-n * lo, n * hi]], dtype=complex
    )
    tags = tuple(Conclusive(alpha) for alpha in range(4)) + (Remainder(),)
    w0 = max(1.0 - lam / (1.0 - ct), 0.0)
    w1 = max(1.0 - lam / (1.0 + ct), 0.0)
    return PovmSet(
        d=2,
        vectors=Monomial(cols, np.sqrt(lam) * values),
        tags=tags,
        lam=float(lam),
        remainder=np.array([w0, w1, w0, w1]),
    )
