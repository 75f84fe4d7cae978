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
and the unrefined remainder as its diagonal.  One integer table classifies
the outcomes: ``kinds`` holds ``CONCLUSIVE``, ``PRODUCT``, ``RESIDUAL`` or
``REMAINDER`` per outcome, and ``labels`` the basis index alpha (conclusive
and residual), the piece index i + d j (product) or 0 (remainder).  Every
vector built here has, for each i, at most one nonzero w[i*d + j]: the set
stores them as a ``Monomial`` (d entries per vector), and dense vectors and
elements are built only on demand, for checks and the dilation.  The two
refinements sum to the same remainder but are inequivalent measurements;
the fidelity engine treats them as distinct strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SchmidtChannel, dual_states
from .errors import DecompositionError, PositivityError, ShapeError
from .linalg import Monomial
from .weyl import UnitaryBasis, maximally_entangled_basis


# Outcome kind codes, the values of ``PovmSet.kinds``.
CONCLUSIVE, PRODUCT, RESIDUAL, REMAINDER = range(4)


def _table(name: str, values, n: int) -> np.ndarray:
    """``values`` as a read-only integer array of shape (n,); ``ShapeError`` otherwise."""
    raw = np.asarray(values)
    if raw.size and raw.dtype.kind not in "iu":
        raise ShapeError(f"{name} must be integers, got dtype {raw.dtype}")
    table = raw.astype(np.intp)
    if table.shape != (n,):
        raise ShapeError(f"expected {name} of shape {(n,)}, got {table.shape}")
    table.setflags(write=False)
    return table


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
    the last element; it is ``None`` once refined.  ``kinds`` and ``labels``,
    read-only integer arrays, classify each element, remainder included (see
    the module docstring); ``ShapeError`` refuses a wrong length, an unknown
    kind, a label outside [0, d^2) and a kind ``REMAINDER`` on any outcome
    but the remainder.  ``lam`` is the common conclusive weight.
    """

    d: int
    kinds: np.ndarray
    labels: np.ndarray
    lam: float
    remainder: np.ndarray | None
    monomial: Monomial | None

    def __init__(
        self,
        d: int,
        vectors: Monomial | np.ndarray,
        kinds: np.ndarray,
        labels: np.ndarray,
        lam: float,
        remainder: np.ndarray | None = None,
    ):
        joint = d * d
        given = isinstance(vectors, Monomial)
        shape = vectors.values.shape if given else vectors.shape
        n = shape[0] if shape else 0
        want = (n, d) if given else (n, joint)
        if shape != want:
            raise ShapeError(f"expected vectors of shape {want}, got {shape}")
        if remainder is not None and remainder.shape != (joint,):
            raise ShapeError(f"expected a remainder diagonal of shape {(joint,)}, got {remainder.shape}")
        kinds = _table("kinds", kinds, n + (remainder is not None))
        labels = _table("labels", labels, len(kinds))
        # Outcomes 0..n-1 are the vectors and outcome n, if any, the remainder.  A
        # negative entry wraps to a large unsigned one, so one max checks both ends.
        if n and kinds[:n].view(np.uintp).max() >= REMAINDER:
            codes = sorted(set(kinds[:n].tolist()))
            raise ShapeError(f"vector outcomes need kinds CONCLUSIVE, PRODUCT or RESIDUAL, got {codes}")
        if remainder is not None and kinds[n] != REMAINDER:
            raise ShapeError(f"a remainder diagonal needs the last kind REMAINDER, got {kinds[n]}")
        if labels.size and labels.view(np.uintp).max() >= joint:
            raise ShapeError(f"outcome labels must lie in [0, {joint}), got {labels.min()}..{labels.max()}")
        if remainder is not None:
            remainder.setflags(write=False)
        if not given:
            vectors.setflags(write=False)
            # The dense input is the view ``vectors`` returns.
            self.__dict__["vectors"] = vectors
            vectors = Monomial.scan(vectors.reshape(n, d, d))
        fields = {"d": d, "kinds": kinds, "labels": labels, "lam": lam, "remainder": remainder, "monomial": vectors}
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
        return len(self.kinds)

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
    # The remainder depends on the column index j only (clamp the
    # exact-boundary entries at zero).
    diag = np.tile(np.clip(weights, 0.0, None), d)
    scale = np.sqrt(lam)
    if isinstance(duals, Monomial):
        vectors = Monomial(duals.cols, scale * duals.values)
    else:
        vectors = scale * duals
    kinds, labels = _conclusive_table(d * d)
    return PovmSet(d=d, vectors=vectors, kinds=kinds, labels=labels, lam=float(lam), remainder=diag)


def _conclusive_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``kinds`` and ``labels`` of n conclusive outcomes alpha = 0, ..., n - 1, then the remainder."""
    kinds, labels = np.full(n + 1, CONCLUSIVE), np.arange(n + 1)
    kinds[n], labels[n] = REMAINDER, 0
    return kinds, labels


def _remainder(p: PovmSet) -> np.ndarray:
    """The remainder diagonal of an unrefined set."""
    if p.remainder is None:
        raise DecompositionError("POVM has no remainder element to refine")
    return p.remainder


def _refined(p: PovmSet, pieces: Monomial | np.ndarray, kind: int) -> PovmSet:
    """``p`` with its remainder replaced by the rank-one ``pieces``: monomial if both are, else dense.

    Piece k has kind ``kind`` and label k.
    """
    if p.monomial is not None and isinstance(pieces, Monomial):
        vectors = p.monomial.concat(pieces)
    else:
        dense = pieces.dense().reshape(len(pieces), -1) if isinstance(pieces, Monomial) else pieces
        vectors = np.concatenate([p.vectors, dense])
    n = len(pieces)
    kinds = np.concatenate([p.kinds[:-1], np.full(n, kind)])
    labels = np.concatenate([p.labels[:-1], np.arange(n)])
    return PovmSet(d=p.d, vectors=vectors, kinds=kinds, labels=labels, lam=p.lam)


def refine_inconclusive_product(p: PovmSet) -> PovmSet:
    """Replace the remainder by its d^2 diagonal rank-one pieces.

    New elements are weight |ij><ij| appended j-major (all i for j=0, then
    j=1, ...), giving a 2 d^2 element set; piece i + d j has kind
    ``PRODUCT`` and label i + d j.
    """
    diag = _remainder(p)
    d = p.d
    j, i = np.divmod(np.arange(d * d), d)
    cols = np.zeros((d * d, d), dtype=np.intp)
    values = np.zeros((d * d, d), dtype=complex)
    # Piece i + d j has its one nonzero in row i, column j.
    cols[np.arange(d * d), i] = j
    values[np.arange(d * d), i] = np.sqrt(diag[i * d + j])
    return _refined(p, Monomial(cols, values), PRODUCT)


def refine_inconclusive_residual(p: PovmSet, basis: UnitaryBasis) -> PovmSet:
    """Replace the remainder R by the d^2 pieces S P_a S, S = sqrt(R).

    P_a are the maximally entangled projectors, so piece a is |S e_a><S e_a|
    for the entangled ket e_a: rank-one, positive, and the pieces sum back
    to R exactly.  R is diagonal, so S e_a is sqrt(diag R) times e_a
    entrywise; entries of R below 1e-12 count as zero.  On a monomial
    basis, e_a[i*d + j] = U_a[i, j] / sqrt(d) is nonzero in one column j
    per row i, and so is the piece.  Piece a has kind ``RESIDUAL`` and
    label a.
    """
    diag = _remainder(p)
    d = p.d
    root = np.sqrt(np.where(diag < 1e-12, 0.0, diag))
    u = basis.monomial
    if u is None:
        pieces = root * maximally_entangled_basis(basis)
    else:
        pieces = Monomial(u.cols, root[np.arange(d) * d + u.cols] * (u.values / np.sqrt(d)))
    return _refined(p, pieces, RESIDUAL)


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
    kinds, labels = _conclusive_table(4)
    w0 = max(1.0 - lam / (1.0 - ct), 0.0)
    w1 = max(1.0 - lam / (1.0 + ct), 0.0)
    return PovmSet(
        d=2,
        vectors=Monomial(cols, np.sqrt(lam) * values),
        kinds=kinds,
        labels=labels,
        lam=float(lam),
        remainder=np.array([w0, w1, w0, w1]),
    )
