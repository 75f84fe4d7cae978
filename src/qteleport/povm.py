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
stores them as a ``Monomial`` (d entries per vector), and dense vectors
are built only on demand, for checks and the dilation.  The two
refinements sum to the same remainder but are inequivalent measurements;
the fidelity engine treats them as distinct strategies.

For a fixed channel and basis the column pattern does not depend on the
weight lam, so the builders also take a 1-D array of L weights and return
one set with a leading member axis: L POVMs sharing d, the outcome table
and the columns.  One weight is the length-1 case, returned without it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SchmidtChannel, dual_states
from .errors import DecompositionError, PositivityError, ShapeError
from .linalg import Monomial
from .weyl import UnitaryBasis, maximally_entangled_basis


# Outcome kind codes, the values of ``PovmSet.kinds``.
CONCLUSIVE, PRODUCT, RESIDUAL, REMAINDER = range(4)


def _readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _table(name: str, values, n: int) -> np.ndarray:
    """A read-only (n,) intp copy of ``values``; ``ShapeError`` for a wrong dtype or length."""
    table = np.asarray(values)
    if table.size and table.dtype.kind not in "iu":
        raise ShapeError(f"{name} must be integers, got dtype {table.dtype}")
    table = _readonly(table.astype(np.intp))[0]
    if table.shape != (n,):
        raise ShapeError(f"expected {name} of shape {(n,)}, got {table.shape}")
    return table


@dataclass(frozen=True, init=False, eq=False)
class PovmSet:
    """Ordered POVM on the d^2-dimensional joint space.

    Rank-one element k is |w_k><w_k|.  The vectors are given as a
    ``Monomial`` of n (d, d) matrices, row i of matrix k holding w_k[i*d + j]
    in column j, stored as ``monomial``; or as a dense (n, d^2) array (e.g.
    a realized Neumark extension), stored as the ``vectors`` view with
    ``monomial`` None, whatever its values.  ``vectors`` reads the dense
    form back, read-only, built on first use.  An unrefined set carries its
    diagonal remainder as ``remainder`` (shape (d^2,)), which is the last
    element; it is ``None`` once refined.  ``kinds`` and ``labels``,
    read-only integer arrays, classify each element, remainder included (see
    the module docstring); ``ShapeError`` refuses a wrong length, an unknown
    kind, a label outside [0, d^2) and a kind ``REMAINDER`` on any outcome
    but the remainder.  The set stores its own read-only intp copy of each
    table, so no two sets share one.  ``lam`` is the common conclusive
    weight.  A monomial set may carry a member axis of length ``members``
    (None without one): ``monomial.values`` (L, n, d), ``remainder``
    (L, d^2) and ``lam`` a read-only (L,) array, and so does ``vectors``;
    the rest is shared by the members.
    """

    d: int
    kinds: np.ndarray
    labels: np.ndarray
    lam: float | np.ndarray
    remainder: np.ndarray | None
    monomial: Monomial | None

    def __init__(
        self,
        d: int,
        vectors: Monomial | np.ndarray,
        kinds: np.ndarray,
        labels: np.ndarray,
        lam: float | np.ndarray,
        remainder: np.ndarray | None = None,
    ):
        joint = d * d
        given = isinstance(vectors, Monomial)
        shape = vectors.values.shape if given else vectors.shape
        # The member axis, if any: () or (L,).
        lead = shape[:-2] if given else ()
        n = shape[-2] if given else shape[0] if shape else 0
        want = lead + (n, d) if given else (n, joint)
        if shape != want:
            raise ShapeError(f"expected vectors of shape {want}, got {shape}")
        if np.shape(lam) != lead:
            raise ShapeError(f"expected weights of shape {lead}, got {np.shape(lam)}")
        if remainder is not None and remainder.shape != lead + (joint,):
            raise ShapeError(f"expected a remainder diagonal of shape {lead + (joint,)}, got {remainder.shape}")
        kinds = _table("kinds", kinds, n + (remainder is not None))
        labels = _table("labels", labels, len(kinds))
        # Outcomes 0..n-1 are the vectors and outcome n, if any, the remainder.
        if remainder is not None and kinds[n] != REMAINDER:
            raise ShapeError(f"a remainder diagonal needs the last kind REMAINDER, got {kinds[n]}")
        if remainder is None and n and kinds[n - 1] == REMAINDER:
            raise ShapeError("a last kind REMAINDER needs a remainder diagonal")
        # A negative entry wraps to a large unsigned one, so one max checks both ends.
        if n and kinds[:n].view(np.uintp).max() >= REMAINDER:
            codes = sorted(set(kinds[:n].tolist()))
            raise ShapeError(f"vector outcomes need kinds CONCLUSIVE, PRODUCT or RESIDUAL, got {codes}")
        if labels.size and labels.view(np.uintp).max() >= joint:
            raise ShapeError(f"outcome labels must lie in [0, {joint}), got {labels.min()}..{labels.max()}")
        if remainder is not None:
            remainder.setflags(write=False)
        lam = _readonly(np.array(lam, dtype=float))[0] if lead else lam
        if not given:
            vectors.setflags(write=False)
            # The dense input is the view ``vectors`` returns.
            self.__dict__["vectors"] = vectors
        # Frozen: the fields go straight into the instance dict.
        monomial = vectors if given else None
        self.__dict__.update(d=d, kinds=kinds, labels=labels, lam=lam, remainder=remainder, monomial=monomial)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Dense vectors, shape (n, d^2) or (L, n, d^2), built on first use from ``monomial``."""
        dense = self.monomial.dense().reshape(self.monomial.values.shape[:-1] + (-1,))
        dense.setflags(write=False)
        return dense

    @cached_property
    def _split(self) -> tuple:
        """``_outcome_split`` of ``kinds``."""
        return _outcome_split(self.kinds)

    @property
    def members(self) -> int | None:
        """The length L of the member axis, or None for a single set."""
        return len(self.lam) if np.ndim(self.lam) else None

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
    return float(ch.dim * ch.probs.min())


def _one_or_all(one: bool, lams: np.ndarray, *stacks: np.ndarray) -> tuple:
    """The weights and per-member stacks as built, or, for one weight, its float and member 0 of each."""
    if one:
        return (float(lams[0]), *(stack[0] for stack in stacks))
    return (lams, *stacks)


def build_conclusive_povm(ch: SchmidtChannel, basis: UnitaryBasis, lam) -> PovmSet:
    """d^2 conclusive elements lam |dual_a><dual_a| plus the diagonal remainder.

    The weights are equal across outcomes; each conclusive outcome then
    occurs with Haar-average probability lam / d^2 and identifies its
    measurement state exactly.  ``lam`` is one weight, or a non-empty 1-D
    array of them for a set with a member axis, which needs a monomial
    basis; ``ShapeError`` otherwise.
    """
    d = ch.dim
    one = np.ndim(lam) == 0
    lams = np.array(lam, dtype=float, ndmin=1)
    if lams.ndim != 1 or not lams.size:
        raise ShapeError(f"need one weight or a non-empty 1-D array of weights, got shape {np.shape(lam)}")
    negative = lams[~(lams >= 0)]  # also rejects NaN
    if negative.size:
        raise PositivityError(f"weight must be nonnegative, got {negative[0]}")
    # The duals reject a singular channel before the weights divide by a_j^2.
    duals = dual_states(ch, basis)
    monomial = isinstance(duals, Monomial)
    if not one and not monomial:
        raise ShapeError("a stack of weights needs a monomial basis")
    # Remainder weights per member and column index j: 1 - lam / (d a_j^2).
    weights = 1.0 - lams[:, None] / (d * ch.probs)
    member, bad = (weights < -1e-12).nonzero()
    if bad.size:
        raise PositivityError(
            f"weight {lams[member[0]]} exceeds the positivity bound {lambda_max(ch)} "
            f"(remainder entry negative for column j={bad[member == member[0]].tolist()})"
        )
    # The remainder depends on the column index j only (clamp the
    # exact-boundary entries at zero).
    diag = np.maximum(weights, 0.0)[:, np.arange(d * d) % d]
    scale = np.sqrt(lams)[:, None, None]
    kinds, labels = _conclusive_table(d * d)
    lam, values, diag = _one_or_all(one, lams, scale * (duals.values if monomial else duals), diag)
    vectors = Monomial(duals.cols, values) if monomial else values
    return PovmSet(d=d, vectors=vectors, kinds=kinds, labels=labels, lam=lam, remainder=diag)


def _conclusive_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``kinds`` and ``labels`` of n conclusive outcomes alpha = 0, ..., n - 1, then the remainder (label 0)."""
    kinds = np.full(n + 1, CONCLUSIVE)
    kinds[n] = REMAINDER
    return kinds, np.arange(n + 1) % n


def _outcome_split(kinds: np.ndarray) -> tuple:
    """The conclusive mask, its complement and the strategy.

    The strategy is ``product`` if any outcome has kind ``PRODUCT``, else
    ``residual`` if any has kind ``RESIDUAL``, else ``conclusive-only``.
    """
    conclusive = kinds == CONCLUSIVE
    rest = ~conclusive
    present = np.bincount(kinds, minlength=RESIDUAL + 1)
    strategy = "product" if present[PRODUCT] else "residual" if present[RESIDUAL] else "conclusive-only"
    return _readonly(conclusive, rest) + (strategy,)


def _remainder(p: PovmSet) -> np.ndarray:
    """The remainder diagonal of an unrefined set, (d^2,) or (L, d^2)."""
    if p.remainder is None:
        raise DecompositionError("POVM has no remainder element to refine")
    return p.remainder


def _refined(p: PovmSet, pieces: Monomial | np.ndarray, kind: int) -> PovmSet:
    """``p`` with its remainder replaced by the d^2 rank-one ``pieces``: monomial if both are, else dense.

    Piece k has kind ``kind`` and label k, appended to ``p``'s table in
    place of the remainder's entry; the member axis, if any, maps through.
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
    k = np.arange(d * d)
    j, i = np.divmod(k, d)
    cols = np.zeros((d * d, d), dtype=np.intp)
    values = np.zeros(diag.shape[:-1] + (d * d, d), dtype=complex)
    # Piece k = i + d j has its one nonzero in row i, column j.
    cols[k, i] = j
    values[..., k, i] = np.sqrt(diag[..., i * d + j])
    return _refined(p, Monomial(cols, values), PRODUCT)


def refine_inconclusive_residual(p: PovmSet, basis: UnitaryBasis) -> PovmSet:
    """Replace the remainder R by the d^2 pieces S P_a S, S = sqrt(R).

    P_a are the maximally entangled projectors, so piece a is |S e_a><S e_a|
    for the entangled ket e_a: rank-one, positive, and the pieces sum back
    to R exactly.  R is diagonal, so S e_a is sqrt(diag R) times e_a
    entrywise; entries of R below 1e-12 count as zero.  On a monomial
    basis, e_a[i*d + j] = U_a[i, j] / sqrt(d) is nonzero in one column j
    per row i, and so is the piece.  Piece a has kind ``RESIDUAL`` and
    label a.  A set with a member axis needs a monomial basis.
    """
    diag = _remainder(p)
    d = p.d
    root = np.sqrt(np.where(diag < 1e-12, 0.0, diag))
    u = basis.monomial
    if u is None:
        if p.members:
            raise ShapeError("a set with a member axis needs a monomial basis")
        pieces = root * maximally_entangled_basis(basis)
    else:
        pieces = Monomial(u.cols, root[..., np.arange(d) * d + u.cols] * (u.values / np.sqrt(d)))
    return _refined(p, pieces, RESIDUAL)


@dataclass(frozen=True)
class ThetaPovmFamily:
    """d=2 measurement family with the conclusive overlap relaxed.

    ``cos_theta_c`` fixes the channel; ``cos_theta`` sets the overlap of the
    four measurement states (equal to cos_theta_c for the conclusive set,
    0 for orthogonal measurement).  Positivity requires
    0 <= lam <= 1 - |cos_theta|.  ``lam`` is one number (``ShapeError``
    otherwise); a stack of weights is a sequence of families.
    """

    cos_theta_c: float
    cos_theta: float
    lam: float

    def __post_init__(self):
        if np.ndim(self.lam):
            raise ShapeError(f"weight must be one number, got shape {np.shape(self.lam)}; stack families instead")
        if not -1.0 < self.cos_theta < 1.0:
            raise PositivityError(f"cos_theta must lie in (-1, 1), got {self.cos_theta}")
        if not -1.0 < self.cos_theta_c < 1.0:
            raise PositivityError(f"cos_theta_c must lie in (-1, 1), got {self.cos_theta_c}")
        bound = 1.0 - abs(self.cos_theta)
        if not 0.0 <= self.lam <= bound + 1e-12:
            raise PositivityError(
                f"weight {self.lam} outside [0, 1 - |cos_theta|] = [0, {bound}]"
            )


def build_theta_povm(fam: ThetaPovmFamily | Sequence[ThetaPovmFamily]) -> PovmSet:
    """Four rank-one elements with relative overlap cos_theta, plus remainder.

    At cos_theta = cos_theta_c this reproduces the conclusive POVM of the
    family's channel element-for-element; at cos_theta = 0 the four states
    become Bell projectors scaled by lam.  A non-empty sequence of families
    that share one ``cos_theta_c`` (``ShapeError`` otherwise) gives one set
    with a member axis, member k built from family k.
    """
    one = isinstance(fam, ThetaPovmFamily)
    fams = [fam] if one else list(fam)
    if len({f.cos_theta_c for f in fams}) != 1:
        raise ShapeError("a stack of theta families needs at least one family and one cos_theta_c")
    ct = np.array([f.cos_theta for f in fams])
    lams = np.array([f.lam for f in fams], dtype=float)
    n = 1.0 / np.sqrt(2.0 - 2.0 * ct * ct)
    hi = np.sqrt(1.0 + ct)
    lo = np.sqrt(1.0 - ct)
    # Row i, column j of state k holds its component on |ij>: |00> and |11>
    # for the first two states, |01> and |10> for the last two.
    cols = np.array([[0, 1], [0, 1], [1, 0], [1, 0]])
    values = np.stack([n * hi, n * lo, n * hi, -n * lo, n * lo, n * hi, -n * lo, n * hi], axis=1).astype(complex)
    w0 = np.maximum(1.0 - lams / (1.0 - ct), 0.0)
    w1 = np.maximum(1.0 - lams / (1.0 + ct), 0.0)
    scaled = np.sqrt(lams)[:, None, None] * values.reshape(-1, 4, 2)
    lam, values, remainder = _one_or_all(one, lams, scaled, np.stack([w0, w1, w0, w1], axis=1))
    kinds, labels = _conclusive_table(4)
    return PovmSet(d=2, vectors=Monomial(cols, values), kinds=kinds, labels=labels, lam=lam, remainder=remainder)
