"""Realize a refined POVM as an orthogonal measurement on an extended space.

Stacking the rank-one element vectors w_a (``PovmSet.vectors``) as

    W = sum_a |x_a><w_a| ,

where x_a is the a-th extended product-basis ket, gives an isometry from
the d^2-dim joint space into joint (x) ancilla, because sum_a |w_a><w_a| is
the identity.  Completing W's columns to a full orthonormal basis yields a
unitary U on the extended space with U (|s> (x) |0>_anc) = W |s>, so
projective measurement of the product basis after U reproduces every POVM
probability exactly.  The ancilla dimension must be at least d (and the
extended space must hold one basis ket per outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import SchmidtChannel
from .errors import CapacityError, DecompositionError
from .fidelity import channel_maps
from .povm import PovmSet


@dataclass(frozen=True)
class DilationResult:
    """Extended-space unitary of a refined POVM.

    Outcome a is the projector on the a-th extended product-basis ket;
    ``residuals[a]`` is the max-abs reconstruction error of element a.
    """

    d: int
    ancilla_dim: int
    u_ext: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        self.u_ext.setflags(write=False)
        self.residuals.setflags(write=False)

    @property
    def joint_dim(self) -> int:
        return self.d * self.d

    @property
    def extended_dim(self) -> int:
        return self.joint_dim * self.ancilla_dim


def _complete_isometry(w: np.ndarray) -> np.ndarray:
    """Extend isometry columns to a square unitary, deterministically.

    Householder QR of [W | I] gives a unitary whose leading columns span
    W's columns; W is an isometry, so each equals its column of W up to the
    phase of the matching diagonal entry of R, which is restored.
    """
    dim, cols = w.shape
    q, r = np.linalg.qr(np.hstack([w, np.eye(dim)]))
    phases = np.diag(r)[:cols]
    q[:, :cols] *= phases / np.abs(phases)
    return q


def dilate(p: PovmSet, ancilla_dim: int | None = None) -> DilationResult:
    """Build the extended-space unitary realizing the refined POVM.

    Outcome a is assigned the a-th extended product-basis ket
    (lexicographic order), i.e. joint index a // ancilla_dim with ancilla
    level a % ancilla_dim.
    """
    d = p.d
    d_a = d if ancilla_dim is None else int(ancilla_dim)
    if d_a < d:
        raise CapacityError(
            f"ancilla dimension {d_a} below the minimum {d}; the extension "
            f"needs capacity for {p.n_outcomes} outcomes in a {p.joint_dim}x{d_a} space"
        )
    if p.n_outcomes > p.joint_dim * d_a:
        raise CapacityError(
            f"{p.n_outcomes} outcomes exceed the extended dimension {p.joint_dim * d_a}"
        )
    if not p.is_refined():
        raise DecompositionError("dilation needs a refined (all rank-one) POVM")
    joint = p.joint_dim
    ext = joint * d_a
    # Isometry acting on |s> (x) |0>_anc: column s holds W|s>.
    w = np.zeros((ext, joint), dtype=complex)
    w[: p.n_outcomes] = p.vectors.conj()
    # Input (s, 0) maps to W|s>; the inputs (s, a > 0), in index order,
    # take the completing columns.
    completed = _complete_isometry(w)
    inputs = np.arange(ext).reshape(joint, d_a)
    u_ext = np.empty((ext, ext), dtype=complex)
    u_ext[:, inputs[:, 0]] = completed[:, :joint]
    u_ext[:, inputs[:, 1:].ravel()] = completed[:, joint:]
    dil = DilationResult(d=d, ancilla_dim=d_a, u_ext=u_ext, residuals=np.empty(0))
    rebuilt = realized_povm(dil, p).elements
    return replace(dil, residuals=np.max(np.abs(rebuilt - p.elements), axis=(1, 2)))


def realized_povm(dil: DilationResult, p: PovmSet) -> PovmSet:
    """The POVM the extension actually measures, with ``p``'s tags.

    Outcome a is found with amplitude U[x_a, (s, 0)] = conj(w_a[s]), so the
    realized element vectors are the conjugated rows of U on the inputs
    (s, 0); they equal ``p.vectors`` up to rounding.
    """
    vectors = dil.u_ext[: p.n_outcomes, :: dil.ancilla_dim].conj()
    return PovmSet(d=dil.d, vectors=vectors, tags=p.tags, lam=p.lam)


def outcome_probabilities(dil: DilationResult, p: PovmSet, state12: np.ndarray) -> np.ndarray:
    """Per-outcome probabilities measured through the extension.

    ``state12`` is a normalized ket on the d^2-dim joint space; outcome a
    is found with the squared amplitude of extended ket a in
    U (state (x) |0>_anc).
    """
    return np.abs(realized_povm(dil, p).vectors.conj() @ state12) ** 2


def dilated_channel_maps(dil: DilationResult, p: PovmSet, ch: SchmidtChannel) -> np.ndarray:
    """Amplitude maps recomputed from the extension, shape (n, d, d).

    T_a[k, i] = a_k * U[x_a, (i*d + k, 0)]; agreement with the direct maps
    certifies the dilation run-for-run, not just on averages.
    """
    return channel_maps(realized_povm(dil, p), ch)
