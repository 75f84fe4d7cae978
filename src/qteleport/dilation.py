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

The reconstruction residuals compare the element vectors read back from U
with w_a, entry by entry of |v_a><v_a| - |w_a><w_a|, a few outcomes at a
time; no dense element stack is built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel
from .errors import CapacityError, DecompositionError, DomainError
from .fidelity import channel_maps
from .linalg import chunks
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


def _complete_isometry(w: np.ndarray) -> np.ndarray:
    """Extend isometry columns to a square unitary, deterministically.

    The complete Householder QR of W gives Q = H_1 ... H_k for W's k
    columns.  Column j < k of Q is H_1 ... H_{j+1} e_j, since the later
    reflectors leave e_j alone, so these columns are those the QR of
    [W | I] gives and span W's columns.  W is an isometry, so each equals
    its column of W up to the phase of R's diagonal entry, which is
    restored; the other columns of Q complete the basis.
    """
    cols = w.shape[1]
    q, r = np.linalg.qr(w, mode="complete")
    phases = np.diag(r)
    q[:, :cols] *= phases / np.abs(phases)
    return q


def dilate(p: PovmSet, ancilla_dim: int | None = None) -> DilationResult:
    """Build the extended-space unitary realizing the refined POVM.

    Outcome a is assigned the a-th extended product-basis ket
    (lexicographic order), i.e. joint index a // ancilla_dim with ancilla
    level a % ancilla_dim, an int (not a bool; ``DomainError``) of at least
    d (``CapacityError``).  A set with a member axis raises ``DomainError``.
    """
    if p.members:
        raise DomainError(f"dilate takes one POVM, got a stack of {p.members} members")
    d = p.d
    d_a = d if ancilla_dim is None else ancilla_dim
    if isinstance(d_a, bool) or not isinstance(d_a, numbers.Integral):
        raise DomainError(f"ancilla dimension must be an integer, got {d_a!r}")
    d_a = int(d_a)
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
    n = p.n_outcomes
    # The isometry on |s> (x) |0>_anc has column s = W|s>, nonzero in its
    # first n rows only.  Its Householder reflectors vanish on the other
    # rows, so its complete Q is q (+) I, with q that of the n nonzero rows.
    q = _complete_isometry(p.vectors.conj())
    # Input (s, 0) takes column s; the inputs (s, a > 0), in index order,
    # take the completing columns: q's, then the unit columns.
    inputs = np.arange(ext).reshape(joint, d_a)
    dest = np.concatenate([inputs[:, 0], inputs[:, 1:].ravel()])
    u_ext = np.zeros((ext, ext), dtype=complex)
    u_ext[:n, dest[:n]] = q
    u_ext[np.arange(n, ext), dest[n:]] = 1.0
    # Conjugated, the rows of U on the inputs (s, 0) are the realized vectors (see ``realized_povm``).
    residuals = _residuals(u_ext[:n, ::d_a].conj(), p.vectors)
    return DilationResult(d=d, ancilla_dim=d_a, u_ext=u_ext, residuals=residuals)


def _residuals(realized: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """max|v_a v_a^† - w_a w_a^†| per outcome, from the vectors in bounded chunks.

    Each entry is the einsum product v_i conj(v_j), so the result equals the
    comparison of full element stacks bit for bit without holding either.
    """
    n, joint = wanted.shape
    out = np.empty(n)
    for part in chunks(n, joint * joint):
        v, w = realized[part], wanted[part]
        diff = np.einsum("ki,kj->kij", v, v.conj())
        diff -= np.einsum("ki,kj->kij", w, w.conj())
        out[part] = np.max(np.abs(diff), axis=(1, 2))
    return out


def realized_povm(dil: DilationResult, p: PovmSet) -> PovmSet:
    """The POVM the extension actually measures, with ``p``'s ``kinds`` and ``labels``.

    Outcome a is found with amplitude U[x_a, (s, 0)] = conj(w_a[s]), so the
    realized element vectors are the conjugated rows of U on the inputs
    (s, 0); they equal ``p.vectors`` up to rounding.
    """
    vectors = dil.u_ext[: p.n_outcomes, :: dil.ancilla_dim].conj()
    return PovmSet(d=dil.d, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)


def outcome_probabilities(dil: DilationResult, p: PovmSet, state12: np.ndarray) -> np.ndarray:
    """Per-outcome probabilities measured through the extension.

    ``state12`` is a normalized ket on the d^2-dim joint space; outcome a
    is found with the squared amplitude of extended ket a in
    U (state (x) |0>_anc).
    """
    return np.abs(np.ascontiguousarray(dil.u_ext[: p.n_outcomes, :: dil.ancilla_dim]) @ state12) ** 2


def dilated_channel_maps(dil: DilationResult, p: PovmSet, ch: SchmidtChannel) -> np.ndarray:
    """Amplitude maps recomputed from the extension, shape (n, d, d).

    T_a[k, i] = a_k * U[x_a, (i*d + k, 0)]; agreement with the direct maps
    certifies the dilation run-for-run, not just on averages.
    """
    return channel_maps(realized_povm(dil, p), ch)
