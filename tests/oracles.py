"""Dense oracles shared by the tests; the package builds no element stack."""

import numpy as np


def dense_elements(p):
    """Every element of ``p`` as a dense d^2 x d^2 matrix, shape (n, d^2, d^2) or (L, n, d^2, d^2).

    Element k is |w_k><w_k| for the k-th row w_k of ``p.vectors``, formed
    entry by entry as w_i conj(w_j); an unrefined set's last element is its
    remainder diag(R).
    """
    dense = np.einsum("...ki,...kj->...kij", p.vectors, p.vectors.conj())
    if p.remainder is not None:
        diag = p.remainder[..., None, None, :] * np.eye(p.joint_dim)
        dense = np.concatenate([dense, diag], axis=-3)
    return dense
