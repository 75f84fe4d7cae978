import numpy as np
import pytest

from qteleport.channel import (
    basis_states,
    dual_states,
    make_channel,
    qubit_channel_from_cos_theta,
)
from qteleport.errors import NormalizationError, SingularChannelError
from qteleport.linalg import haar_random_ket, partial_trace, von_neumann_entropy
from qteleport.weyl import build_weyl_basis, maximally_entangled_basis


def maximal(d):
    return make_channel(np.full(d, 1 / np.sqrt(d)))


class TestMakeChannel:
    def test_maximally_entangled_qubit(self):
        ch = make_channel([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.argmin(ch.coeffs) == 0  # lowest index wins the tie
        assert np.sum(ch.probs) == pytest.approx(1.0, abs=1e-15)

    def test_k_min_tracks_smallest(self):
        ch = make_channel(np.sqrt([0.8, 0.2]))
        assert np.argmin(ch.coeffs) == 1

    def test_cos_theta_parameterization(self):
        ch = qubit_channel_from_cos_theta(0.6)
        # Direct evaluation of sqrt((1 -/+ 0.6)/2).
        np.testing.assert_allclose(ch.coeffs, [np.sqrt(0.2), np.sqrt(0.8)], atol=1e-12)
        np.testing.assert_allclose(ch.coeffs, [0.4472135955, 0.8944271910], atol=1e-9)
        assert np.argmin(ch.coeffs) == 0

    def test_rejects_negative(self):
        with pytest.raises(NormalizationError):
            make_channel([0.9, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            make_channel([0.9, 0.2])

    def test_ket_layout(self):
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        psi = ch.ket()
        assert psi[0] == pytest.approx(np.sqrt(0.5))
        assert psi[4] == pytest.approx(np.sqrt(0.3))
        assert psi[8] == pytest.approx(np.sqrt(0.2))
        assert np.count_nonzero(psi) == 3


class TestBasisStates:
    def test_maximal_channel_gives_entangled_basis(self):
        basis = build_weyl_basis(3)
        states = basis_states(maximal(3), basis)
        np.testing.assert_allclose(states, maximally_entangled_basis(basis), atol=1e-12)

    def test_gram_off_diagonals_match_inner_product_oracle(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        states = basis_states(ch, basis)
        gram = states.conj() @ states.T
        # Independent oracle: <psi_a|psi_b> = Tr(U_a^dag U_b diag(a^2)).
        want = np.array(
            [
                [
                    np.trace(basis.ops[a].conj().T @ basis.ops[b] @ np.diag(ch.probs))
                    for b in range(4)
                ]
                for a in range(4)
            ]
        )
        np.testing.assert_allclose(gram, want, atol=1e-12)
        # The pairs related by the clock operator overlap by a1^2 - a2^2.
        assert abs(gram[0, 1]) == pytest.approx(0.6, abs=1e-12)
        assert abs(gram[2, 3]) == pytest.approx(0.6, abs=1e-12)
        assert abs(gram[0, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_unit_norms(self):
        basis = build_weyl_basis(3)
        states = basis_states(make_channel(np.sqrt([0.5, 0.3, 0.2])), basis)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_singular_channel_rejected(self):
        basis = build_weyl_basis(2)
        with pytest.raises(SingularChannelError):
            basis_states(make_channel([0.0, 1.0]), basis)


class TestDualStates:
    def test_maximal_channel_self_dual(self):
        basis = build_weyl_basis(2)
        ch = maximal(2)
        np.testing.assert_allclose(
            dual_states(ch, basis), basis_states(ch, basis), atol=1e-12
        )

    def test_biorthogonality(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        cross = dual_states(ch, basis).conj() @ basis_states(ch, basis).T
        assert np.max(np.abs(cross - np.eye(9))) <= 1e-10

    def test_norms_match_coefficient_oracle(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        duals = dual_states(ch, basis)
        d = 2
        for a in range(4):
            # Brute force straight from the dual coefficient tensor.
            want = sum(
                abs(basis.ops[a][i, j]) ** 2 / ch.probs[j] / d**2
                for i in range(d)
                for j in range(d)
            )
            assert np.vdot(duals[a], duals[a]).real == pytest.approx(want, abs=1e-12)
        assert np.vdot(duals[0], duals[0]).real == pytest.approx(1.5625, abs=1e-12)

    def test_singular_channel_rejected(self):
        basis = build_weyl_basis(2)
        with pytest.raises(SingularChannelError):
            dual_states(make_channel([1.0, 0.0]), basis)


class TestStructuralIdentities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_modified_completeness(self, d):
        rng = np.random.default_rng(d)
        probs = rng.random(d) + 0.2
        ch = make_channel(np.sqrt(probs / probs.sum()))
        basis = build_weyl_basis(d)
        states = basis_states(ch, basis)
        gamma_inv = dual_states(ch, basis).conj().reshape(d * d, d, d)
        ident = np.einsum("aij,ak->kij", gamma_inv, states).reshape(d * d, d * d)
        assert np.max(np.abs(ident - np.eye(d * d))) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_joint_state_expansion(self, d):
        rng = np.random.default_rng(20 + d)
        probs = rng.random(d) + 0.2
        ch = make_channel(np.sqrt(probs / probs.sum()))
        basis = build_weyl_basis(d)
        states = basis_states(ch, basis)
        for _ in range(20):
            phi = haar_random_ket(d, rng)
            joint = np.kron(phi, ch.ket())
            expansion = sum(
                np.kron(states[a], basis.ops[a].conj().T @ phi) for a in range(d * d)
            ) / d
            assert np.max(np.abs(joint - expansion)) <= 1e-10

    def test_reduced_state_entropy(self):
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        rho = np.outer(ch.ket(), ch.ket().conj())
        reduced = partial_trace(rho, 1, [3, 3])
        want = float(-np.sum(ch.probs * np.log2(ch.probs)))
        assert von_neumann_entropy(reduced) == pytest.approx(want, abs=1e-12)

    def test_gamma_inverse_relations(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.4, 0.35, 0.25]))
        gamma = basis_states(ch, basis).reshape(9, 3, 3)
        gamma_inv = dual_states(ch, basis).conj().reshape(9, 3, 3)
        left = np.einsum("aij,akl->ijkl", gamma_inv, gamma)
        target = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
        assert np.max(np.abs(left - target)) <= 1e-10
        right = np.einsum("aij,bij->ab", gamma, gamma_inv)
        assert np.max(np.abs(right - np.eye(9))) <= 1e-10
