import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.errors import PositivityError, ShapeError, SingularChannelError
from qteleport.povm import (
    Conclusive,
    InconclusiveProduct,
    InconclusiveResidual,
    PovmSet,
    Remainder,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.weyl import build_weyl_basis, maximally_entangled_basis


def random_channel(d, rng):
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def completeness_residual(p):
    return np.max(np.abs(p.elements.sum(axis=0) - np.eye(p.joint_dim)))


def min_eigenvalue(p):
    return min(float(np.linalg.eigvalsh(el)[0]) for el in p.elements)


class TestLambdaMax:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        ch = make_channel(np.full(d, 1 / np.sqrt(d)))
        assert lambda_max(ch) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_example_with_eigenvalue_crosscheck(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        assert lambda_max(ch) == pytest.approx(0.4, abs=1e-12)
        at_max = build_conclusive_povm(ch, basis, 0.4)
        assert min_eigenvalue(at_max) >= -1e-10
        with pytest.raises(PositivityError):
            build_conclusive_povm(ch, basis, 0.41)

    def test_qutrit_example(self):
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        assert lambda_max(ch) == pytest.approx(0.6, abs=1e-12)


class TestConclusivePovm:
    def test_remainder_diagonal_example(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        p = build_conclusive_povm(ch, basis, 0.4)
        # Columns j carry weight 1 - lam/(2 a_j^2): 0.75 for j=0, 0 for j=1.
        np.testing.assert_allclose(
            p.elements[-1], np.diag([0.75, 0.0, 0.75, 0.0]), atol=1e-12
        )

    def test_maximal_channel_full_weight_is_orthogonal_measurement(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.full(d, 1 / np.sqrt(d)))
        p = build_conclusive_povm(ch, basis, 1.0)
        assert np.max(np.abs(p.elements[-1])) <= 1e-12
        kets = maximally_entangled_basis(basis)
        for a in range(d * d):
            want = np.outer(kets[a], kets[a].conj())
            np.testing.assert_allclose(p.elements[a], want, atol=1e-12)

    def test_identification(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        from qteleport.channel import basis_states

        states = basis_states(ch, basis)
        p = build_conclusive_povm(ch, basis, 0.3)
        born = np.einsum("ai,nij,aj->na", states.conj(), p.elements[:9], states).real
        off = born - np.diag(np.diag(born))
        assert np.max(np.abs(off)) / np.min(np.diag(born)) <= 1e-10
        np.testing.assert_allclose(np.diag(born), 0.3, atol=1e-12)

    def test_negative_weight_rejected(self):
        basis = build_weyl_basis(2)
        with pytest.raises(PositivityError):
            build_conclusive_povm(qubit_channel_from_cos_theta(0.5), basis, -0.05)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, lam):
        basis = build_weyl_basis(2)
        with pytest.raises(PositivityError):
            build_conclusive_povm(qubit_channel_from_cos_theta(0.5), basis, lam)

    @pytest.mark.parametrize(
        "coeffs, lam", [([1.0, 0.0], 0.0), ([0.6, 0.8, -0.0], 0.0), ([1e-170, 1.0], 0.5)]
    )
    def test_singular_channel_rejected_before_dividing(self, coeffs, lam):
        # A zero (or underflowing) a_j^2 would divide by zero in the remainder weights.
        ch = make_channel(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularChannelError):
                build_conclusive_povm(ch, build_weyl_basis(ch.dim), lam)

    def test_error_names_violating_column(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        with pytest.raises(PositivityError, match=r"j=\[1\]"):
            build_conclusive_povm(ch, basis, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_positivity_and_completeness(self, d, seed, frac):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(seed))
        p = build_conclusive_povm(ch, basis, frac * lambda_max(ch))
        assert completeness_residual(p) <= 1e-10
        assert min_eigenvalue(p) >= -1e-10


class TestRankOneStorage:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_elements_match_dense_construction(self, d):
        rng = np.random.default_rng(d + 30)
        basis = build_weyl_basis(d)
        ch = random_channel(d, rng)
        lam = 0.6 * lambda_max(ch)
        base = build_conclusive_povm(ch, basis, lam)
        # Dense elements straight from the definitions, no element vectors.
        duals = np.array([(u / (d * ch.coeffs[None, :])).ravel() for u in basis.ops])
        conclusive = [lam * np.outer(v, v.conj()) for v in duals]
        rem = np.tile(1 - lam / (d * ch.probs), d)
        s = np.diag(np.sqrt(rem))
        kets = [(u / np.sqrt(d)).ravel() for u in basis.ops]
        residual = [s @ np.outer(k, k.conj()) @ s for k in kets]
        product = []
        for j in range(d):
            for i in range(d):
                piece = np.zeros((d * d, d * d))
                piece[i * d + j, i * d + j] = rem[i * d + j]
                product.append(piece)
        for p, want in (
            (base, conclusive + [np.diag(rem)]),
            (refine_inconclusive_product(base), conclusive + product),
            (refine_inconclusive_residual(base, basis), conclusive + residual),
        ):
            assert np.max(np.abs(p.elements - np.array(want))) <= 1e-15

    def test_fields_and_cached_read_only_view(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        base = build_conclusive_povm(ch, basis, 0.3)
        assert base.vectors.shape == (d * d, d * d)
        assert base.remainder.shape == (d * d,)
        assert not base.is_refined()
        refined = refine_inconclusive_residual(base, basis)
        assert refined.vectors.shape == (2 * d * d, d * d)
        assert refined.remainder is None
        assert refined.elements is refined.elements
        for arr in (base.vectors, base.remainder, refined.elements):
            assert not arr.flags.writeable
        # The remainder diagonal and a last Remainder tag come together.
        with pytest.raises(ShapeError):
            PovmSet(d=d, vectors=base.vectors, tags=base.tags[:-1] + (Conclusive(9),), lam=0.3,
                    remainder=base.remainder)
        with pytest.raises(ShapeError):
            PovmSet(d=d, vectors=np.zeros((d * d + 1, d * d)), tags=base.tags, lam=0.3)


class TestProductRefinement:
    def test_count_and_tags(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        refined = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.3))
        assert refined.n_outcomes == 2 * 9
        assert sum(isinstance(t, Conclusive) for t in refined.tags) == 9
        assert sum(isinstance(t, InconclusiveProduct) for t in refined.tags) == 9
        assert refined.is_refined()

    def test_weights_follow_refinement_table(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        lam = lambda_max(ch)
        refined = refine_inconclusive_product(build_conclusive_povm(ch, basis, lam))
        # Appended j-major: (i=0,j=0), (1,0), (0,1), (1,1); weight 1 - lam/(2 a_j^2).
        expected_order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for k, (i, j) in enumerate(expected_order):
            tag = refined.tags[4 + k]
            assert (tag.i, tag.j) == (i, j)
            el = refined.elements[4 + k]
            flat = i * 2 + j
            want = max(1.0 - lam / (2 * ch.probs[j]), 0.0)
            assert el[flat, flat].real == pytest.approx(want, abs=1e-12)
            assert np.count_nonzero(np.abs(el) > 1e-14) <= 1

    def test_optimal_weight_zeroes_smallest_column(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        refined = refine_inconclusive_product(
            build_conclusive_povm(ch, basis, lambda_max(ch))
        )
        zero_weights = [
            t
            for t, el in zip(refined.tags, refined.elements)
            if isinstance(t, InconclusiveProduct) and np.max(np.abs(el)) <= 1e-14
        ]
        assert len(zero_weights) == 3
        assert all(t.j == np.argmin(ch.coeffs) for t in zero_weights)

    def test_completeness_preserved(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.7, 0.3]))
        refined = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.25))
        assert completeness_residual(refined) <= 1e-10
        assert min_eigenvalue(refined) >= -1e-10


class TestResidualRefinement:
    def test_maximal_channel_full_weight_gives_zero_pieces(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.full(2, 1 / np.sqrt(2)))
        refined = refine_inconclusive_residual(
            build_conclusive_povm(ch, basis, 1.0), basis
        )
        for tag, el in zip(refined.tags, refined.elements):
            if isinstance(tag, InconclusiveResidual):
                assert np.max(np.abs(el)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_pieces_sum_to_remainder(self, d):
        rng = np.random.default_rng(d * 7)
        basis = build_weyl_basis(d)
        for _ in range(5):
            ch = random_channel(d, rng)
            lam = 0.5 * lambda_max(ch)
            base = build_conclusive_povm(ch, basis, lam)
            refined = refine_inconclusive_residual(base, basis)
            pieces = refined.elements[d * d :].sum(axis=0)
            assert np.max(np.abs(pieces - base.elements[-1])) <= 1e-10
            assert completeness_residual(refined) <= 1e-10

    def test_pieces_are_rank_one(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        refined = refine_inconclusive_residual(
            build_conclusive_povm(ch, basis, 0.2), basis
        )
        for tag, el in zip(refined.tags, refined.elements):
            if isinstance(tag, InconclusiveResidual):
                vals = np.linalg.eigvalsh(el)
                assert vals[-1] > 1e-8
                assert np.sum(vals > 1e-10) == 1


class TestThetaFamily:
    def test_matches_conclusive_set_at_channel_angle(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        lam = 1.0 - 0.6
        theta = build_theta_povm(ThetaPovmFamily(0.6, 0.6, lam))
        conclusive = build_conclusive_povm(ch, basis, lam)
        assert np.max(np.abs(theta.elements - conclusive.elements)) <= 1e-10
        refined_t = refine_inconclusive_product(theta)
        refined_c = refine_inconclusive_product(conclusive)
        assert np.max(np.abs(refined_t.elements - refined_c.elements)) <= 1e-10
        assert refined_t.tags == refined_c.tags

    def test_orthogonal_limit_is_scaled_bell_projectors(self):
        lam = 0.7
        theta = build_theta_povm(ThetaPovmFamily(0.3, 0.0, lam))
        kets = maximally_entangled_basis(build_weyl_basis(2))
        for a in range(4):
            want = lam * np.outer(kets[a], kets[a].conj())
            np.testing.assert_allclose(theta.elements[a], want, atol=1e-12)

    def test_remainder_eigenvalues_at_boundary(self):
        theta = build_theta_povm(ThetaPovmFamily(0.6, 0.5, 0.5))
        vals = np.sort(np.linalg.eigvalsh(theta.elements[-1]))
        np.testing.assert_allclose(vals, [0.0, 0.0, 2 / 3, 2 / 3], atol=1e-12)
        assert min_eigenvalue(theta) >= -1e-10

    def test_rejects_weight_beyond_positivity(self):
        with pytest.raises(PositivityError):
            ThetaPovmFamily(0.6, 0.5, 0.51)
        with pytest.raises(PositivityError):
            ThetaPovmFamily(0.6, 0.5, 0.5 + 1e-3)

    def test_completeness(self):
        theta = build_theta_povm(ThetaPovmFamily(0.2, 0.45, 0.3))
        assert completeness_residual(theta) <= 1e-10
        assert isinstance(theta.tags[-1], Remainder)
