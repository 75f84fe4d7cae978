import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_elements
from qteleport import fidelity
from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.errors import DomainError, PositivityError, ShapeError, SingularChannelError
from qteleport.dilation import dilate, realized_povm
from qteleport.povm import (
    CONCLUSIVE,
    PRODUCT,
    REMAINDER,
    RESIDUAL,
    PovmSet,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.weyl import UnitaryBasis, build_weyl_basis, maximally_entangled_basis


def random_channel(d, rng):
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def completeness_residual(p):
    return np.max(np.abs(dense_elements(p).sum(axis=0) - np.eye(p.joint_dim)))


def min_eigenvalue(p):
    return min(float(np.linalg.eigvalsh(el)[0]) for el in dense_elements(p))


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
            dense_elements(p)[-1], np.diag([0.75, 0.0, 0.75, 0.0]), atol=1e-12
        )

    def test_maximal_channel_full_weight_is_orthogonal_measurement(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.full(d, 1 / np.sqrt(d)))
        elements = dense_elements(build_conclusive_povm(ch, basis, 1.0))
        assert np.max(np.abs(elements[-1])) <= 1e-12
        kets = maximally_entangled_basis(basis)
        for a in range(d * d):
            want = np.outer(kets[a], kets[a].conj())
            np.testing.assert_allclose(elements[a], want, atol=1e-12)

    def test_identification(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        from qteleport.channel import basis_states

        states = basis_states(ch, basis)
        p = build_conclusive_povm(ch, basis, 0.3)
        born = np.einsum("ai,nij,aj->na", states.conj(), dense_elements(p)[:9], states).real
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
        "coeffs, lam",
        [([1.0, 0.0], 0.0), ([0.6, 0.8, -0.0], 0.0), ([1e-170, 1.0], 0.5), ([1e-160, 1.0], 0.5)],
    )
    def test_singular_channel_rejected_before_dividing(self, coeffs, lam):
        # A zero (or underflowing) a_j^2 would divide by zero in the remainder
        # weights; a subnormal one leaves lambda_max too few bits for completeness.
        ch = make_channel(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularChannelError):
                build_conclusive_povm(ch, build_weyl_basis(ch.dim), lam)

    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_smallest_normal_square_is_accepted(self, frac):
        # 2^-511 squares to exactly the smallest normal float, the edge that
        # is still accepted; both refinements stay complete.
        ch = make_channel([2.0**-511, 1.0])
        assert ch.probs[0] == np.finfo(float).tiny
        basis = build_weyl_basis(2)
        p = build_conclusive_povm(ch, basis, frac * lambda_max(ch))
        for refined in (refine_inconclusive_product(p), refine_inconclusive_residual(p, basis)):
            assert completeness_residual(refined) <= 1e-10
            assert min_eigenvalue(refined) >= -1e-10

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
            assert np.max(np.abs(dense_elements(p) - np.array(want))) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 17))
    def test_refined_vectors_equal_the_concatenated_construction(self, d):
        # Both refinements fill one preallocated array; its bytes are those of
        # stacking the conclusive vectors on a separately built piece block.
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d + 40))
        j, i = np.divmod(np.arange(d * d), d)
        flat = i * d + j
        for share in (0.0, 0.5, 1.0):
            base = build_conclusive_povm(ch, basis, share * lambda_max(ch))
            diag = base.remainder
            product = np.zeros((d * d, d * d), dtype=complex)
            product[np.arange(d * d), flat] = np.sqrt(diag[flat])
            root = np.sqrt(np.where(diag < 1e-12, 0.0, diag))
            residual = root * maximally_entangled_basis(basis)
            for refined, pieces in (
                (refine_inconclusive_product(base), product),
                (refine_inconclusive_residual(base, basis), residual),
            ):
                want = np.concatenate([base.vectors, pieces])
                np.testing.assert_array_equal(refined.vectors, want)
                assert refined.vectors.tobytes() == want.tobytes()

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
        assert refined.vectors is refined.vectors
        for arr in (base.vectors, base.remainder, refined.vectors):
            assert not arr.flags.writeable
        for arr in (base.kinds, base.labels, refined.kinds, refined.labels):
            assert not arr.flags.writeable
        # The remainder diagonal and a last kind REMAINDER come together.
        kinds = np.append(base.kinds[:-1], CONCLUSIVE)
        with pytest.raises(ShapeError):
            PovmSet(d=d, vectors=base.vectors, kinds=kinds, labels=base.labels, lam=0.3,
                    remainder=base.remainder)
        with pytest.raises(ShapeError):
            PovmSet(d=d, vectors=np.zeros((d * d + 1, d * d)), kinds=base.kinds, labels=base.labels, lam=0.3)


def dense_weyl(d):
    """X^m Z^n |j> = w^(n j mod d) |j + m mod d>, entry by entry into a dense (d^2, d, d) stack."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    ops = np.zeros((d * d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            for j in range(d):
                ops[m * d + n, (j + m) % d, j] = phases[(n * j) % d]
    return ops


def dense_theta_states(ct):
    """The theta family's four states, one per row, component by component on |ij>."""
    n, hi, lo = 1.0 / np.sqrt(2.0 - 2.0 * ct * ct), np.sqrt(1.0 + ct), np.sqrt(1.0 - ct)
    states = np.zeros((4, 4), dtype=complex)
    states[0, 0], states[0, 3] = n * hi, n * lo
    states[1, 0], states[1, 3] = n * hi, -n * lo
    states[2, 2], states[2, 1] = n * hi, n * lo
    states[3, 2], states[3, 1] = n * hi, -n * lo
    return states


class TestMonomialViews:
    """The dense views of the monomial storage against dense oracles built here."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
    def test_vectors_equal_the_dense_construction(self, d):
        ops = dense_weyl(d)
        basis = build_weyl_basis(d)
        assert basis.monomial is not None and np.array_equal(basis.ops, ops)
        ch = random_channel(d, np.random.default_rng(d + 70))
        j, i = np.divmod(np.arange(d * d), d)
        for share in (0.0, 0.5, 1.0):
            lam = share * lambda_max(ch)
            base = build_conclusive_povm(ch, basis, lam)
            conclusive = np.sqrt(lam) * (ops / (d * ch.coeffs)).reshape(d * d, d * d)
            diag = np.tile(np.clip(1.0 - lam / (d * ch.probs), 0.0, None), d)
            product = np.zeros((d * d, d * d), dtype=complex)
            product[np.arange(d * d), i * d + j] = np.sqrt(diag[i * d + j])
            residual = np.sqrt(np.where(diag < 1e-12, 0.0, diag)) * (ops.reshape(d * d, d * d) / np.sqrt(d))
            assert np.array_equal(base.vectors, conclusive) and np.array_equal(base.remainder, diag)
            for refined, pieces in (
                (refine_inconclusive_product(base), product),
                (refine_inconclusive_residual(base, basis), residual),
            ):
                assert refined.monomial is not None
                assert np.array_equal(refined.vectors, np.concatenate([conclusive, pieces]))

    @pytest.mark.parametrize("ct", [0.6, 0.0, -0.5, 0.9])
    def test_theta_vectors_equal_the_dense_construction(self, ct):
        lam = 0.5 * (1.0 - abs(ct))
        p = build_theta_povm(ThetaPovmFamily(0.6, ct, lam))
        assert p.monomial is not None
        assert np.array_equal(p.vectors, np.sqrt(lam) * dense_theta_states(ct))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_dense_input_stays_dense(self, d, strategy):
        # A dense array is stored as the very array given, read-only, with
        # no monomial form, even where its values have the monomial
        # structure; a monomial form is only ever the one a builder made.
        weyl = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        lam = 0.5 * lambda_max(ch)
        ops = np.array(weyl.ops)
        basis = UnitaryBasis(dim=d, ops=ops)
        assert basis.monomial is None and basis.ops is ops and not ops.flags.writeable
        p = build_conclusive_povm(ch, weyl, lam)
        p = refine_inconclusive_product(p) if strategy == "product" else refine_inconclusive_residual(p, weyl)
        vectors = np.array(p.vectors)
        q = PovmSet(d=d, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)
        assert q.monomial is None and q.vectors is vectors and not vectors.flags.writeable
        # The dense builders from the dense basis make the same vectors.
        r = build_conclusive_povm(ch, basis, lam)
        r = refine_inconclusive_product(r) if strategy == "product" else refine_inconclusive_residual(r, basis)
        assert r.monomial is None and np.max(np.abs(r.vectors - p.vectors)) <= 1e-15
        # The dense branch reports the monomial set's numbers with optimal
        # corrections; the report and the Monte Carlo refuse the paper's on
        # any dense input, before any draw.
        want = fidelity.report(p, ch, weyl, "auto")
        for got in (fidelity.report(q, ch, weyl, "auto"), fidelity.report(r, ch, basis, "auto")):
            assert np.max(np.abs(np.subtract(got.fidelity_terms, want.fidelity_terms))) <= 1e-15
            assert np.max(np.abs(np.subtract(got.probabilities, want.probabilities))) <= 1e-15
        mc = fidelity.simulate(r, ch, basis, "auto", n_runs=4000, rng=3)
        assert abs(mc.f_total - want.f_total) <= 4 * mc.f_total_se
        calls = []
        for s, b in ((q, weyl), (r, basis), (p, basis)):
            for run in (fidelity.report, lambda *a: fidelity.simulate(*a, n_runs=10, rng=0, transcript=calls.append)):
                with pytest.raises(DomainError, match="dense"):
                    run(s, ch, b, "paper")
        assert calls == []


class TestProductRefinement:
    def test_count_and_kinds(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        refined = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.3))
        assert refined.n_outcomes == 2 * 9
        assert np.count_nonzero(refined.kinds == CONCLUSIVE) == 9
        assert np.count_nonzero(refined.kinds == PRODUCT) == 9
        assert refined.is_refined()

    def test_weights_follow_refinement_table(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        lam = lambda_max(ch)
        refined = refine_inconclusive_product(build_conclusive_povm(ch, basis, lam))
        # Appended j-major: (i=0,j=0), (1,0), (0,1), (1,1); weight 1 - lam/(2 a_j^2).
        expected_order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        elements = dense_elements(refined)
        for k, (i, j) in enumerate(expected_order):
            assert refined.kinds[4 + k] == PRODUCT and refined.labels[4 + k] == i + 2 * j
            el = elements[4 + k]
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
        zero = (refined.kinds == PRODUCT) & (np.max(np.abs(dense_elements(refined)), axis=(1, 2)) <= 1e-14)
        assert np.count_nonzero(zero) == 3
        assert np.all(refined.labels[zero] // 3 == np.argmin(ch.coeffs))

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
        assert np.max(np.abs(dense_elements(refined)[refined.kinds == RESIDUAL])) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_pieces_sum_to_remainder(self, d):
        rng = np.random.default_rng(d * 7)
        basis = build_weyl_basis(d)
        for _ in range(5):
            ch = random_channel(d, rng)
            lam = 0.5 * lambda_max(ch)
            base = build_conclusive_povm(ch, basis, lam)
            refined = refine_inconclusive_residual(base, basis)
            pieces = dense_elements(refined)[d * d :].sum(axis=0)
            assert np.max(np.abs(pieces - dense_elements(base)[-1])) <= 1e-10
            assert completeness_residual(refined) <= 1e-10

    def test_pieces_are_rank_one(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.8, 0.2]))
        refined = refine_inconclusive_residual(
            build_conclusive_povm(ch, basis, 0.2), basis
        )
        for el in dense_elements(refined)[refined.kinds == RESIDUAL]:
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
        assert np.max(np.abs(dense_elements(theta) - dense_elements(conclusive))) <= 1e-10
        refined_t = refine_inconclusive_product(theta)
        refined_c = refine_inconclusive_product(conclusive)
        assert np.max(np.abs(dense_elements(refined_t) - dense_elements(refined_c))) <= 1e-10
        assert np.array_equal(refined_t.kinds, refined_c.kinds)
        assert np.array_equal(refined_t.labels, refined_c.labels)

    def test_orthogonal_limit_is_scaled_bell_projectors(self):
        lam = 0.7
        elements = dense_elements(build_theta_povm(ThetaPovmFamily(0.3, 0.0, lam)))
        kets = maximally_entangled_basis(build_weyl_basis(2))
        for a in range(4):
            want = lam * np.outer(kets[a], kets[a].conj())
            np.testing.assert_allclose(elements[a], want, atol=1e-12)

    def test_remainder_eigenvalues_at_boundary(self):
        theta = build_theta_povm(ThetaPovmFamily(0.6, 0.5, 0.5))
        vals = np.sort(np.linalg.eigvalsh(dense_elements(theta)[-1]))
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
        assert theta.kinds[-1] == REMAINDER


class TestOutcomeTable:
    """``kinds`` and ``labels``: what each builder writes, and what ``PovmSet`` refuses."""

    def test_each_builder_writes_its_table(self):
        d = 3
        basis = build_weyl_basis(d)
        base = build_conclusive_povm(random_channel(d, np.random.default_rng(5)), basis, 0.2)
        head = [CONCLUSIVE] * 9
        assert base.kinds.tolist() == head + [REMAINDER]
        assert base.labels.tolist() == list(range(9)) + [0]
        product = refine_inconclusive_product(base)
        assert product.kinds.tolist() == head + [PRODUCT] * 9
        # Piece i + d j, appended j-major: all i for j = 0, then j = 1, ...
        assert product.labels.tolist() == list(range(9)) + [i + d * j for j in range(d) for i in range(d)]
        residual = refine_inconclusive_residual(base, basis)
        assert residual.kinds.tolist() == head + [RESIDUAL] * 9
        assert residual.labels.tolist() == list(range(9)) * 2
        theta = build_theta_povm(ThetaPovmFamily(0.6, 0.3, 0.5))
        assert theta.kinds.tolist() == [CONCLUSIVE] * 4 + [REMAINDER]
        assert theta.labels.tolist() == [0, 1, 2, 3, 0]
        realized = realized_povm(dilate(product), product)
        assert realized.monomial is None
        assert np.array_equal(realized.kinds, product.kinds)
        assert np.array_equal(realized.labels, product.labels)

    @staticmethod
    def _product_povm():
        ch = qubit_channel_from_cos_theta(0.6)
        base = build_conclusive_povm(ch, build_weyl_basis(2), 0.5 * lambda_max(ch))
        return refine_inconclusive_product(base)

    @pytest.mark.parametrize(
        "position, kind, label",
        [
            (0, CONCLUSIVE, -1),  # read the shift X^1 as a basis index
            (0, CONCLUSIVE, 99),  # indexed past the basis
            (2, REMAINDER, 0),  # a remainder mid-list passed as refined
        ],
    )
    def test_refuses_a_negative_label_an_overlarge_label_and_a_mid_list_remainder(self, position, kind, label):
        p = self._product_povm()
        kinds, labels = np.array(p.kinds), np.array(p.labels)
        kinds[position], labels[position] = kind, label
        with pytest.raises(ShapeError):
            PovmSet(d=2, vectors=p.monomial, kinds=kinds, labels=labels, lam=p.lam)

    def test_refuses_a_malformed_table(self):
        p = self._product_povm()
        kinds, labels = p.kinds.tolist(), p.labels.tolist()
        diag = np.ones(4)
        bad = [
            (kinds[:-1], labels, None),  # kinds too short
            (kinds, labels + [0], None),  # labels too long
            ([4] + kinds[1:], labels, None),  # unknown kind codes
            ([-1] + kinds[1:], labels, None),
            (kinds, labels[:-1] + [4], None),  # label outside [0, d^2)
            ([0.0] + kinds[1:], labels, None),  # not integers
            (kinds[:-1] + [REMAINDER], labels, None),  # REMAINDER without a diagonal
            (kinds[:2] + [REMAINDER] + kinds[2:], labels + [0], diag),  # REMAINDER not last
            (kinds + [CONCLUSIVE], labels + [0], diag),  # a diagonal without REMAINDER
        ]
        for k, lab, remainder in bad:
            with pytest.raises(ShapeError):
                PovmSet(d=2, vectors=p.monomial, kinds=k, labels=lab, lam=p.lam, remainder=remainder)
        # The same entries, well formed, are taken.
        PovmSet(d=2, vectors=p.monomial, kinds=kinds + [REMAINDER], labels=labels + [0], lam=p.lam,
                remainder=diag)


class TestPerDimensionTables:
    """Tables that depend on d alone: read-only, O(d^2) entries, and owned by the set that reads them."""

    def test_each_set_owns_its_read_only_tables(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(8))
        base = build_conclusive_povm(ch, basis, 0.2)
        again = build_conclusive_povm(ch, basis, 0.1)
        product, residual = refine_inconclusive_product(base), refine_inconclusive_residual(again, basis)
        pairs = [
            (base, again),
            (product, refine_inconclusive_product(again)),
            (residual, refine_inconclusive_residual(base, basis)),
        ]
        for one, other in pairs:
            for table, twin in ((one.kinds, other.kinds), (one.labels, other.labels)):
                assert np.array_equal(table, twin) and table is not twin
                assert not np.shares_memory(table, twin)
                with pytest.raises(ValueError):
                    table[0] = table[-1]
        assert np.array_equal(base.remainder, np.tile(np.maximum(1.0 - 0.2 / (d * ch.probs), 0.0), d))

    def test_writing_into_one_sets_table_leaves_later_sets_unchanged(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(8))
        lam = 0.5 * lambda_max(ch)
        p = refine_inconclusive_residual(build_conclusive_povm(ch, basis, lam), basis)
        before = fidelity.report(p, ch, basis)
        p.kinds.setflags(write=True)
        p.kinds[0] = PRODUCT
        later = refine_inconclusive_residual(build_conclusive_povm(ch, basis, lam), basis)
        assert later.kinds[0] == CONCLUSIVE
        rep = fidelity.report(later, ch, basis)
        assert rep.strategy == "residual" and rep == before

    def test_a_copy_of_a_cached_table_is_checked_in_full(self):
        d = 2
        ch = qubit_channel_from_cos_theta(0.6)
        p = refine_inconclusive_product(build_conclusive_povm(ch, build_weyl_basis(d), 0.5 * lambda_max(ch)))
        # Equal in content, but distinct objects: each holds one bad entry.
        labels = p.labels.copy()
        labels[5] = d * d
        kinds = p.kinds.copy()
        kinds[1] = REMAINDER
        for k, lab in ((p.kinds, labels), (p.kinds.copy(), labels), (kinds, p.labels)):
            with pytest.raises(ShapeError):
                PovmSet(d=d, vectors=p.monomial, kinds=k, labels=lab, lam=p.lam)
        PovmSet(d=d, vectors=p.monomial, kinds=p.kinds.copy(), labels=p.labels.copy(), lam=p.lam)
        # A built table of another dimension is checked as any other: at d = 3
        # the labels reach 8, outside [0, 4).
        wide = build_conclusive_povm(random_channel(3, np.random.default_rng(2)), build_weyl_basis(3), 0.1)
        with pytest.raises(ShapeError):
            PovmSet(d=d, vectors=np.zeros((9, d * d)), kinds=wide.kinds, labels=wide.labels, lam=0.1,
                    remainder=np.ones(d * d))
        # A built labels table passed as kinds is no built kinds table: labels 4..8 are no kinds.
        refined = refine_inconclusive_residual(wide, build_weyl_basis(3))
        with pytest.raises(ShapeError):
            PovmSet(d=3, vectors=refined.monomial, kinds=refined.labels, labels=refined.labels, lam=0.1)

    def test_building_and_dropping_sets_up_to_d64_leaves_under_64_kib(self):
        # In a fresh process, so that nothing built before the traced span
        # hides what it keeps.  One (d^2,) intp table at d = 64 is 32 KiB and
        # one (d^2, d) intp array 2 MiB: no table may outlive the sets.
        code = """
import gc, tracemalloc
import numpy as np
from qteleport.channel import make_channel
from qteleport.fidelity import report
from qteleport.povm import build_conclusive_povm, lambda_max, refine_inconclusive_product, refine_inconclusive_residual
from qteleport.weyl import build_weyl_basis

tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
for d in (16, 32, 48, 64):
    ch = make_channel(np.sqrt(np.arange(1.0, d + 1) / np.sum(np.arange(1.0, d + 1))))
    basis = build_weyl_basis(d)
    base = build_conclusive_povm(ch, basis, lambda_max(ch))
    for p in (refine_inconclusive_product(base), refine_inconclusive_residual(base, basis)):
        for corrections in ("auto", "paper"):
            rep = report(p, ch, basis, corrections)
del ch, basis, base, p, rep
gc.collect()
print(tracemalloc.get_traced_memory()[0] - start)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2**16
