import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_elements
from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.errors import CapacityError, ConsistencyError, DecompositionError, DomainError, ShapeError
from qteleport import fidelity
from qteleport.fidelity import FidelityReport, channel_maps, report, simulate
from qteleport.dilation import dilate, realized_povm
from qteleport.formulas import (
    best_orthogonal_fidelity,
    optimal_average_fidelity,
    product_strategy_fidelity,
    qubit_average_fidelity,
)
from qteleport.linalg import CHUNK_ENTRIES, Monomial, chunks, dagger, haar_random_ket, haar_random_unitary
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
from qteleport.weyl import UnitaryBasis, build_weyl_basis, conjugated_basis


def recorder():
    """A transcript that keeps each call's (first run index, outcomes), and the list it keeps them in."""
    blocks = []
    return blocks, lambda start, alpha: blocks.append((start, alpha))


def run_columns(blocks):
    """The run indices and the outcomes of recorded blocks, each as one array."""
    index = np.concatenate([np.arange(start, start + alpha.size) for start, alpha in blocks])
    return index, np.concatenate([alpha for _, alpha in blocks])


def random_channel(d, rng):
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def refined(ch, basis, lam, strategy):
    base = build_conclusive_povm(ch, basis, lam)
    if strategy == "product":
        return refine_inconclusive_product(base)
    return refine_inconclusive_residual(base, basis)


def eigh_map(element, ch):
    """Test-only oracle: the amplitude map of a dense rank-one element via eigh.

    Fixed only up to a global phase, like any eigenvector.
    """
    d = ch.dim
    vals, vecs = np.linalg.eigh(element)
    assert vals.size == 1 or vals[-2] <= 1e-10
    w = np.sqrt(max(float(vals[-1]), 0.0)) * vecs[:, -1]
    return w.conj().reshape(d, d).T * ch.coeffs[:, None]


class TestOutcomeChannel:
    """``channel_maps`` against the closed forms B_a of every outcome kind."""

    def test_conclusive_element_gives_scaled_basis_adjoint(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        lam = 0.3
        maps = channel_maps(refined(ch, basis, lam, "residual"), ch)
        for a in range(d * d):
            target = np.sqrt(lam) / d * dagger(basis.ops[a])
            np.testing.assert_allclose(maps[a], target, atol=1e-12)
            prob = np.sum(np.abs(maps[a]) ** 2) / d
            assert prob == pytest.approx(lam / d**2, abs=1e-12)

    def test_residual_piece_is_weighted_basis_adjoint(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        lam = 0.45
        maps = channel_maps(refined(ch, basis, lam, "residual"), ch)
        weights = 1 - lam / (d * ch.probs)
        scale = np.diag(ch.coeffs * np.sqrt(weights))
        for a in range(d * d):
            target = scale @ dagger(basis.ops[a]) / np.sqrt(d)
            np.testing.assert_allclose(maps[d * d + a], target, atol=1e-12)

    def test_product_element_maps_everything_to_one_ket(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        lam = 0.45
        p = refined(ch, basis, lam, "product")
        maps = channel_maps(p, ch)
        for k in range(d * d, 2 * d * d):
            assert p.kinds[k] == PRODUCT
            j, i = divmod(int(p.labels[k]), d)
            want = np.zeros((d, d))
            want[j, i] = ch.coeffs[j] * np.sqrt(1 - lam / (d * ch.probs[j]))
            np.testing.assert_allclose(maps[k], want, atol=1e-12)

    def test_maximal_channel_bell_element_is_scaled_unitary(self):
        d = 2
        basis = build_weyl_basis(d)
        ch = make_channel(np.full(d, 1 / np.sqrt(d)))
        b = channel_maps(refined(ch, basis, 1.0, "product"), ch)[2]
        assert np.max(np.abs(dagger(b) @ b - np.eye(d) / d**2)) <= 1e-12

    def test_rank_two_rejected(self):
        # A rank-one set cannot hold a rank-two element, and the diagonal
        # remainder (rank two here) must be refined before mapping.
        ch = make_channel(np.sqrt([0.8, 0.2]))
        with pytest.raises(ShapeError):
            PovmSet(
                d=2, vectors=np.diag([0.5, 0.5, 0.0, 0.0])[None], kinds=[RESIDUAL], labels=[0], lam=0.0
            )
        rem = PovmSet(
            d=2, vectors=np.zeros((0, 4)), kinds=[REMAINDER], labels=[0], lam=0.0,
            remainder=np.array([0.5, 0.5, 0.0, 0.0]),
        )
        with pytest.raises(DecompositionError):
            channel_maps(rem, ch)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual", "rotated"])
    def test_maps_equal_the_conjugate_transpose_oracle(self, d, strategy):
        # One C-ordered allocation, scaled in place, holds the bytes of the
        # conj, transpose, scale and contiguous-copy chain.
        p, ch, _, maps, _ = maps_and_corrections(d, strategy, "paper", 20 + d)
        want = np.ascontiguousarray(p.vectors.conj().reshape(-1, d, d).transpose(0, 2, 1) * ch.coeffs[:, None])
        assert maps.flags.c_contiguous and maps.dtype == want.dtype
        assert maps.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_matches_eigh_oracle_up_to_phase(self, d, strategy):
        rng = np.random.default_rng(40 + d)
        basis = build_weyl_basis(d)
        ch = random_channel(d, rng)
        p = refined(ch, basis, 0.7 * lambda_max(ch), strategy)
        maps = channel_maps(p, ch)
        for k, element in enumerate(dense_elements(p)):
            want = eigh_map(element, ch)
            # Equal up to one phase: |<want, B>| = |want| |B| and equal norms.
            norm = np.sum(np.abs(want) ** 2)
            assert abs(np.sum(np.abs(maps[k]) ** 2) - norm) <= 1e-12
            assert abs(abs(np.vdot(want, maps[k])) - norm) <= 1e-12


class TestAvgFidelityTerm:
    def test_perfect_conclusive_event(self):
        d = 3
        basis = build_weyl_basis(d)
        lam = 0.42
        b = np.sqrt(lam) / d * dagger(basis.ops[4])
        prob, term = avg_fidelity_term(b, basis.ops[4])
        assert prob == pytest.approx(lam / d**2, abs=1e-15)
        assert term == pytest.approx(lam / d**2, abs=1e-15)

    def test_product_outcome_conditional_fidelity(self):
        d = 2
        a_j = np.sqrt(0.2)
        b = np.zeros((d, d))
        b[0, 1] = a_j  # outputs |0> whatever came in at |1>
        v = np.array([[0, 1], [1, 0]], dtype=complex)  # map |0> -> |1>
        prob, term = avg_fidelity_term(b, v)
        assert term == pytest.approx(a_j**2 * 2 / (d * (d + 1)), abs=1e-15)
        assert term / prob == pytest.approx(2 / 3, abs=1e-12)

    def test_identity_chain(self):
        d = 4
        b = np.eye(d) / np.sqrt(d)
        prob, term = avg_fidelity_term(b, np.eye(d))
        assert prob == pytest.approx(1 / d, abs=1e-15)
        assert term == pytest.approx(1 / d, abs=1e-15)

    def test_rejects_nonunitary_correction(self):
        with pytest.raises(DomainError):
            avg_fidelity_term(np.eye(2), np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_haar_quadrature(self, d):
        # Independent oracle: integrate p(phi) f(phi) = |<phi|V B|phi>|^2 by
        # direct sampling, no moment identity involved.
        rng = np.random.default_rng(d + 100)
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b /= 3 * np.linalg.norm(b)
        v = haar_random_unitary(d, rng)
        _, term = avg_fidelity_term(b, v)
        n = 200_000
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        phis = z / np.linalg.norm(z, axis=1, keepdims=True)
        vb = v @ b
        samples = np.abs(np.einsum("nj,jk,nk->n", phis.conj(), vb, phis)) ** 2
        se = samples.std() / np.sqrt(n)
        assert abs(samples.mean() - term) <= 4 * se


class TestOptimalCorrection:
    def test_polar_of_unitary_adjoint(self):
        basis = build_weyl_basis(3)
        for a in (1, 4, 7):
            v = optimal_correction(dagger(basis.ops[a]))
            assert abs(np.trace(v @ dagger(basis.ops[a]))) == pytest.approx(3.0, abs=1e-12)

    def test_psd_input_needs_identity(self):
        v = optimal_correction(np.diag([0.9, 0.1]))
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)
        assert abs(np.trace(v @ np.diag([0.9, 0.1]))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_beats_random_unitaries(self, d):
        rng = np.random.default_rng(17)
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v_opt = optimal_correction(b)
        best = abs(np.trace(v_opt @ b)) ** 2
        assert best == pytest.approx(
            float(np.sum(np.linalg.svd(b, compute_uv=False))) ** 2, rel=1e-12
        )
        for _ in range(1000):
            v = haar_random_unitary(d, rng)
            assert abs(np.trace(v @ b)) ** 2 <= best + 1e-12

    def test_deterministic_on_degenerate_input(self):
        a = optimal_correction(np.zeros((3, 3)))
        b = optimal_correction(np.zeros((3, 3)))
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(dagger(a) @ a - np.eye(3))) <= 1e-12


class TestExactReport:
    def test_qubit_product_strategy_closed_form(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        lam = lambda_max(ch)
        assert lam == pytest.approx(0.4, abs=1e-12)
        rep = report(refined(ch, basis, lam, "product"), ch, basis, "paper")
        assert rep.f_total == pytest.approx(0.8, abs=1e-12)
        assert rep.f_total == pytest.approx((2 / 3) * (1 + 0.2), abs=1e-12)

    def test_residual_strategy_matches_closed_form_both_routes(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.9, 0.1]))
        rep = report(refined(ch, basis, 0.1, "residual"), ch, basis, "auto")
        want = optimal_average_fidelity(2, ch.probs, 0.1)
        assert rep.f_total == pytest.approx(want, abs=1e-12)
        assert rep.f_total == pytest.approx(0.8374368541872554, abs=1e-9)

    def test_maximal_channel_is_perfect(self):
        for d in (2, 3):
            basis = build_weyl_basis(d)
            ch = make_channel(np.full(d, 1 / np.sqrt(d)))
            rep = report(refined(ch, basis, 1.0, "product"), ch, basis, "paper")
            assert rep.f_total == pytest.approx(1.0, abs=1e-10)
            assert rep.f_inconclusive == pytest.approx(0.0, abs=1e-12)
            assert rep.inconclusive_probability <= 1e-12

    def test_probabilities_sum_to_one(self):
        basis = build_weyl_basis(3)
        rng = np.random.default_rng(3)
        ch = random_channel(3, rng)
        rep = report(refined(ch, basis, 0.2, "residual"), ch, basis, "auto")
        assert sum(rep.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert rep.f_total == pytest.approx(rep.f_conclusive + rep.f_inconclusive, abs=1e-14)

    def test_report_columns(self):
        basis = build_weyl_basis(3)
        ch = random_channel(3, np.random.default_rng(31))
        p = refined(ch, basis, 0.5 * lambda_max(ch), "product")
        rep = report(p, ch, basis, "paper")
        assert rep.probability_se is None and rep.fidelity_term_se is None
        for col in (rep.probabilities, rep.fidelity_terms):
            assert col.shape == (p.n_outcomes,) and col.dtype == float and not col.flags.writeable
        assert type(rep.conclusive_probability) is float and type(rep.inconclusive_probability) is float
        assert rep.conclusive_probability == sum(rep.probabilities[:9])
        assert rep.inconclusive_probability == sum(rep.probabilities[9:])
        assert rep == report(p, ch, basis, "paper")
        mc = simulate(p, ch, basis, "paper", n_runs=500, rng=2)
        assert mc.conclusive_probability == sum(mc.probabilities[:9])
        assert mc.inconclusive_probability == sum(mc.probabilities[9:])
        for col in (mc.probabilities, mc.probability_se, mc.fidelity_terms, mc.fidelity_term_se):
            assert col.shape == (p.n_outcomes,) and col.dtype == float and not col.flags.writeable

    def test_amplitude_map_completeness(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        maps = channel_maps(refined(ch, basis, 0.4, "residual"), ch)
        total = np.einsum("nij,nik->jk", maps.conj(), maps)
        assert np.max(np.abs(total - np.eye(3))) <= 1e-10

    def test_unrefined_remainder_rejected(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.3)
        base = build_conclusive_povm(ch, basis, 0.2)
        with pytest.raises(DecompositionError):
            report(base, ch, basis, "auto")

    def test_inconclusive_split_closed_form(self):
        basis = build_weyl_basis(2)
        for cc in (0.2, 0.6, 0.9):
            ch = qubit_channel_from_cos_theta(cc)
            for lam in (0.0, lambda_max(ch) / 2, lambda_max(ch)):
                rep = report(refined(ch, basis, lam, "product"), ch, basis, "paper")
                assert rep.f_inconclusive == pytest.approx(2 * (1 - lam) / 3, abs=1e-9)
                assert rep.f_conclusive == pytest.approx(lam, abs=1e-9)
                assert rep.f_total == pytest.approx(qubit_average_fidelity(lam), abs=1e-9)

    def test_zero_weight_recovers_orthogonal_bound(self):
        basis = build_weyl_basis(2)
        ch = make_channel(np.sqrt([0.75, 0.25]))
        rep = report(refined(ch, basis, 0.0, "residual"), ch, basis, "auto")
        assert rep.f_total == pytest.approx(best_orthogonal_fidelity(ch.probs), abs=1e-9)
        a1, a2 = ch.coeffs
        assert rep.f_total == pytest.approx((2 / 3) * (1 + a1 * a2), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_monotone_directions_per_strategy(self, d):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d + 40))
        lams = np.linspace(0.0, lambda_max(ch), 20)
        prod = [report(refined(ch, basis, l, "product"), ch, basis, "auto").f_total for l in lams]
        resi = [report(refined(ch, basis, l, "residual"), ch, basis, "auto").f_total for l in lams]
        assert all(b - a >= -1e-12 for a, b in zip(prod, prod[1:]))
        assert all(a - b >= -1e-12 for a, b in zip(resi, resi[1:]))
        assert resi[0] >= prod[0] - 1e-12

    def test_basis_invariance(self):
        d = 3
        rng = np.random.default_rng(77)
        basis = build_weyl_basis(d)
        moved = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
        ch = random_channel(d, rng)
        lam = 0.5 * lambda_max(ch)
        f_stock = report(refined(ch, basis, lam, "residual"), ch, basis, "auto").f_total
        f_moved = report(refined(ch, moved, lam, "residual"), ch, moved, "auto").f_total
        assert f_moved == pytest.approx(f_stock, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fixed_conclusive_corrections_are_optimal(self, d):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        lam = 0.7 * lambda_max(ch)
        p = refined(ch, basis, lam, "residual")
        maps = channel_maps(p, ch)
        auto = optimal_correction(maps)
        fixed = correction_unitaries(p, basis)
        for k in range(p.n_outcomes):
            t_auto = abs(np.trace(auto[k] @ maps[k]))
            t_fixed = abs(np.trace(fixed[k] @ maps[k]))
            assert t_fixed == pytest.approx(t_auto, abs=1e-10)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_paper_shift_corrections_equal_matrix_power_oracle(self, d):
        # Bit for bit, signed zeros included: X^(i - j) for product outcome (i, j).
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        p = refined(ch, basis, 0.5 * lambda_max(ch), "product")
        vs = correction_unitaries(p, basis)
        shifts = np.flatnonzero(p.kinds == PRODUCT)
        assert len(shifts) == d * d
        for k in shifts:
            j, i = divmod(int(p.labels[k]), d)
            want = np.linalg.matrix_power(shift_matrix(d), (i - j) % d)
            assert vs[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_paper_corrections_are_optimal_on_both_refinements(self, d, strategy):
        # The paper's fixed corrections reach the trace norm on every outcome,
        # so both correction modes give one report.
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(200 + d))
        for share in (0.0, 0.5, 1.0):
            p = refined(ch, basis, share * lambda_max(ch), strategy)
            auto, paper = report(p, ch, basis, "auto"), report(p, ch, basis, "paper")
            assert np.max(np.abs(np.subtract(auto.probabilities, paper.probabilities))) <= 1e-12
            assert np.max(np.abs(np.subtract(auto.fidelity_terms, paper.fidelity_terms))) <= 1e-12
            assert abs(auto.f_total - paper.f_total) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_pattern_report_equals_the_svd_oracle(self, d, strategy):
        # The singular-value report against the SVD oracle's corrections:
        # monomial POVMs at every d and, for d <= 4, the realized,
        # conjugated and rotated POVMs, which are dense.
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(300 + d))
        cases = [(refined(ch, basis, share * lambda_max(ch), strategy), ch, basis) for share in (0.0, 0.5, 1.0)]
        if d <= 4:
            rng = np.random.default_rng(350 + d)
            moved = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
            p = cases[1][0]
            cases += [
                (realized_povm(dilate(p), p), ch, basis),
                (refined(ch, moved, 0.5 * lambda_max(ch), strategy), ch, moved),
                maps_and_corrections(d, "rotated", "auto", 350 + d)[:3],
            ]
        for k, (p, ch, basis) in enumerate(cases):
            maps = channel_maps(p, ch)
            assert (p.monomial is not None) == (k < 3)
            probs, terms = avg_fidelity_term(maps, optimal_correction(maps))
            rep = report(p, ch, basis, "auto")
            assert np.max(np.abs(np.subtract(rep.probabilities, probs))) <= 1e-15
            assert np.max(np.abs(np.subtract(rep.fidelity_terms, terms))) <= 1e-15


def optimal_correction(b):
    """Unitary maximizing |Tr(V B)|, i.e. the adjoint polar factor of B.

    The oracle for the singular-value path: with B = U S W^h the maximizer
    is V = (U W^h)^†, for which |Tr(V B)| equals the sum of singular values.
    A fixed SVD phase convention (the largest-magnitude entry of each left
    singular vector made real positive) keeps the result reproducible for
    degenerate inputs.  ``b`` may be a stack (..., d, d); each map gets its
    own correction.
    """
    u, _, wh = np.linalg.svd(np.asarray(b))
    # Columns of u are unit vectors, so every pivot is nonzero.  np.hypot
    # rounds like the scalar abs() of a per-column loop; np.abs on a complex
    # array may differ in the last place.
    rows = np.argmax(np.abs(u), axis=-2)[..., None, :]
    pivot = np.take_along_axis(u, rows, axis=-2)
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    return dagger((u / phase) @ (wh * np.swapaxes(phase, -1, -2)))


def avg_fidelity_term(b, v):
    """Haar-exact (probability, fidelity term) of every outcome with its correction.

    The dense oracle for ``report``: ``b`` and ``v`` are one (d, d) map and
    correction or equal-shaped stacks (..., d, d), and the results have
    shape ``b.shape[:-2]``.  Every correction is checked for unitarity by
    the library's check, which reads the stack in bounded chunks.
    """
    b, v = np.asarray(b), np.asarray(v)
    d = b.shape[-1]
    if b.shape[-2:] != (d, d) or v.shape != b.shape:
        raise ShapeError(f"correction shape {v.shape} does not match {b.shape}")
    check_unitary(v.reshape(-1, d, d))
    gram = np.sum(np.abs(b) ** 2, axis=(-2, -1))
    trace = np.einsum("...ij,...ji->...", v, b)
    return gram / d, (np.abs(trace) ** 2 + gram) / (d * (d + 1))


def shift_matrix(d):
    """X with X|j> = |j+1 mod d>: the identity with its rows rolled down by one."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def check_unitary(ops):
    """Raise ``DomainError`` if some op is off unitary, max|V^† V - I| > 1e-10, reading bounded chunks."""
    d = ops.shape[-1]
    for part in chunks(len(ops), d * d):
        v = ops[part]
        if np.max(np.abs(dagger(v) @ v - np.eye(d))) > 1e-10:
            raise DomainError("correction operator is not unitary")


def correction_unitaries(p, basis):
    """The paper's fixed corrections as a dense (n, d, d) stack.

    From the library's builder on a monomial basis; on a dense one, which
    the library refuses, by the same rule here (``basis.ops[alpha]`` for a
    conclusive or residual outcome, X^((i - j) mod d) for the product piece
    i + d j), checked by ``check_unitary``.
    """
    if basis.monomial is not None:
        return fidelity._corrections(p, basis, "paper").dense()
    d = p.d
    j, i = np.divmod(p.labels, d)
    shifts = [np.linalg.matrix_power(shift_matrix(d), m) for m in range(d)]
    ops = np.concatenate([basis.ops, shifts])[np.where(p.kinds == PRODUCT, d * d + (i - j) % d, p.labels)]
    check_unitary(ops)
    return ops


def corrections_of(p, basis, maps, corrections):
    """Explicit corrections per outcome: the SVD oracle for auto, the library's fixed ones for paper."""
    return optimal_correction(maps) if corrections == "auto" else correction_unitaries(p, basis)


def loop_optimal_correction(b):
    """The per-matrix correction with a column loop, kept as an oracle for the stacked one."""
    u, _, wh = np.linalg.svd(b)
    for k in range(u.shape[1]):
        col = u[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if abs(pivot) > 0:
            phase = pivot / abs(pivot)
            u[:, k] = col / phase
            wh[k, :] = wh[k, :] * phase
    return (u @ wh).conj().T


def loop_fidelity_term(b, v):
    """The per-outcome (probability, fidelity term), kept as an oracle for the stacked one."""
    d = b.shape[0]
    gram = float(np.sum(np.abs(b) ** 2))
    return gram / d, (abs(np.trace(v @ b)) ** 2 + gram) / (d * (d + 1))


def random_stack(d, n, rng):
    maps = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    maps[0] = 0.0  # degenerate: every unitary is optimal, the phase rule picks one
    maps[1] = np.diag(rng.random(d))  # real PSD: the identity is optimal
    return maps


def three_reports():
    """An exact report of a single set, a Monte Carlo one and an exact one of a 3-member stack."""
    basis = build_weyl_basis(3)
    ch = random_channel(3, np.random.default_rng(37))
    p = refined(ch, basis, 0.5 * lambda_max(ch), "product")
    stack = refine_inconclusive_residual(build_conclusive_povm(ch, basis, [0.0, 0.1, 0.2]), basis)
    mc = simulate(p, ch, basis, "paper", n_runs=500, rng=2)
    return report(p, ch, basis, "paper"), mc, report(stack, ch, basis, "auto")


class TestReportType:
    """One ``FidelityReport`` per call: read-only array columns over the member axis and an exact ``==``."""

    def test_shapes_follow_the_member_axis(self):
        exact, mc, stacked = three_reports()
        n = len(exact.probabilities)
        for rep in (exact, mc):
            assert rep.probabilities.shape == rep.fidelity_terms.shape == (n,)
            totals = (rep.lam, rep.conclusive_probability, rep.inconclusive_probability, rep.f_conclusive)
            assert all(type(x) is float for x in totals + (rep.f_inconclusive, rep.f_total))
        assert mc.probability_se.shape == mc.fidelity_term_se.shape == (n,)
        assert stacked.probabilities.shape == stacked.fidelity_terms.shape == (3, 2 * 9)
        for total in (stacked.lam, stacked.conclusive_probability, stacked.inconclusive_probability):
            assert total.shape == (3,)
        for total in (stacked.f_conclusive, stacked.f_inconclusive, stacked.f_total):
            assert total.shape == (3,)

    def test_every_column_is_read_only(self):
        for rep in three_reports():
            for field in dataclasses.fields(rep):
                value = getattr(rep, field.name)
                if isinstance(value, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        value.reshape(-1)[0] = 0.5
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rep, field.name, value)

    def test_one_ulp_in_any_number_makes_reports_unequal(self):
        for rep in three_reports():
            assert rep == dataclasses.replace(rep)
            numbers = [f.name for f in dataclasses.fields(rep) if isinstance(getattr(rep, f.name), (float, np.ndarray))]
            assert len(numbers) == (11 if rep.n_runs else 8)
            for name in numbers:
                value = getattr(rep, name)
                if isinstance(value, float):
                    moved = math.nextafter(value, math.inf)
                else:
                    moved = value.copy()
                    moved.reshape(-1)[-1] = np.nextafter(moved.reshape(-1)[-1], np.inf)
                assert rep != dataclasses.replace(rep, **{name: moved}), name

    def test_a_report_is_unequal_to_what_is_not_a_report(self):
        exact, mc, stacked = three_reports()
        assert exact != mc and exact != stacked
        for other in (None, 0.0, exact.f_total, exact.probabilities, dataclasses.astuple(exact), "report"):
            assert exact != other and not (exact == other)
        assert FidelityReport.__hash__ is None


class TestStackedEngine:
    """The stacked paths against the per-outcome loops they replace."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_optimal_correction_stack_equals_per_matrix(self, d):
        maps = random_stack(d, 12, np.random.default_rng(d))
        stacked = optimal_correction(maps)
        assert stacked.shape == maps.shape
        for k, b in enumerate(maps):
            np.testing.assert_array_equal(stacked[k], optimal_correction(b))
            assert np.max(np.abs(stacked[k] - loop_optimal_correction(b))) <= 1e-15
        np.testing.assert_allclose(stacked[1], np.eye(d), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_avg_fidelity_term_stack_equals_loop(self, d):
        rng = np.random.default_rng(d + 7)
        maps = random_stack(d, 10, rng) / (2 * d)
        vs = np.stack([haar_random_unitary(d, rng) for _ in maps])
        probs, terms = avg_fidelity_term(maps, vs)
        assert probs.shape == terms.shape == (10,)
        want = np.array([loop_fidelity_term(b, v) for b, v in zip(maps, vs)])
        assert np.max(np.abs(probs - want[:, 0])) <= 1e-15
        assert np.max(np.abs(terms - want[:, 1])) <= 1e-15

    def test_stack_checks_shape_and_every_unitary(self):
        vs = np.stack([np.eye(2)] * 3)
        with pytest.raises(ShapeError):
            avg_fidelity_term(np.zeros((3, 2, 2)), vs[:2])
        vs[2] = np.diag([1.0, 0.5])
        with pytest.raises(DomainError):
            avg_fidelity_term(np.zeros((3, 2, 2)), vs)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    def test_report_equals_per_outcome_loop(self, d, strategy, corrections):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(60 + d))
        p = refined(ch, basis, 0.6 * lambda_max(ch), strategy)
        rep = report(p, ch, basis, corrections)
        maps = channel_maps(p, ch)
        if corrections == "auto":
            vs = [loop_optimal_correction(b) for b in maps]
        else:
            vs = correction_unitaries(p, basis)
        f_con = f_inc = 0.0
        assert rep.probability_se is None and rep.fidelity_term_se is None
        for got_prob, got_term, kind, b, v in zip(rep.probabilities, rep.fidelity_terms, p.kinds, maps, vs):
            prob, term = loop_fidelity_term(b, v)
            assert abs(got_prob - prob) <= 1e-15
            assert abs(got_term - term) <= 1e-15
            if kind == CONCLUSIVE:
                f_con += term
            else:
                f_inc += term
        assert rep.f_conclusive == pytest.approx(f_con, abs=1e-14)
        assert rep.f_inconclusive == pytest.approx(f_inc, abs=1e-14)
        assert rep.f_total == pytest.approx(f_con + f_inc, abs=1e-14)
        assert rep.n_runs is None and rep.f_total_se is None


class TestRankOneEngine:
    """The report and Monte Carlo paths work on element vectors only."""

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_report_and_simulate_leave_dense_elements_unbuilt(self, strategy):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        p = refined(ch, basis, 0.4, strategy)
        report(p, ch, basis, "auto")
        simulate(p, ch, basis, "paper", n_runs=500, rng=1)
        assert "vectors" not in vars(p)

    def test_exact_report_at_d16_is_small(self):
        d = 16
        ch = random_channel(d, np.random.default_rng(16))
        basis = build_weyl_basis(d)
        lam = 0.8 * lambda_max(ch)
        tracemalloc.start()
        try:
            p = refined(ch, basis, lam, "residual")
            rep = report(p, ch, basis, "auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(rep.f_total - optimal_average_fidelity(d, ch.probs, lam)) <= 1e-9
        assert peak < 64 * 2**20
        assert "vectors" not in vars(p)


def scaled_basis(basis, alpha, factor):
    """``basis`` with operator alpha scaled by ``factor``, in the basis's own form."""
    u = basis.monomial
    ops = basis.ops.copy() if u is None else u.values.copy()
    ops[alpha] *= factor
    return UnitaryBasis(dim=basis.dim, ops=ops if u is None else Monomial(u.cols, ops))


class TestPatternPaperReport:
    """``paper`` on monomial maps reads d entries per correction, never the stack."""

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_per_outcome_numbers_match_the_dense_oracle(self, d, strategy):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(400 + d))
        for share in (0.0, 0.5, 1.0):
            p = refined(ch, basis, share * lambda_max(ch), strategy)
            maps = channel_maps(p, ch)
            # The monomial maps against the dense stack: each column's
            # stored entry is the dense one, and each nonzero entry of the
            # dense stack is the stored entry of its column.
            rows, values = fidelity._maps(p, ch)[:2]
            assert np.array_equal(values, np.take_along_axis(maps, rows[:, None, :], axis=1)[:, 0])
            a, i, j = np.nonzero(maps)
            assert np.array_equal(rows[a, j], i)
            assert np.count_nonzero(values) == a.size
            probs, terms = avg_fidelity_term(maps, correction_unitaries(p, basis))
            rep = report(p, ch, basis, "paper")
            assert np.max(np.abs(np.subtract(rep.probabilities, probs))) <= 1e-15
            assert np.max(np.abs(np.subtract(rep.fidelity_terms, terms))) <= 1e-15

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_correction_stack_is_never_built(self, monkeypatch, strategy):
        # The report and the Monte Carlo set-up each ask the monomial
        # corrections once, for d entries per outcome; no dense stack of
        # maps, vectors or corrections is built.
        d = 4
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(4))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        want = report(p, ch, basis, "auto").f_total
        asked = []
        outcomes = fidelity._outcomes

        def counted(*args):
            out = outcomes(*args)
            asked.append(out[3].shape)
            return out

        def refuse(*args):
            raise AssertionError("dense stack built")

        monkeypatch.setattr(fidelity, "_outcomes", counted)
        monkeypatch.setattr(Monomial, "dense", refuse)
        monkeypatch.setattr(fidelity, "channel_maps", refuse)
        assert report(p, ch, basis, "paper").f_total == pytest.approx(want, abs=1e-12)
        assert asked == [(p.n_outcomes, d)]
        mc = simulate(p, ch, basis, "paper", n_runs=2000, rng=1)
        assert asked == [(p.n_outcomes, d)] * 2
        assert abs(mc.f_total - want) <= 4 * mc.f_total_se
        assert "vectors" not in vars(p) and "ops" not in vars(basis)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_non_unitary_basis_operator_is_refused_on_both_paths(self, d, strategy):
        # The realized Neumark POVM is dense: it gets no paper corrections
        # from any basis.
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(500 + d))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        realized = realized_povm(dilate(p), p)
        assert p.monomial is not None and realized.monomial is None
        # One NaN value has no unit modulus either.
        values = basis.monomial.values.copy()
        values[d + 1, d // 2] = np.nan
        nan_basis = UnitaryBasis(dim=d, ops=Monomial(basis.monomial.cols, values))
        report(p, ch, basis, "paper")
        for run in (report, lambda *args: simulate(*args, n_runs=10, rng=0)):
            for bad in (scaled_basis(basis, d + 1, 0.5), nan_basis):
                with pytest.raises(DomainError, match="not unitary"):
                    run(p, ch, bad, "paper")
            with pytest.raises(DomainError, match="dense"):
                run(realized, ch, basis, "paper")

    @pytest.mark.parametrize("alpha", [0, 100, 255])
    def test_every_chunk_of_the_check_is_read(self, alpha):
        # At d = 16 the oracle's check of a dense basis runs in several
        # chunks; a bad operator in any of them is refused by the oracle's
        # corrections and by its stack check, as the report and the Monte
        # Carlo refuse any dense basis.
        self.refuse_bad_operator(alpha, "dense")

    @pytest.mark.parametrize("alpha", [0, 100, 255])
    def test_every_value_of_a_monomial_basis_is_checked(self, alpha):
        self.refuse_bad_operator(alpha, "monomial")

    def refuse_bad_operator(self, alpha, form):
        d = 16
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        if form == "dense":
            rng = np.random.default_rng(160)
            basis = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
        p = refined(ch, basis, 0.5 * lambda_max(ch), "residual")
        assert len(basis.ops) > CHUNK_ENTRIES // (d * d)
        bad = scaled_basis(basis, alpha, 0.5)
        assert (bad.monomial is None) == (form == "dense")
        with pytest.raises(DomainError):
            report(p, ch, bad, "paper")
        with pytest.raises(DomainError):
            simulate(p, ch, bad, "paper", n_runs=10, rng=0)
        with pytest.raises(DomainError):
            correction_unitaries(p, bad)
        # The builder refuses the bad basis itself, so the stack check gets
        # a bad stack built from the good one.
        vs = correction_unitaries(p, basis)
        vs[alpha] *= 0.5
        with pytest.raises(DomainError):
            avg_fidelity_term(channel_maps(p, ch), vs)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_conjugated_corrections_on_a_pattern_stack_are_refused(self, monkeypatch, d):
        # A Weyl POVM with its paper corrections read from a conjugated
        # basis: the POVM stays monomial, but the basis is dense, so the
        # report and the Monte Carlo refuse it before any map is read.
        p, ch, basis, _, _ = maps_and_corrections(d, "conjugated", "auto", 600 + d, 0.5)
        assert p.monomial is not None and basis.monomial is None
        self.refuse_dense_paper(monkeypatch, p, ch, basis, "monomial basis")

    @pytest.mark.parametrize("stack", ["rotated", "realized"])
    @pytest.mark.parametrize("form", ["monomial", "dense"])
    def test_paper_on_a_dense_povm_is_refused(self, monkeypatch, stack, form):
        # A dense POVM (a rotated one, or the realized Neumark POVM) gets no
        # paper report from a monomial basis or a dense one; it still gets
        # the auto report.
        d = 4
        p, ch, basis, _, _ = maps_and_corrections(d, "rotated", "auto", 80)
        if stack == "realized":
            q = refined(ch, basis, 0.5 * lambda_max(ch), "product")
            p = realized_povm(dilate(q), q)
        if form == "dense":
            rng = np.random.default_rng(81)
            basis = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
        assert p.monomial is None and (basis.monomial is None) == (form == "dense")
        probs, terms = avg_fidelity_term(channel_maps(p, ch), optimal_correction(channel_maps(p, ch)))
        rep = report(p, ch, basis, "auto")
        assert np.max(np.abs(rep.probabilities - probs)) <= 1e-15
        assert np.max(np.abs(rep.fidelity_terms - terms)) <= 1e-12
        self.refuse_dense_paper(monkeypatch, p, ch, basis, "monomial basis" if form == "dense" else "monomial POVM")

    def refuse_dense_paper(self, monkeypatch, p, ch, basis, message):
        def refuse(*args):
            raise AssertionError("maps read")

        monkeypatch.setattr(fidelity, "channel_maps", refuse)
        monkeypatch.setattr(fidelity, "_maps", refuse)
        calls = []
        with pytest.raises(DomainError, match=message):
            report(p, ch, basis, "paper")
        with pytest.raises(DomainError, match=message):
            simulate(p, ch, basis, "paper", n_runs=10, rng=0, transcript=calls.append)
        assert calls == []

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_real_valued_basis_gives_complex_corrections(self, strategy):
        # The d = 2 Weyl operators are real; given as real values, their
        # corrections still come out complex, as the Monte Carlo scales them
        # by complex map entries in place.  Both paths take the monomial
        # form and refuse the dense real array.
        d = 2
        weyl = build_weyl_basis(d).monomial
        basis = UnitaryBasis(dim=d, ops=Monomial(weyl.cols, weyl.values.real.copy()))
        dense = UnitaryBasis(dim=d, ops=build_weyl_basis(d).ops.real.copy())
        ch = random_channel(d, np.random.default_rng(12))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        assert correction_unitaries(p, basis).dtype == complex
        assert correction_unitaries(p, dense).dtype == complex
        exact = report(p, ch, basis, "paper")
        with pytest.raises(DomainError, match="dense"):
            report(p, ch, dense, "paper")
        mc = simulate(p, ch, basis, "paper", n_runs=4000, rng=3)
        assert abs(mc.f_total - exact.f_total) <= 4 * mc.f_total_se

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_basis_of_another_dimension_is_refused(self, strategy):
        # A larger basis would gather in range but read the wrong entries.
        d = 2
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(9))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        realized = realized_povm(dilate(p), p)
        assert p.monomial is not None and realized.monomial is None
        for q in (p, realized):
            with pytest.raises(ShapeError, match="basis dimension 3"):
                report(q, ch, build_weyl_basis(d + 1), "paper")
        with pytest.raises(ShapeError, match="basis dimension 3"):
            simulate(p, ch, build_weyl_basis(d + 1), "paper", n_runs=10, rng=0)

    def test_bound_is_unchanged(self):
        # Off by 1e-9 is refused, off by 1e-12 passes, as for the dense check.
        d = 3
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(7))
        p = refined(ch, basis, 0.5 * lambda_max(ch), "residual")
        report(p, ch, scaled_basis(basis, 4, 1 + 1e-12), "paper")
        with pytest.raises(DomainError):
            report(p, ch, scaled_basis(basis, 4, 1 + 1e-9), "paper")

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("form", ["monomial", "dense"])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_unit_modulus_check_refuses_what_the_dense_check_refused(self, d, form, strategy):
        # One phase of a Weyl basis scaled by 1 + 1e-9 is refused by report
        # and simulate, by 1 + 1e-12 accepted; the oracle's dense
        # max|V^† V - I| <= 1e-10 check gives the same verdicts on the same
        # operators.  Given as the same dense array, the basis stays dense,
        # and both paths refuse it whatever its values.
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        alpha = d * d - 1
        for factor, accepted in ((1 + 1e-12, True), (1 + 1e-9, False)):
            values = basis.monomial.values.copy()
            values[alpha, d // 2] *= factor
            scaled = Monomial(basis.monomial.cols, values)
            moved = UnitaryBasis(dim=d, ops=scaled if form == "monomial" else scaled.dense())
            assert (moved.monomial is None) == (form == "dense") and np.array_equal(moved.ops, scaled.dense())
            try:
                check_unitary(moved.ops)
                assert accepted
            except DomainError:
                assert not accepted
            for run in (report, lambda *args: simulate(*args, n_runs=10, rng=0)):
                if accepted and form == "monomial":
                    run(p, ch, moved, "paper")
                else:
                    with pytest.raises(DomainError, match="dense" if form == "dense" else "not unitary"):
                        run(p, ch, moved, "paper")

    @pytest.mark.parametrize("d", [12, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_peak_memory_is_near_the_map_stack(self, d, strategy):
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
        maps_bytes = channel_maps(p, ch).nbytes
        tracemalloc.start()
        try:
            report(p, ch, basis, "paper")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * maps_bytes


class TestSimulate:
    def test_matches_exact_within_three_sigma(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, lambda_max(ch), "product")
        mc = simulate(p, ch, basis, "paper", n_runs=100_000, rng=5)
        assert abs(mc.f_total - 0.8) <= 3 * mc.f_total_se

    def test_conclusive_runs_are_exact(self):
        d = 3
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(2))
        lam = 0.6 * lambda_max(ch)
        p = refined(ch, basis, lam, "product")
        maps = channel_maps(p, ch)
        vs = correction_unitaries(p, basis)
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = haar_random_ket(d, rng)
            for k in np.flatnonzero(p.kinds == CONCLUSIVE):
                out = vs[k] @ maps[k] @ phi
                prob = float(np.vdot(out, out).real)
                fid = abs(np.vdot(phi, out)) ** 2 / prob
                assert abs(fid - 1.0) <= 1e-12

    def test_remainder_frequency(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.4)
        lam = 0.3
        p = refined(ch, basis, lam, "product")
        mc = simulate(p, ch, basis, "auto", n_runs=50_000, rng=0)
        se = np.sqrt(lam * (1 - lam) / mc.n_runs)
        assert abs(mc.inconclusive_probability - (1 - lam)) <= 3 * se

    def test_deterministic_for_fixed_seed(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.5)
        p = refined(ch, basis, 0.2, "residual")
        a = simulate(p, ch, basis, "auto", n_runs=2_000, rng=42)
        b = simulate(p, ch, basis, "auto", n_runs=2_000, rng=42)
        assert a.f_total == b.f_total
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_exact_agreement_random_configs(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            basis = build_weyl_basis(d)
            ch = random_channel(d, rng)
            lam = float(rng.random()) * lambda_max(ch)
            strategy = "product" if trial % 2 else "residual"
            p = refined(ch, basis, lam, strategy)
            exact = report(p, ch, basis, "auto")
            mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=trial)
            assert abs(mc.f_total - exact.f_total) <= 4 * mc.f_total_se
            n = mc.n_runs
            for k, q in enumerate(exact.probabilities):
                se = max(np.sqrt(q * (1 - q) / n), 1e-9)
                assert abs(mc.probabilities[k] - q) <= 4 * se
                term_se = max(mc.fidelity_term_se[k], 1e-9)
                assert abs(mc.fidelity_terms[k] - exact.fidelity_terms[k]) <= 4 * term_se

    def test_transcript_records(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        blocks, transcript = recorder()
        simulate(p, ch, basis, "paper", n_runs=10_000, rng=1, transcript=transcript)
        # 2**16 entries over 6d + 3 = 15 per run: 4369 runs per block, each
        # call handing over the block's first run index and its outcomes.
        assert [(start, alpha.size) for start, alpha in blocks] == [(0, 4369), (4369, 4369), (8738, 1262)]
        assert all(type(start) is int and alpha.dtype.kind == "i" for start, alpha in blocks)
        alpha = run_columns(blocks)[1]
        assert 0 <= alpha.min() and alpha.max() < 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_runs": 0},
            {"n_runs": 10.5},
            {"n_runs": 10.0},
            {"n_runs": True},
            {"n_runs": "10"},
            {"rng": -1},
            {"rng": True},
            {"rng": 1.5},
            {"rng": "3"},
        ],
    )
    def test_rejects_nonpositive_runs(self, kwargs):
        # Counts must be ints of at least 1 and a seed None, a nonnegative
        # int or a Generator; anything else is refused before any draw.
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        calls = []
        with pytest.raises(DomainError):
            simulate(p, ch, basis, "paper", **{"n_runs": 10, **kwargs}, transcript=calls.append)
        assert calls == []
        # numpy integers are ints.
        rep = simulate(p, ch, basis, "paper", n_runs=np.int64(10), rng=np.int64(3))
        assert rep.n_runs == 10
        assert simulate(p, ch, basis, "paper", n_runs=10, rng=np.random.default_rng(3)) == simulate(
            p, ch, basis, "paper", n_runs=10, rng=3
        )

    def test_takes_no_worker_count(self):
        # One stream per seed: there is no shard count to pass, by name or
        # as a seventh positional argument, which is the transcript sink.
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        with pytest.raises(TypeError, match="n_workers"):
            simulate(p, ch, basis, "paper", n_runs=10, rng=0, n_workers=1)
        blocks, transcript = recorder()
        assert simulate(p, ch, basis, "paper", 10, 0, transcript) == simulate(p, ch, basis, "paper", 10, 0)
        assert len(blocks) == 1

    def test_run_count_above_the_ceiling_is_refused_before_any_generator(self, monkeypatch):
        # Per-outcome run counts are float64 sums, exact up to 2**53 runs.
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")

        def refuse(*args):
            raise AssertionError("generator made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert fidelity.MAX_RUNS == 2**53
        calls = []
        with pytest.raises(CapacityError, match=f"{2**53 + 1} runs exceed the ceiling of {2**53}"):
            simulate(p, ch, basis, "paper", n_runs=2**53 + 1, transcript=calls.append)
        assert calls == []

    def test_kept_transcript_blocks_are_not_overwritten(self, monkeypatch):
        # The blocks reuse the call's buffers, but the outcomes handed to the
        # transcript are each block's own: kept blocks read as one block does.
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "residual")
        blocks, transcript = recorder()
        simulate(p, ch, basis, "auto", n_runs=10_000, rng=3, transcript=transcript)
        monkeypatch.setattr(fidelity, "_BLOCK_ENTRIES", 1 << 30)
        whole, transcript = recorder()
        simulate(p, ch, basis, "auto", n_runs=10_000, rng=3, transcript=transcript)
        assert len(blocks) > len(whole) == 1
        for got, want in zip(run_columns(blocks), run_columns(whole)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 16])
    def test_peak_memory_does_not_grow_with_the_run_count(self, d):
        # The block buffers belong to the call and are sized by the block,
        # so ten times the runs leaves the tracemalloc peak where it was.
        p, ch, basis, _, _ = maps_and_corrections(d, "residual", "auto", 60 + d)
        peaks = []
        for n_runs in (20_000, 200_000):
            tracemalloc.start()
            try:
                simulate(p, ch, basis, "auto", n_runs=n_runs, rng=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]


def einsum_kernel(maps, vs, rng, n):
    """The pre-GEMM Born-rule kernel, kept as an oracle for the GEMM one."""
    n_out, d, _ = maps.shape
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    phi = z / np.linalg.norm(z, axis=1, keepdims=True)
    probs = np.sum(np.abs(np.einsum("okj,nj->nok", maps, phi)) ** 2, axis=2)
    u = rng.random(n) * probs.sum(axis=1)
    alpha = (u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1)
    vb = np.einsum("oij,ojk->oik", vs, maps)
    overlap = np.einsum("nj,njk,nk->n", phi.conj(), vb[alpha], phi)
    return alpha, np.abs(overlap) ** 2 / probs[np.arange(n), alpha]


def born_rule_kernel(maps, vs, rng, n):
    """The blocked GEMM Born-rule kernel: a Haar input first, then its outcome.

    It was the library's Monte Carlo kernel before the outcome-first one and
    stays here as the statistical oracle that checks it.
    """
    n_out, d, _ = maps.shape
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    phi = z / np.linalg.norm(z, axis=1, keepdims=True)
    amps = (phi @ maps.reshape(n_out * d, d).T).reshape(n, n_out, d)
    # |amps|^2 summed over the last axis, as one reduction over (re, im) pairs.
    pairs = amps.view(np.float64).reshape(n, n_out, 2 * d)
    probs = np.einsum("noj,noj->no", pairs, pairs)
    cum = np.cumsum(probs, axis=1)
    assert np.max(np.abs(cum[:, -1] - 1.0)) <= 1e-8
    u = rng.random(n) * cum[:, -1]
    alpha = (u[:, None] >= cum[:, :-1]).sum(axis=1)
    rows = np.arange(n)
    corrected = np.einsum("nij,nj->ni", vs[alpha], amps[rows, alpha])
    overlap = np.einsum("ni,ni->n", phi.conj(), corrected)
    return alpha, (overlap.real**2 + overlap.imag**2) / probs[rows, alpha]


def oracle_block(n_out, d):
    """Runs per block of the Born-rule oracle: 2**16 of its n_out * d amplitudes per run."""
    return max(1, (1 << 16) // (n_out * d))


def born_rule_estimates(maps, vs, n_runs, seed):
    """The oracle's per-outcome probabilities and terms and its total, each with its standard error."""
    n_out, d, _ = maps.shape
    rng = np.random.default_rng(seed)
    sums = np.zeros((3, n_out))
    block = oracle_block(n_out, d)
    for start in range(0, n_runs, block):
        alpha, fid = born_rule_kernel(maps, vs, rng, min(block, n_runs - start))
        for row, weights in enumerate((None, fid, fid * fid)):
            sums[row] += np.bincount(alpha, weights=weights, minlength=n_out)
    probs, terms, squares = sums / n_runs
    f_total = terms.sum()
    return (
        probs,
        terms,
        np.sqrt(probs * (1 - probs) / n_runs),
        np.sqrt(np.maximum(squares - terms**2, 0.0) / n_runs),
        f_total,
        np.sqrt(max(squares.sum() - f_total**2, 0.0) / n_runs),
    )


def outcome_first_reference(maps, vs, rng, n):
    """n runs of the outcome-first kernel, replayed from the documented rows.

    Run r reads row r of the stream's next (n, d + 3) uniforms: the outcome,
    the eigen-index and d + 1 exponentials -log(1 - u) for the squared
    moduli.  The kernel draws no phases, since they never enter a run's
    fidelity; the reference draws its d phases per run from a generator of
    its own, seeded with 0, so that it checks that claim on every run.  Each run rebuilds its input phi = E c and evaluates
    |<phi|V B phi>|^2 / |B phi|^2 with einsum on the maps themselves.  E
    comes from a batched eigh of B^† B: where M has a degenerate eigenspace
    (conclusive elements have M proportional to I), another eigh call may
    return other eigenvectors and so another input phi.
    Returns the outcomes, eigen-indices and run fidelities.
    """
    n_out, d, _ = maps.shape
    rows = rng.random((n, d + 3))
    u_outcome, u_index = rows[:, 0], rows[:, 1]
    expo = -np.log1p(-rows[:, 2:])
    phases = np.random.default_rng(0).random((n, d))
    grams = np.einsum("oki,okj->oij", maps.conj(), maps)
    cum = np.cumsum(np.trace(grams, axis1=1, axis2=2).real)
    alpha = np.searchsorted(cum, u_outcome * cum[-1], side="right")
    vals, vecs = np.linalg.eigh(dagger(maps) @ maps)
    cum_vals = np.cumsum(np.maximum(vals, 0.0), axis=1)
    k = np.array(
        [np.searchsorted(cum_vals[a], u * cum_vals[a, -1], side="right") for a, u in zip(alpha, u_index)]
    )
    x = expo[:, :d].copy()
    x[np.arange(n), k] += expo[:, d]
    c = np.sqrt(x / x.sum(axis=1, keepdims=True)) * np.exp(2j * np.pi * phases)
    phi = np.einsum("nij,nj->ni", vecs[alpha], c)
    out = np.einsum("nij,nj->ni", maps[alpha], phi)
    overlap = np.einsum("ni,nij,nj->n", phi.conj(), vs[alpha], out)
    return alpha, k, np.abs(overlap) ** 2 / np.einsum("ni,ni->n", out.conj(), out).real


def maps_and_corrections(d, strategy, corrections, seed, share=0.8):
    """Maps and corrections of a refined POVM on a seeded random channel.

    Strategy "rotated" is the residual refinement with every vector
    multiplied by kron(Q, I), Q a seeded Haar unitary: still a complete
    rank-one POVM, but a dense one, whose paper corrections leave G_a =
    E^† V_a B_a E off the diagonal.  Strategy "conjugated" is the residual
    refinement of the Weyl basis with its corrections read from a seeded
    conjugated basis: the POVM stays monomial, but the basis is dense and
    G_a is not diagonal either.  ``simulate`` takes both with ``auto`` only.
    """
    basis = build_weyl_basis(d)
    rng = np.random.default_rng(seed)
    ch = random_channel(d, rng)
    p = refined(ch, basis, share * lambda_max(ch), "product" if strategy == "product" else "residual")
    if strategy == "rotated":
        rotation = np.kron(haar_random_unitary(d, rng), np.eye(d))
        p = PovmSet(d=d, vectors=p.vectors @ rotation.T, kinds=p.kinds, labels=p.labels, lam=p.lam)
    if strategy == "conjugated":
        basis = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
    maps = channel_maps(p, ch)
    return p, ch, basis, maps, corrections_of(p, basis, maps, corrections)


class FixedRows:
    """Stand-in generator whose ``random`` hands out preset rows of uniforms."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, *, out):
        assert out.shape == self.rows.shape
        out[...] = self.rows
        return out


def tables_of(p, ch, basis, corrections):
    """The kernel's (cum_w, table, parts, guide) for the POVM's maps and a corrections mode, as in ``simulate``."""
    gram, _, sigma, g = fidelity._outcomes(p, ch, basis, corrections)
    return fidelity._sampling_tables(gram, sigma, g)


def kernel_block(p, ch, basis, corrections, rng, n):
    return fidelity._simulate_block(tables_of(p, ch, basis, corrections), rng, n, fidelity._block_buffers(p.d, n))


def refused(strategy, corrections):
    """Whether ``simulate`` refuses the case: paper corrections on a dense POVM or from a dense basis."""
    return corrections == "paper" and strategy in ("rotated", "conjugated")


def assert_simulate_refuses(p, ch, basis, corrections):
    """``simulate`` raises DomainError before any transcript call."""
    calls = []
    with pytest.raises(DomainError, match="dense"):
        simulate(p, ch, basis, corrections, n_runs=100, rng=0, transcript=calls.append)
    assert calls == []


class TestBornRuleOracle:
    """The outcome-first kernel against the Born-rule kernel it replaced."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gemm_and_einsum_oracles_agree_run_by_run(self, d):
        p, _, _, maps, vs = maps_and_corrections(d, "residual", "auto", d)
        n = oracle_block(p.n_outcomes, d)
        alpha, fid = born_rule_kernel(maps, vs, np.random.default_rng(11), n)
        want_alpha, want_fid = einsum_kernel(maps, vs, np.random.default_rng(11), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual", "rotated"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_kernels_agree_within_sigma(self, d, strategy, corrections, share):
        p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, 80 + d, share)
        if refused(strategy, corrections):
            assert_simulate_refuses(p, ch, basis, corrections)
            return
        n = 10_000
        mc = simulate(p, ch, basis, corrections, n_runs=n, rng=d)
        probs, terms, prob_se, term_se, f_total, f_total_se = born_rule_estimates(maps, vs, n, 90 + d)
        assert abs(mc.f_total - f_total) <= 4 * np.hypot(mc.f_total_se, f_total_se)
        for k in range(p.n_outcomes):
            assert abs(mc.probabilities[k] - probs[k]) <= 5 * np.hypot(mc.probability_se[k], prob_se[k])
            assert abs(mc.fidelity_terms[k] - terms[k]) <= 5 * np.hypot(mc.fidelity_term_se[k], term_se[k])


class TestBlockedKernel:
    @pytest.mark.parametrize("d", [2, 4, 6, 16])
    @pytest.mark.parametrize("source", ["monomial", "realized"])
    def test_kernel_table_is_c_ordered(self, d, source):
        # The block gathers whole columns with ``take``; on an F-ordered
        # table each column strides across all 3d rows.  ``auto`` has real
        # G_jj, so each index j holds two parts, Re G_jj and m_j.
        p, ch, basis, _, _ = maps_and_corrections(d, "residual", "auto", 30 + d)
        if source == "realized":
            p = realized_povm(dilate(p), p)
            assert p.monomial is None
        _, table, parts, _ = tables_of(p, ch, basis, "auto")
        assert parts == 2 and table.shape == (3 * d, p.n_outcomes) and table.flags.c_contiguous

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_a_zero_imaginary_row_changes_no_bit(self, d):
        # Where every Im G_jj is 0.0 the table holds (Re G_jj, m_j) per index;
        # the same table with a row of zeros put back as Im G_jj gives the
        # same outcomes and bit-identical fidelities, since re^2 + 0.0 = re^2.
        p, ch, basis, _, _ = maps_and_corrections(d, "residual", "auto", 20 + d)
        cum_w, table, parts, guide = tables_of(p, ch, basis, "auto")
        assert parts == 2
        re, m = table[d:].reshape(d, 2, -1).transpose(1, 0, 2)
        with_im = np.concatenate([table[:d], np.stack([re, np.zeros_like(re), m], axis=1).reshape(3 * d, -1)])
        n = 3_000
        runs = [
            fidelity._simulate_block(tables, np.random.default_rng(5), n, fidelity._block_buffers(d, n))
            for tables in ((cum_w, table, 2, guide), (cum_w, with_im, 3, guide))
        ]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize(
        "d, strategy, corrections",
        [
            (2, "product", "paper"),
            (3, "residual", "auto"),
            (4, "residual", "paper"),
            (2, "rotated", "paper"),
            (3, "rotated", "paper"),
            (4, "rotated", "paper"),
            (2, "rotated", "auto"),
            (3, "rotated", "auto"),
            (4, "rotated", "auto"),
        ],
    )
    def test_single_block_matches_einsum_oracle(self, d, strategy, corrections):
        # The oracle replays the documented draw order and evaluates every
        # run on the maps themselves, not on the kernel's tables; the
        # rotated POVM is dense and takes its sigma from an SVD.  Its paper
        # corrections are refused before any table is built.
        p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, d)
        assert (p.monomial is None) == (strategy == "rotated")
        if refused(strategy, corrections):
            with pytest.raises(DomainError, match="dense"):
                tables_of(p, ch, basis, corrections)
            return
        n = 2_000
        alpha, fid = kernel_block(p, ch, basis, corrections, np.random.default_rng(11), n)
        want_alpha, _, want_fid = outcome_first_reference(maps, vs, np.random.default_rng(11), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual", "rotated"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_pattern_tables_match_the_eigh_reference(self, d, strategy, corrections, share):
        # Monomial tables (no eigh, no SVD; for auto no V at all, for paper
        # d entries of each monomial V) and the auto tables of the rotated
        # stack, which is dense (only its singular values), replay the
        # reference's runs, whose eigenbasis comes from a batched eigh and
        # whose auto corrections come from the SVD oracle.  The rotated
        # stack's paper corrections are refused.
        p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, 40 + d, share)
        assert (p.monomial is None) == (strategy == "rotated")
        if refused(strategy, corrections):
            with pytest.raises(DomainError, match="dense"):
                tables_of(p, ch, basis, corrections)
            return
        n = 2_000
        alpha, fid = kernel_block(p, ch, basis, corrections, np.random.default_rng(d), n)
        want_alpha, _, want_fid = outcome_first_reference(maps, vs, np.random.default_rng(d), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12

    def test_blocks_follow_the_documented_draw_order(self, monkeypatch):
        # Run r reads row r of the uniforms of the one stream spawned from the
        # seed, so runs cut into several blocks replay as one draw of all rows.
        d = 3
        p, ch, basis, maps, vs = maps_and_corrections(d, "product", "auto", 5)
        monkeypatch.setattr(fidelity, "_BLOCK_ENTRIES", 1 << 10)
        n_runs = 487
        blocks, transcript = recorder()
        rep = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=8, transcript=transcript)
        (stream,) = np.random.default_rng(8).spawn(1)
        want_alpha, _, fid = outcome_first_reference(maps, vs, stream, n_runs)
        assert len(blocks) >= 6
        index, alpha = run_columns(blocks)
        assert index.tolist() == list(range(n_runs))
        np.testing.assert_array_equal(alpha, want_alpha)
        assert rep.f_total == pytest.approx(fid.mean(), abs=1e-12)
        terms = np.bincount(alpha, weights=fid, minlength=p.n_outcomes) / n_runs
        assert np.max(np.abs(np.subtract(rep.fidelity_terms, terms))) <= 1e-12

    def test_multi_block_report_is_reproducible(self):
        d = 4
        p, ch, basis, maps, vs = maps_and_corrections(d, "residual", "auto", 9)
        n_runs = 1637
        a = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21)
        b = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21)
        assert a == b
        # The POVM a Neumark extension realizes goes through the same
        # aggregator: its maps equal the direct ones to rounding, so the
        # draws agree, standard errors included.
        c = simulate(realized_povm(dilate(p), p), ch, basis, "auto", n_runs=n_runs, rng=21)
        direct = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21)
        assert c.n_runs == direct.n_runs and c.strategy == direct.strategy == "residual"
        assert len(c.probability_se) == len(c.fidelity_term_se) == p.n_outcomes
        assert c.f_total == pytest.approx(direct.f_total, abs=1e-12)
        assert c.f_total_se == pytest.approx(direct.f_total_se, abs=1e-12)
        assert c.probabilities == pytest.approx(direct.probabilities, abs=1e-12)
        assert c.fidelity_terms == pytest.approx(direct.fidelity_terms, abs=1e-12)

    def test_memory_is_bounded_by_the_block(self):
        d = 4
        p, ch, basis, _, _ = maps_and_corrections(d, "residual", "auto", 4)
        tracemalloc.start()
        try:
            simulate(p, ch, basis, "auto", n_runs=100_000, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("case", ["scaled-vector", "non-unitary-basis", "nan-monomial", "nan-dense"])
    @pytest.mark.parametrize("run", ["report", "simulate"])
    def test_incomplete_povm_is_refused_before_any_draw(self, run, case):
        # report and simulate refuse the same POVMs: an exact report of one
        # would have probabilities summing to 1.002 or 2.0.  One NaN value,
        # in a monomial or a dense set, is refused too, not read as a NaN
        # report, a finite Monte Carlo estimate or numpy's LinAlgError.
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        basis = build_weyl_basis(3)
        if case == "scaled-vector":
            p = refined(ch, basis, 0.4, "residual")
            vectors = p.vectors.copy()
            vectors[4] *= 1.001
            bad = PovmSet(d=3, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)
        elif case == "nan-monomial":
            p = refined(ch, basis, 0.4, "residual")
            values = p.monomial.values.copy()
            values[4, 1] = np.nan
            bad = PovmSet(d=3, vectors=Monomial(p.monomial.cols, values), kinds=p.kinds, labels=p.labels, lam=p.lam)
        elif case == "nan-dense":
            p = refined(ch, basis, 0.4, "residual")
            vectors = realized_povm(dilate(p), p).vectors.copy()
            vectors[4, 1] = np.nan
            bad = PovmSet(d=3, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)
            assert bad.monomial is None
        else:
            basis = conjugated_basis(basis, np.diag([1.0, 2.0, 1.0]), np.eye(3))
            bad = refined(ch, basis, 0.1, "residual")
        calls = []
        with pytest.raises(ConsistencyError, match="identity"):
            if run == "report":
                report(bad, ch, basis, "auto")
            else:
                simulate(bad, ch, basis, "auto", n_runs=100, rng=0, transcript=calls.append)
        assert calls == []

    def test_incomplete_dense_povm_with_paper_is_refused_as_dense(self):
        # Both paths read one set-up, which refuses paper corrections on a
        # dense POVM before it reads the maps, so before completeness.
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        basis = build_weyl_basis(3)
        p = refined(ch, basis, 0.4, "residual")
        vectors = realized_povm(dilate(p), p).vectors.copy()
        vectors[4] *= 1.001
        bad = PovmSet(d=3, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)
        assert bad.monomial is None
        for run in (report, simulate):
            with pytest.raises(DomainError, match="dense"):
                run(bad, ch, basis, "paper")

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_lambda_max_draws_no_zero_outcome_or_eigen_index(self, strategy):
        # At lambda_max the product pieces of the smallest column vanish and
        # every residual piece loses one rank.  The coefficients fall with
        # the index, so the vanishing product pieces are the last outcomes.
        d = 3
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        p = refined(ch, basis, lambda_max(ch), strategy)
        maps = channel_maps(p, ch)
        vs = optimal_correction(maps)
        weights = np.sum(np.abs(maps) ** 2, axis=(1, 2))
        dead = np.flatnonzero(weights == 0)
        tables = tables_of(p, ch, basis, "auto")
        # The table's first d rows are the cumulative eigenweights; m_j is the last of index j's parts.
        parts = tables[2]
        cum_m, m = tables[1][:d].T, tables[1][d + parts - 1 :: parts].T
        if strategy == "product":
            np.testing.assert_array_equal(dead, np.arange(2 * d * d - d, 2 * d * d))
        else:
            assert dead.size == 0 and np.all(m[d * d :, 0] == 0) and np.all(m[d * d :, 1] > 0)
        # The extreme draws: r = 0 and the largest double below 1, fed to
        # the kernel as the outcome and eigen-index uniforms of two runs.
        r = np.array([0.0, np.nextafter(1.0, 0.0)])
        rows = np.full((2, d + 3), 0.5)
        rows[:, 0] = rows[:, 1] = r
        alpha, fid = fidelity._simulate_block(tables, FixedRows(rows), 2, fidelity._block_buffers(d, 2))
        assert np.all(weights[alpha] > 0) and alpha[1] == 2 * d * d - 1 - dead.size
        assert np.all(np.isfinite(fid))
        for a in np.flatnonzero(weights):
            k = fidelity._draw_index(np.tile(cum_m[a][:, None], (1, 2)), r * cum_m[a, -1])
            assert np.all(m[a, k] > 0) and k[1] == d - 1
        # Whole runs: the kernel's eigen-indices are the reference's.
        n = 2_000
        alpha, fid = kernel_block(p, ch, basis, "auto", np.random.default_rng(3), n)
        want_alpha, k, want_fid = outcome_first_reference(maps, vs, np.random.default_rng(3), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12
        assert np.min(m[alpha, k]) > 1e-12 and not np.isin(alpha, dead).any()
        blocks, transcript = recorder()
        mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=6, transcript=transcript)
        assert not np.isin(run_columns(blocks)[1], dead).any()
        assert np.isfinite(mc.fidelity_terms).all()
        assert abs(mc.f_total - report(p, ch, basis, "auto").f_total) <= 4 * mc.f_total_se

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_near_singular_channel(self, strategy, share):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.6, 0.4 - 1e-8, 1e-8]))
        p = refined(ch, basis, share * lambda_max(ch), strategy)
        mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=12)
        assert abs(mc.f_total - report(p, ch, basis, "auto").f_total) <= 4 * mc.f_total_se

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual", "rotated", "conjugated"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("share", [0.5, 1.0])
    @pytest.mark.parametrize("n_runs", [300, 257])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, d, strategy, corrections, share, n_runs):
        # From one run per block to all runs in one block: the same runs,
        # the same transcript columns and a bit-identical report, on the
        # monomial POVMs and on the dense rotated one.  The prime run count
        # leaves a ragged last block wherever a block holds more than one run
        # and fewer than all.  With auto the conjugated basis is never read;
        # paper corrections on the rotated POVM or from the conjugated basis
        # are refused at every block size.
        p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, 30 + d, share)
        results = []
        for entries in (1, 1 << 9, 1 << 15, fidelity._BLOCK_ENTRIES, 1 << 30):
            monkeypatch.setattr(fidelity, "_BLOCK_ENTRIES", entries)
            if refused(strategy, corrections):
                assert_simulate_refuses(p, ch, basis, corrections)
                continue
            blocks, transcript = recorder()
            rep = simulate(p, ch, basis, corrections, n_runs, 17, transcript)
            results.append((len(blocks), rep, run_columns(blocks)))
        if refused(strategy, corrections):
            return
        assert results[0][0] == n_runs and results[-1][0] == 1
        assert results[0][2][0].tolist() == list(range(n_runs))
        for _, rep, cols in results[1:]:
            assert rep == results[0][1]
            for got, want in zip(cols, results[0][2]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_cli_povms_take_the_diagonal_path(self, d, strategy):
        # For every correction mode, lambda from 0 to lambda_max and a
        # near-singular channel, the POVM is monomial and V_a B_a, with the
        # dense oracle's corrections, is diagonal to rounding, so the
        # kernel takes both modes.  The theta family is monomial too;
        # realized, conjugated and rotated POVMs are not.
        basis = build_weyl_basis(d)
        probs = np.random.default_rng(d).random(d) + 0.1
        probs[-1] = 1e-8 * probs[:-1].sum()
        off = ~np.eye(d, dtype=bool)
        floor = d * np.finfo(float).eps
        for ch in (random_channel(d, np.random.default_rng(d)), make_channel(np.sqrt(probs / probs.sum()))):
            for share in (0.0, 0.5, 1.0):
                p = refined(ch, basis, share * lambda_max(ch), strategy)
                maps = channel_maps(p, ch)
                assert p.monomial is not None, (ch.coeffs, share)
                for corrections in ("auto", "paper"):
                    vb = corrections_of(p, basis, maps, corrections) @ maps
                    scale = np.abs(vb).max(axis=(1, 2))
                    assert np.all(np.abs(vb[:, off]).max(axis=1) <= floor * scale), (ch.coeffs, share, corrections)
                    _, table, parts, _ = tables_of(p, ch, basis, corrections)
                    assert table.shape == ((1 + parts) * d, p.n_outcomes)
                    assert parts == 2 if corrections == "auto" else parts in (2, 3)
        if d == 2:
            for cc, ct in ((0.6, 0.6), (0.6, 0.0), (0.3, -0.5), (0.9, 0.2)):
                ch2 = qubit_channel_from_cos_theta(cc)
                theta = build_theta_povm(ThetaPovmFamily(cc, ct, 0.5 * (1.0 - abs(ct))))
                assert refine_inconclusive_product(theta).monomial is not None
        if d <= 4:
            ch = random_channel(d, np.random.default_rng(d))
            p = refined(ch, basis, 0.5 * lambda_max(ch), strategy)
            rng = np.random.default_rng(50 + d)
            moved = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
            for q in (
                realized_povm(dilate(p), p),
                refined(ch, moved, 0.5 * lambda_max(ch), strategy),
                maps_and_corrections(d, "rotated", "auto", d)[0],
            ):
                assert q.monomial is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_auto_runs_no_eigh_on_a_dense_stack(self, monkeypatch, d):
        # The rotated POVM is dense; auto still needs only singular values,
        # and paper is refused before any map is read.
        p, ch, basis, _, _ = maps_and_corrections(d, "rotated", "auto", 60 + d)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        exact = report(p, ch, basis, "auto")
        mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=d)
        assert abs(mc.f_total - exact.f_total) <= 4 * mc.f_total_se
        with pytest.raises(DomainError, match="dense"):
            simulate(p, ch, basis, "paper", n_runs=10, rng=d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_off_diagonal_paper_is_refused_and_no_input_needs_eigh(self, monkeypatch, d):
        # Paper corrections on the realized Neumark POVM, from a conjugated
        # basis or on the rotated POVM are refused as dense, and from a
        # monomial basis whose operators are rolled by one shift (the exact
        # report takes it) they leave some V_a B_a off the diagonal: all are
        # refused before any draw and any transcript call.  What simulate
        # takes runs without eigh: monomial POVMs with either mode, and
        # dense ones with auto, which needs only singular values.
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        p, ch, basis, _, _ = maps_and_corrections(d, "product", "paper", 60 + d, 0.5)
        rotated, _, _, _, _ = maps_and_corrections(d, "rotated", "paper", 60 + d, 0.5)
        _, _, moved, _, _ = maps_and_corrections(d, "conjugated", "paper", 60 + d, 0.5)
        realized = realized_povm(dilate(p), p)
        w = basis.monomial
        rolled = UnitaryBasis(d, Monomial(np.roll(w.cols, d, axis=0), np.roll(w.values, d, axis=0)))
        report(p, ch, rolled, "paper")
        cases = ((realized, basis, "dense"), (p, moved, "dense"), (rotated, basis, "dense"), (p, rolled, "diagonal"))
        for q, b, why in cases:
            calls = []
            with pytest.raises(DomainError, match=why):
                simulate(q, ch, b, "paper", n_runs=100, rng=0, transcript=calls.append)
            assert calls == []
        for q, corrections in ((p, "auto"), (p, "paper"), (realized, "auto"), (rotated, "auto")):
            exact = report(q, ch, basis, corrections)
            mc = simulate(q, ch, basis, corrections, n_runs=20_000, rng=d)
            assert abs(mc.f_total - exact.f_total) <= 4 * mc.f_total_se

    def test_unknown_corrections_mode_is_refused(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        with pytest.raises(DomainError, match="corrections mode"):
            report(p, ch, basis, "optimal")
        with pytest.raises(DomainError, match="corrections mode"):
            simulate(p, ch, basis, "optimal", n_runs=10)

    @pytest.mark.parametrize(
        "d, strategy, corrections, share, n_runs, rel",
        [
            (16, "maximal", "auto", 1.0, 5000, 1e-3),
            *[
                (d, strategy, corrections, share, 3000, 1e-12)
                for d in (2, 3, 8)
                for strategy in ("product", "residual", "rotated")
                for corrections in ("auto", "paper")
                for share in (0.0, 1.0)
            ],
        ],
    )
    def test_total_standard_error_matches_a_two_pass_reference(self, d, strategy, corrections, share, n_runs, rel):
        # The run fidelities are replayed from the kernel on the seed's one
        # stream, then centred on their math.fsum mean before squaring.  On
        # the maximally entangled channel every run has fidelity 1 to
        # rounding, where a one-pass sum(f^2) - sum(f)^2 cancels to 0.
        if strategy == "maximal":
            basis = build_weyl_basis(d)
            ch = make_channel(np.full(d, 1 / np.sqrt(d)))
            p = refined(ch, basis, share * lambda_max(ch), "residual")
            maps, vs = channel_maps(p, ch), None
        else:
            p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, 70 + d, share)
        if refused(strategy, corrections):
            assert_simulate_refuses(p, ch, basis, corrections)
            return
        rep = simulate(p, ch, basis, corrections, n_runs=n_runs, rng=2)
        _, fid = kernel_block(p, ch, basis, corrections, np.random.default_rng(2).spawn(1)[0], n_runs)
        mean = math.fsum(fid) / n_runs
        want = math.sqrt(math.fsum((fid - mean) ** 2) / n_runs / n_runs)
        assert want > 0
        assert abs(rep.f_total_se - want) <= rel * want

    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    def test_large_d_matches_the_exact_report(self, corrections):
        d = 16
        basis = build_weyl_basis(d)
        ch = random_channel(d, np.random.default_rng(d))
        p = refined(ch, basis, lambda_max(ch), "residual")
        mc = simulate(p, ch, basis, corrections, n_runs=10_000, rng=d)
        assert abs(mc.f_total - report(p, ch, basis, corrections).f_total) <= 4 * mc.f_total_se

    def test_draw_at_the_total_picks_the_last_outcome(self):
        probs = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
        cum = np.cumsum(probs, axis=1)
        # One column per run.
        alpha = fidelity._draw_index(cum.T, cum[:, -1])
        np.testing.assert_array_equal(alpha, [3, 3])
        np.testing.assert_array_equal(fidelity._draw_index(cum.T, np.zeros(2)), [0, 0])
        np.testing.assert_array_equal(fidelity._draw_index(cum.T, cum[:, 1]), [2, 2])


def searched(cum_w, keys):
    """The binary-search outcome draw that the guide must reproduce key for key."""
    return np.searchsorted(cum_w[:-1], keys, side="right")


def edge_keys(cum_w):
    """Every edge cum_w[:-1], both float neighbours of each, 0.0 and the largest key below the total.

    Keys outside [0, total) are dropped: a run's key is r * total with 0 <= r < 1.
    """
    edges = cum_w[:-1]
    keys = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    keys = np.append(keys, [0.0, np.nextafter(cum_w[-1], 0.0)])
    return keys[(keys >= 0.0) & (keys < cum_w[-1])]


def guided(cum_w, keys):
    """The guided draw of ``keys`` from the guide ``simulate`` builds for ``cum_w``."""
    guide = fidelity._outcome_guide(cum_w)
    assert guide.size == fidelity._GUIDE_BUCKETS * cum_w.size
    return fidelity._guided_draw(cum_w, guide, keys, np.empty(keys.size))


class TestGuidedOutcomeDraw:
    """The guided outcome draw against ``np.searchsorted`` over the cumulative weights."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_povm_weights_at_every_edge(self, d, strategy, share):
        # At lambda 0 all d^2 conclusive weights are 0, so the first d^2
        # edges repeat 0.0; at lambda max the product pieces of the smallest
        # column vanish, so the last edges repeat the total.  No key in
        # [0, total) draws a zero-weight outcome.
        p, ch, basis, _, _ = maps_and_corrections(d, strategy, "auto", 90 + d, share)
        cum_w, _, _, guide = tables_of(p, ch, basis, "auto")
        weights = np.diff(cum_w, prepend=0.0)
        if share == 0.0:
            assert np.all(weights[p.kinds == CONCLUSIVE] == 0)
        if share == 1.0 and strategy == "product":
            assert np.any(weights == 0)
        keys = np.concatenate([edge_keys(cum_w), np.random.default_rng(d).random(5_000) * cum_w[-1]])
        alpha = fidelity._guided_draw(cum_w, guide, keys, np.empty(keys.size))
        np.testing.assert_array_equal(alpha, searched(cum_w, keys))
        assert np.all(weights[alpha] > 0)

    @pytest.mark.parametrize(
        "weights",
        [
            np.logspace(-300, 0, 301),
            np.logspace(0, -300, 301),
            np.r_[np.full(40, 1e-12), 1.0, np.full(40, 1e-12)],
            np.r_[1.0, 2.0, np.zeros(6)],
            np.r_[np.zeros(6), 1.0, 0.0, 2.0],
            np.r_[5e-324, 1.0, 5e-324],
            np.ones(8192),
        ],
        ids=[
            "rising-1e-300-to-1",
            "falling-1-to-1e-300",
            "one-holds-nearly-all",
            "trailing-zeros",
            "leading-zeros",
            "subnormal",
            "8192-equal",
        ],
    )
    def test_edge_cases_of_the_buckets(self, weights):
        # Rising or falling from 1e-300 to 1, most edges share bucket 0 or the
        # clipped top bucket; trailing zero weights put edges at the total
        # itself, in the top bucket.
        cum_w = np.cumsum(weights)
        keys = np.concatenate([edge_keys(cum_w), np.random.default_rng(1).random(5_000) * cum_w[-1]])
        alpha = guided(cum_w, keys)
        np.testing.assert_array_equal(alpha, searched(cum_w, keys))
        assert np.all(weights[alpha] > 0)

    def test_guide_entries(self):
        # A settled bucket holds the count of edges in lower buckets; each
        # bucket that holds an edge, repeated edges counted once, reads -1.
        cum_w = np.cumsum([0.0, 0.0, 1.0, 3.0, 0.0, 4.0])
        guide = fidelity._outcome_guide(cum_w)
        assert guide.size == 6 * fidelity._GUIDE_BUCKETS
        edges = fidelity._buckets(cum_w[:-1], cum_w, guide.size)
        np.testing.assert_array_equal(edges, (cum_w[:-1] * (guide.size / 8.0)).astype(int))
        np.testing.assert_array_equal(np.flatnonzero(guide < 0), np.unique(edges))
        settled = np.flatnonzero(guide >= 0)
        np.testing.assert_array_equal(guide[settled], np.searchsorted(edges, settled))

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=True)), min_size=1, max_size=300
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_binary_search_on_any_weights(self, weights, seed):
        cum_w = np.cumsum(weights)
        assume(cum_w[-1] >= 1e-300)
        keys = np.concatenate([edge_keys(cum_w), np.random.default_rng(seed).random(200) * cum_w[-1]])
        np.testing.assert_array_equal(guided(cum_w, keys), searched(cum_w, keys))

    @pytest.mark.parametrize("share", [0.0, 1.0])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_kernel_block_draws_what_the_binary_search_draws(self, strategy, share):
        # The kernel itself, fed preset uniforms: column 0 at r = 0, the
        # largest double below 1 and r = edge / total with both its float
        # neighbours, so that the keys r * total fall on and around the edges.
        d = 3
        p, ch, basis, _, _ = maps_and_corrections(d, strategy, "auto", 7, share)
        tables = tables_of(p, ch, basis, "auto")
        cum_w = tables[0]
        r = cum_w[:-1] / cum_w[-1]
        r = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], r, np.nextafter(r, 0.0), np.nextafter(r, 1.0)])
        r = r[(r >= 0.0) & (r < 1.0)]
        n = r.size
        rows = np.full((n, d + 3), 0.5)
        rows[:, 0] = r
        alpha, fid = fidelity._simulate_block(tables, FixedRows(rows), n, fidelity._block_buffers(d, n))
        np.testing.assert_array_equal(alpha, searched(cum_w, r * cum_w[-1]))
        assert np.all(np.diff(cum_w, prepend=0.0)[alpha] > 0)
        assert np.all(np.isfinite(fid))
