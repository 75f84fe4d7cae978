import tracemalloc

import numpy as np
import pytest

from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.errors import ConsistencyError, DecompositionError, DomainError, ShapeError
from qteleport import fidelity
from qteleport.fidelity import (
    avg_fidelity_term,
    channel_maps,
    correction_unitaries,
    optimal_correction,
    report,
    simulate,
    transcript_bits,
)
from qteleport.dilation import dilate, realized_povm
from qteleport.formulas import (
    best_orthogonal_fidelity,
    optimal_average_fidelity,
    product_strategy_fidelity,
    qubit_average_fidelity,
)
from qteleport.linalg import dagger, haar_random_ket, haar_random_unitary
from qteleport.povm import (
    Conclusive,
    InconclusiveResidual,
    PovmSet,
    Remainder,
    build_conclusive_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.weyl import build_weyl_basis, conjugated_basis


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
            i, j = p.tags[k].i, p.tags[k].j
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
                d=2, vectors=np.diag([0.5, 0.5, 0.0, 0.0])[None], tags=(InconclusiveResidual(0),), lam=0.0
            )
        rem = PovmSet(
            d=2, vectors=np.zeros((0, 4)), tags=(Remainder(),), lam=0.0,
            remainder=np.array([0.5, 0.5, 0.0, 0.0]),
        )
        with pytest.raises(DecompositionError):
            channel_maps(rem, ch)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    def test_matches_eigh_oracle_up_to_phase(self, d, strategy):
        rng = np.random.default_rng(40 + d)
        basis = build_weyl_basis(d)
        ch = random_channel(d, rng)
        p = refined(ch, basis, 0.7 * lambda_max(ch), strategy)
        maps = channel_maps(p, ch)
        for k in range(p.n_outcomes):
            want = eigh_map(p.elements[k], ch)
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
        assert sum(o.probability for o in rep.outcomes) == pytest.approx(1.0, abs=1e-10)
        assert rep.f_total == pytest.approx(rep.f_conclusive + rep.f_inconclusive, abs=1e-14)

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
        auto = correction_unitaries(p, basis, maps, "auto")
        fixed = correction_unitaries(p, basis, maps, "paper")
        for k in range(p.n_outcomes):
            t_auto = abs(np.trace(auto[k] @ maps[k]))
            t_fixed = abs(np.trace(fixed[k] @ maps[k]))
            assert t_fixed == pytest.approx(t_auto, abs=1e-10)


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
            vs = correction_unitaries(p, basis, maps, "paper")
        f_con = f_inc = 0.0
        for stat, tag, b, v in zip(rep.outcomes, p.tags, maps, vs):
            prob, term = loop_fidelity_term(b, v)
            assert stat.tag == tag and stat.probability_se is None
            assert abs(stat.probability - prob) <= 1e-15
            assert abs(stat.fidelity_term - term) <= 1e-15
            if isinstance(tag, Conclusive):
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
        assert "elements" not in vars(p)

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
        assert "elements" not in vars(p)


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
        vs = correction_unitaries(p, basis, maps, "paper")
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = haar_random_ket(d, rng)
            for k, tag in enumerate(p.tags):
                if not isinstance(tag, Conclusive):
                    continue
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
        a = simulate(p, ch, basis, "auto", n_runs=2_000, rng=42, n_workers=3)
        b = simulate(p, ch, basis, "auto", n_runs=2_000, rng=42, n_workers=3)
        assert a.f_total == b.f_total
        assert [o.probability for o in a.outcomes] == [o.probability for o in b.outcomes]

    def test_surplus_workers_spawn_no_empty_shards(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.5)
        p = refined(ch, basis, 0.2, "residual")
        want = simulate(p, ch, basis, "auto", n_runs=3, rng=42, n_workers=3)
        tracemalloc.start()
        try:
            got = simulate(p, ch, basis, "auto", n_runs=3, rng=42, n_workers=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**20

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
            for ex, got in zip(exact.outcomes, mc.outcomes):
                se = max(np.sqrt(ex.probability * (1 - ex.probability) / n), 1e-9)
                assert abs(got.probability - ex.probability) <= 4 * se
                term_se = max(got.fidelity_term_se or 0.0, 1e-9)
                assert abs(got.fidelity_term - ex.fidelity_term) <= 4 * term_se

    def test_transcript_records(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        blocks = []
        simulate(p, ch, basis, "paper", n_runs=10_000, rng=1, transcript=blocks.append)
        # 8 outcomes x d=2 amplitudes per run: 4096 runs per block.
        assert [len(b["run_index"]) for b in blocks] == [4096, 4096, 1808]
        assert transcript_bits(p.n_outcomes) == 4  # ceil(log2(8)) + 1
        for b in blocks:
            assert set(b) == {"run_index", "outcome_alpha", "conclusive_flag", "bits_sent"}
            assert b["bits_sent"] == 4
        cols = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0] if k != "bits_sent"}
        assert all(c.dtype.kind == "i" for c in cols.values())
        assert cols["run_index"].tolist() == list(range(10_000))
        assert 0 <= cols["outcome_alpha"].min() and cols["outcome_alpha"].max() < 8
        np.testing.assert_array_equal(cols["conclusive_flag"], cols["outcome_alpha"] < 4)

    def test_rejects_nonpositive_runs(self):
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refined(ch, basis, 0.4, "product")
        with pytest.raises(DomainError):
            simulate(p, ch, basis, "paper", n_runs=0)


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


def born_rule_estimates(maps, vs, n_runs, seed):
    """The oracle's per-outcome probabilities and terms and its total, each with its standard error."""
    n_out, d, _ = maps.shape
    rng = np.random.default_rng(seed)
    sums = np.zeros((3, n_out))
    block = max(1, fidelity._BLOCK_ENTRIES // (n_out * d))
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
    """One block of the outcome-first kernel, replayed from the documented draw order.

    The stream yields n outcome uniforms, n eigen-index uniforms, (n, d + 1)
    standard exponentials and (n, d) phase uniforms.  Each run rebuilds its
    input phi = E c and evaluates |<phi|V B phi>|^2 / |B phi|^2 with einsum
    on the maps themselves.  Returns the outcomes, eigen-indices and run
    fidelities.
    """
    n_out, d, _ = maps.shape
    u_outcome, u_index = rng.random(n), rng.random(n)
    expo = rng.standard_exponential((n, d + 1))
    phases = rng.random((n, d))
    grams = np.einsum("oki,okj->oij", maps.conj(), maps)
    cum = np.cumsum(np.trace(grams, axis1=1, axis2=2).real)
    alpha = np.searchsorted(cum, u_outcome * cum[-1], side="right")
    vals, vecs = zip(*map(np.linalg.eigh, grams))
    cum_vals = np.cumsum(np.maximum(vals, 0.0), axis=1)
    k = np.array(
        [np.searchsorted(cum_vals[a], u * cum_vals[a, -1], side="right") for a, u in zip(alpha, u_index)]
    )
    x = expo[:, :d].copy()
    x[np.arange(n), k] += expo[:, d]
    c = np.sqrt(x / x.sum(axis=1, keepdims=True)) * np.exp(2j * np.pi * phases)
    phi = np.einsum("nij,nj->ni", np.array(vecs)[alpha], c)
    out = np.einsum("nij,nj->ni", maps[alpha], phi)
    overlap = np.einsum("ni,nij,nj->n", phi.conj(), vs[alpha], out)
    return alpha, k, np.abs(overlap) ** 2 / np.einsum("ni,ni->n", out.conj(), out).real


def maps_and_corrections(d, strategy, corrections, seed, share=0.8):
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(seed))
    p = refined(ch, basis, share * lambda_max(ch), strategy)
    maps = channel_maps(p, ch)
    return p, ch, basis, maps, correction_unitaries(p, basis, maps, corrections)


def block_size(p, d):
    return max(1, fidelity._BLOCK_ENTRIES // (p.n_outcomes * d))


def kernel_block(maps, vs, rng, n):
    return fidelity._simulate_block(fidelity._sampling_tables(maps, vs), rng, n)


class TestBornRuleOracle:
    """The outcome-first kernel against the Born-rule kernel it replaced."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gemm_and_einsum_oracles_agree_run_by_run(self, d):
        p, _, _, maps, vs = maps_and_corrections(d, "residual", "auto", d)
        n = block_size(p, d)
        alpha, fid = born_rule_kernel(maps, vs, np.random.default_rng(11), n)
        want_alpha, want_fid = einsum_kernel(maps, vs, np.random.default_rng(11), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_kernels_agree_within_sigma(self, d, strategy, corrections, share):
        p, ch, basis, maps, vs = maps_and_corrections(d, strategy, corrections, 80 + d, share)
        n = 10_000
        mc = simulate(p, ch, basis, corrections, n_runs=n, rng=d)
        probs, terms, prob_se, term_se, f_total, f_total_se = born_rule_estimates(maps, vs, n, 90 + d)
        assert abs(mc.f_total - f_total) <= 4 * np.hypot(mc.f_total_se, f_total_se)
        for k, got in enumerate(mc.outcomes):
            assert abs(got.probability - probs[k]) <= 5 * np.hypot(got.probability_se, prob_se[k])
            assert abs(got.fidelity_term - terms[k]) <= 5 * np.hypot(got.fidelity_term_se, term_se[k])


class TestBlockedKernel:
    @pytest.mark.parametrize(
        "d, strategy, corrections",
        [(2, "product", "paper"), (3, "residual", "auto"), (4, "residual", "paper")],
    )
    def test_single_block_matches_einsum_oracle(self, d, strategy, corrections):
        # The oracle replays the documented draw order and evaluates every
        # run on the maps themselves, not on the kernel's tables.
        p, _, _, maps, vs = maps_and_corrections(d, strategy, corrections, d)
        n = block_size(p, d)
        alpha, fid = kernel_block(maps, vs, np.random.default_rng(11), n)
        want_alpha, _, want_fid = outcome_first_reference(maps, vs, np.random.default_rng(11), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12

    def test_blocks_follow_the_documented_draw_order(self):
        # Each shard stream is consumed block by block, every block drawing
        # its uniforms, exponentials and phases in turn; the oracle replays
        # that order.
        d = 3
        p, ch, basis, maps, vs = maps_and_corrections(d, "product", "auto", 5)
        block = block_size(p, d)
        n_runs = 5 * block + 37
        blocks = []
        rep = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=8, n_workers=2, transcript=blocks.append)
        want_alpha, want_fid = [], []
        for stream, share in zip(np.random.default_rng(8).spawn(2), (n_runs - n_runs // 2, n_runs // 2)):
            for start in range(0, share, block):
                size = min(block, share - start)
                alpha, _, fid = outcome_first_reference(maps, vs, stream, size)
                want_alpha.append(alpha)
                want_fid.append(fid)
        assert len(blocks) == len(want_alpha) == 6
        alpha = np.concatenate([b["outcome_alpha"] for b in blocks])
        np.testing.assert_array_equal(alpha, np.concatenate(want_alpha))
        fid = np.concatenate(want_fid)
        assert rep.f_total == pytest.approx(fid.mean(), abs=1e-12)
        terms = np.bincount(alpha, weights=fid, minlength=p.n_outcomes) / n_runs
        got = np.array([o.fidelity_term for o in rep.outcomes])
        assert np.max(np.abs(got - terms)) <= 1e-12

    def test_multi_block_report_is_reproducible(self):
        d = 4
        p, ch, basis, maps, vs = maps_and_corrections(d, "residual", "auto", 9)
        n_runs = 3 * block_size(p, d) + 101
        a = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21, n_workers=3)
        b = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21, n_workers=3)
        assert a == b
        # The POVM a Neumark extension realizes goes through the same
        # aggregator: its maps equal the direct ones to rounding, so the
        # draws agree, standard errors included.
        c = simulate(realized_povm(dilate(p), p), ch, basis, "auto", n_runs=n_runs, rng=21)
        direct = simulate(p, ch, basis, "auto", n_runs=n_runs, rng=21)
        assert c.n_runs == direct.n_runs and c.strategy == direct.strategy == "residual"
        assert [o.tag for o in c.outcomes] == list(p.tags)
        assert all(o.probability_se is not None for o in c.outcomes)
        assert c.f_total == pytest.approx(direct.f_total, abs=1e-12)
        assert c.f_total_se == pytest.approx(direct.f_total_se, abs=1e-12)
        for got, want in zip(c.outcomes, direct.outcomes):
            assert got.probability == pytest.approx(want.probability, abs=1e-12)
            assert got.fidelity_term == pytest.approx(want.fidelity_term, abs=1e-12)

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

    def test_incomplete_povm_is_refused_before_any_draw(self):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
        p = refined(ch, basis, 0.4, "residual")
        vectors = p.vectors.copy()
        vectors[4] *= 1.001
        bad = PovmSet(d=3, vectors=vectors, tags=p.tags, lam=p.lam)
        calls = []
        with pytest.raises(ConsistencyError, match="identity"):
            simulate(bad, ch, basis, "auto", n_runs=100, rng=0, transcript=calls.append)
        assert calls == []

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
        vs = correction_unitaries(p, basis, maps, "auto")
        weights = np.sum(np.abs(maps) ** 2, axis=(1, 2))
        dead = np.flatnonzero(weights == 0)
        cum_w, m, cum_m, _ = fidelity._sampling_tables(maps, vs)
        if strategy == "product":
            np.testing.assert_array_equal(dead, np.arange(2 * d * d - d, 2 * d * d))
        else:
            assert dead.size == 0 and np.all(m[d * d :, 0] == 0) and np.all(m[d * d :, 1] > 0)
        # The extreme draws: r = 0 and the largest double below 1.
        r = np.array([0.0, np.nextafter(1.0, 0.0)])
        alpha = fidelity._draw_outcomes(cum_w, r * cum_w[0, -1])
        assert np.all(weights[alpha] > 0) and alpha[1] == 2 * d * d - 1 - dead.size
        for a in np.flatnonzero(weights):
            k = fidelity._draw_outcomes(np.tile(cum_m[a], (2, 1)), r * cum_m[a, -1])
            assert np.all(m[a, k] > 0) and k[1] == d - 1
        # Whole runs: the kernel's eigen-indices are the reference's.
        n = block_size(p, d)
        alpha, fid = kernel_block(maps, vs, np.random.default_rng(3), n)
        want_alpha, k, want_fid = outcome_first_reference(maps, vs, np.random.default_rng(3), n)
        np.testing.assert_array_equal(alpha, want_alpha)
        assert np.max(np.abs(fid - want_fid)) <= 1e-12
        assert np.min(m[alpha, k]) > 1e-12 and not np.isin(alpha, dead).any()
        blocks = []
        mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=6, transcript=blocks.append)
        assert not np.isin(np.concatenate([b["outcome_alpha"] for b in blocks]), dead).any()
        assert all(np.isfinite(o.fidelity_term) for o in mc.outcomes)
        assert abs(mc.f_total - report(p, ch, basis, "auto").f_total) <= 4 * mc.f_total_se

    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_near_singular_channel(self, strategy, share):
        basis = build_weyl_basis(3)
        ch = make_channel(np.sqrt([0.6, 0.4 - 1e-8, 1e-8]))
        p = refined(ch, basis, share * lambda_max(ch), strategy)
        mc = simulate(p, ch, basis, "auto", n_runs=20_000, rng=12)
        assert abs(mc.f_total - report(p, ch, basis, "auto").f_total) <= 4 * mc.f_total_se

    def test_draw_at_the_total_picks_the_last_outcome(self):
        probs = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
        cum = np.cumsum(probs, axis=1)
        alpha = fidelity._draw_outcomes(cum, cum[:, -1])
        np.testing.assert_array_equal(alpha, [3, 3])
        np.testing.assert_array_equal(fidelity._draw_outcomes(cum, np.zeros(2)), [0, 0])
        np.testing.assert_array_equal(fidelity._draw_outcomes(cum, cum[:, 1]), [2, 2])
