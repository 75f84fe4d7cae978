"""Acceptance battery: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from qteleport.channel import basis_states, make_channel, qubit_channel_from_cos_theta
from qteleport.dilation import dilate, outcome_probabilities, realized_povm
from qteleport.errors import PositivityError
from qteleport import fidelity
from qteleport.fidelity import channel_maps, report, simulate
from qteleport.formulas import (
    best_orthogonal_fidelity,
    binary_entropy,
    channel_from_entropy,
    optimal_average_fidelity,
    product_strategy_fidelity,
    relaxed_angle_fidelity,
)
from qteleport.linalg import haar_random_ket
from qteleport.povm import (
    Conclusive,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.verify import run_battery
from qteleport.weyl import build_weyl_basis

DIMS = (2, 3, 4)
N_CHANNELS = 25

# Frozen after bisection-oracle confirmation (see criterion 6).
PMIN_BITS_019 = 0.029128040978
PMIN_BITS_055 = 0.127304805976


def grid_channels(d, n=N_CHANNELS, seed_base=1000):
    rng = np.random.default_rng(seed_base + d)
    out = []
    for _ in range(n):
        probs = rng.random(d) + 0.1
        out.append(make_channel(np.sqrt(probs / probs.sum())))
    return out


def lam_grid(ch):
    top = lambda_max(ch)
    return (0.0, top / 2, top)


def test_criterion_1_povm_structure():
    t0 = time.perf_counter()
    for d in DIMS:
        basis = build_weyl_basis(d)
        eye = np.eye(d * d)
        for ch in grid_channels(d):
            states = basis_states(ch, basis)
            for lam in lam_grid(ch):
                p = build_conclusive_povm(ch, basis, lam)
                assert np.max(np.abs(p.elements.sum(axis=0) - eye)) <= 1e-10
                assert min(np.linalg.eigvalsh(el)[0] for el in p.elements) >= -1e-10
                born = np.einsum(
                    "ai,nij,aj->na", states.conj(), p.elements[: d * d], states
                ).real
                off = born - np.diag(np.diag(born))
                if lam > 0:
                    assert np.max(np.abs(off)) / np.min(np.diag(born)) <= 1e-10
                else:
                    assert np.max(np.abs(born)) <= 1e-10
                refined = refine_inconclusive_product(p)
                maps = channel_maps(refined, ch)
                probs = np.sum(np.abs(maps) ** 2, axis=(1, 2)) / d
                assert np.max(np.abs(probs[: d * d] - lam / d**2)) <= 1e-10
                assert abs(probs[d * d :].sum() - (1.0 - lam)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 1: POVM structure on {len(DIMS)}x{N_CHANNELS}x3 grid "
        f"(completeness/positivity/identification/probabilities, {elapsed:.1f}s)"
    )


def test_criterion_2_optimal_fidelity_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    mc_worst = 0.0
    for d in DIMS:
        basis = build_weyl_basis(d)
        channels = grid_channels(d)
        for idx, ch in enumerate(channels):
            for lam in lam_grid(ch):
                p = refine_inconclusive_residual(
                    build_conclusive_povm(ch, basis, lam), basis
                )
                exact = report(p, ch, basis, "auto")
                want = optimal_average_fidelity(d, ch.probs, lam)
                worst = max(worst, abs(exact.f_total - want))
                # Monte Carlo on a deterministic subsample of the grid.
                if idx % 8 == 0:
                    mc = simulate(p, ch, basis, "auto", n_runs=100_000, rng=idx + d)
                    mc_worst = max(
                        mc_worst, abs(mc.f_total - exact.f_total) / mc.f_total_se
                    )
    # The edges, exact only: d = 16 to 128, a channel with min a^2 = 1e-8,
    # both strategies (the product split against its own closed form) and
    # lambda at 0, half and the positivity bound; fixed corrections at
    # d = 16 and 64.
    for d in (16, 32, 48, 64, 128):
        basis = build_weyl_basis(d)
        probs = np.random.default_rng(d).random(d) + 0.1
        probs[-1] = 1e-8
        probs[:-1] *= (1.0 - 1e-8) / probs[:-1].sum()
        channels = [make_channel(np.sqrt(probs))]
        if d == 16:
            channels.append(grid_channels(d, n=1)[0])
        for ch in channels:
            for lam in lam_grid(ch):
                base = build_conclusive_povm(ch, basis, lam)
                for p, want in (
                    (refine_inconclusive_residual(base, basis), optimal_average_fidelity(d, ch.probs, lam)),
                    (refine_inconclusive_product(base), product_strategy_fidelity(d, lam)),
                ):
                    for corrections in ("auto", "paper") if d in (16, 64) else ("auto",):
                        worst = max(worst, abs(report(p, ch, basis, corrections).f_total - want))
    assert worst <= 1e-9
    assert mc_worst <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 2: optimal-fidelity closed form (exact worst {worst:.2e}, "
        f"MC worst {mc_worst:.2f} sigma, {elapsed:.1f}s)"
    )


def test_criterion_3_qubit_closed_forms():
    basis = build_weyl_basis(2)
    worst_total = worst_split = worst_zero = 0.0
    channels = [qubit_channel_from_cos_theta(c) for c in (0.1, 0.3, 0.6, 0.9)]
    channels += grid_channels(2, n=10, seed_base=77)
    for ch in channels:
        for lam in lam_grid(ch):
            p = refine_inconclusive_product(build_conclusive_povm(ch, basis, lam))
            rep = report(p, ch, basis, "paper")
            worst_total = max(worst_total, abs(rep.f_total - (2 / 3) * (1 + lam / 2)))
            worst_split = max(worst_split, abs(rep.f_inconclusive - 2 * (1 - lam) / 3))
        zero = report(
            refine_inconclusive_residual(build_conclusive_povm(ch, basis, 0.0), basis),
            ch,
            basis,
            "auto",
        )
        a1, a2 = ch.coeffs
        worst_zero = max(worst_zero, abs(zero.f_total - (2 / 3) * (1 + a1 * a2)))
        assert best_orthogonal_fidelity(ch.probs) == pytest.approx(
            (2 / 3) * (1 + a1 * a2), abs=1e-12
        )
    assert worst_total <= 1e-9
    assert worst_split <= 1e-9
    assert worst_zero <= 1e-9
    print(
        f"\nPASS criterion 3: d=2 closed forms (total {worst_total:.2e}, "
        f"split {worst_split:.2e}, zero-weight {worst_zero:.2e})"
    )


def test_criterion_4_standard_teleportation_limit():
    for d in DIMS:
        basis = build_weyl_basis(d)
        ch = make_channel(np.full(d, 1 / np.sqrt(d)))
        p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 1.0))
        exact = report(p, ch, basis, "paper")
        assert abs(exact.f_total - 1.0) <= 1e-10
        assert exact.inconclusive_probability <= 1e-10
        # Per-run conclusive fidelity, through the protocol primitives.
        maps = channel_maps(p, ch)
        # The paper's fixed corrections, read whole: V_a[i, j] for every i, j.
        vs = fidelity._corrections(p, basis, "paper").dense()
        rng = np.random.default_rng(d)
        for _ in range(500):
            phi = haar_random_ket(d, rng)
            amps = np.einsum("okj,j->ok", maps, phi)
            probs = np.sum(np.abs(amps) ** 2, axis=1)
            alpha = int(np.argmax(np.cumsum(probs) >= rng.random()))
            assert isinstance(p.tags[alpha], Conclusive)
            out = vs[alpha] @ amps[alpha]
            fid = abs(np.vdot(phi, out)) ** 2 / probs[alpha]
            assert abs(fid - 1.0) <= 1e-12
        mc = simulate(p, ch, basis, "paper", n_runs=20_000, rng=d)
        for q, term in zip(mc.probabilities, mc.fidelity_terms):
            if q > 0:
                assert abs(term / q - 1.0) <= 1e-12
    print("\nPASS criterion 4: maximally entangled limit is exact, run by run")


def test_criterion_5_relaxed_angle_family():
    basis = build_weyl_basis(2)
    worst = 0.0
    for cc in (0.0, 0.3, 0.6, 0.9):
        ch = qubit_channel_from_cos_theta(cc)
        for k in range(20):
            ct = round(0.05 * k, 10)
            lam = 1.0 - abs(ct)
            fam = ThetaPovmFamily(cc, ct, lam)
            p = refine_inconclusive_product(build_theta_povm(fam))
            rep = report(p, ch, basis, "auto")
            worst = max(worst, abs(rep.f_total - relaxed_angle_fidelity(cc, ct, lam)))
            with pytest.raises(PositivityError):
                ThetaPovmFamily(cc, ct, lam + 1e-3)
    assert worst <= 1e-9
    print(f"\nPASS criterion 5: relaxed-angle family (worst {worst:.2e}, bound enforced)")


def test_criterion_6_figure_regression(tmp_path):
    from qteleport.cli import main

    out = tmp_path / "figure1.csv"
    assert main(["figure1", "--out", str(out)]) == 0
    import csv

    rows = list(csv.DictReader(out.read_text().splitlines()))
    # Endpoints.
    assert any(
        r["entropy_bits"] == "1"
        and float(r["cos_theta"]) == 0.0
        and abs(float(r["fidelity_opt"]) - 1.0) <= 1e-9
        and r["is_arrow_point"] == "1"
        for r in rows
    )
    for r in rows:
        if r["entropy_bits"] == "0":
            assert abs(float(r["fidelity_opt"]) - 2 / 3) <= 1e-9
    # Arrow abscissas derive from the entropy inversion.
    for s, want_pmin in ((0.19, PMIN_BITS_019), (0.55, PMIN_BITS_055)):
        assert binary_entropy(want_pmin) == pytest.approx(s, abs=1e-9)
        channel, cc = channel_from_entropy(s)
        assert float(np.min(channel.probs)) == pytest.approx(want_pmin, abs=1e-9)
        arrow = next(
            r for r in rows if float(r["entropy_bits"]) == s and r["is_arrow_point"] == "1"
        )
        assert float(arrow["cos_theta"]) == pytest.approx(1 - 2 * want_pmin, abs=1e-9)
    # Curves non-increasing in the overlap.
    for s in ("0", "0.19", "0.55", "1"):
        curve = [
            float(r["fidelity_opt"])
            for r in rows
            if r["entropy_bits"] == s and r["is_arrow_point"] == "0"
        ]
        assert all(a - b >= -1e-12 for a, b in zip(curve, curve[1:]))
    print("\nPASS criterion 6: figure CSV endpoints, arrows and monotonicity")


def test_criterion_7_neumark_dilation():
    t0 = time.perf_counter()
    for d in (2, 3):
        basis = build_weyl_basis(d)
        rng = np.random.default_rng(d * 5)
        probs = rng.random(d) + 0.1
        ch = make_channel(np.sqrt(probs / probs.sum()))
        lam = 0.6 * lambda_max(ch)
        base = build_conclusive_povm(ch, basis, lam)
        for refined in (
            refine_inconclusive_product(base),
            refine_inconclusive_residual(base, basis),
        ):
            dil = dilate(refined, ancilla_dim=d)
            assert np.max(dil.residuals) <= 1e-10
            u = dil.u_ext
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10
            for _ in range(10):
                state = haar_random_ket(d * d, rng)
                via_ext = outcome_probabilities(dil, refined, state)
                direct = np.einsum(
                    "i,nij,j->n", state.conj(), refined.elements, state
                ).real
                assert np.max(np.abs(via_ext - direct)) <= 1e-10
            mc_ext = simulate(
                realized_povm(dil, refined), ch, basis, "auto", n_runs=30_000, rng=d
            )
            mc_direct = simulate(refined, ch, basis, "auto", n_runs=30_000, rng=d + 50)
            sigma = float(np.hypot(mc_ext.f_total_se, mc_direct.f_total_se))
            assert abs(mc_ext.f_total - mc_direct.f_total) <= 4 * sigma
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: dilation reconstructs and simulates ({elapsed:.1f}s)")


def test_criterion_8_strategy_discrepancy_documented():
    basis3 = build_weyl_basis(3)
    ch3 = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    lam3 = lambda_max(ch3)
    assert lam3 == pytest.approx(0.6, abs=1e-12)
    base3 = build_conclusive_povm(ch3, basis3, lam3)
    f_prod = report(refine_inconclusive_product(base3), ch3, basis3, "paper").f_total
    f_res = report(
        refine_inconclusive_residual(base3, basis3), ch3, basis3, "auto"
    ).f_total
    assert f_prod == pytest.approx(0.8, abs=1e-9)
    assert f_res == pytest.approx(0.8 + np.sqrt(0.27) / 6, abs=1e-9)  # 0.8866025404
    assert f_res - f_prod > 0.05
    basis2 = build_weyl_basis(2)
    ch2 = qubit_channel_from_cos_theta(0.6)
    base2 = build_conclusive_povm(ch2, basis2, lambda_max(ch2))
    g_prod = report(refine_inconclusive_product(base2), ch2, basis2, "paper").f_total
    g_res = report(
        refine_inconclusive_residual(base2, basis2), ch2, basis2, "auto"
    ).f_total
    assert abs(g_prod - g_res) <= 1e-9
    # The verification battery documents both numbers.
    notes = " ".join(r.note for r in run_battery(dims=(2,), n_channels=2))
    assert "0.8000000000" in notes
    assert "0.8866025404" in notes
    print(
        "\nPASS criterion 8: strategy gap documented "
        f"(d=3: {f_prod:.10f} vs {f_res:.10f}; d=2 coincide at the optimum)"
    )
