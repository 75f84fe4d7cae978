"""Invariant battery behind the ``verify`` CLI command.

Each check reduces to a named residual against a fixed tolerance so the
table stays diff-able.  The battery also prints the strategy-discrepancy
section: the product and residual splits of the same remainder give
different Haar-average fidelities in general (they coincide for d = 2 at
the optimal weight), and both numbers are reported rather than reconciled.

Every dense oracle is one matrix product.  With F the flattened (d^2, d^2)
Weyl operators, the trace Gram is conj(F) F^T and completeness F^T conj(F)
/ d; with the states S and duals D, modified completeness is S^T conj(D)
and the joint-state expansion S^T (phi conj(U_a)); map completeness is
B^† B over the maps stacked as (n d, d).  The POVM checks read the vectors W
(element k is |w_k><w_k|) and the remainder diagonal R: completeness is
``_outer_sum`` = W^T conj(W) plus diag(R) minus I, the conclusive block's
sum formed once per channel and reused for a refined block equal to it;
positivity is -min R; the identification ratio reads |W S^+|^2, the
remainder form R, the residual split the pieces' ``_outer_sum`` against
diag(R).  The dilation's direct probabilities are |conj(W) s|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, basis_states, dual_states, make_channel, qubit_channel_from_cos_theta
from .errors import QTeleportError
from .fidelity import channel_maps, report, simulate
from .formulas import (
    best_orthogonal_fidelity,
    optimal_average_fidelity,
    product_strategy_fidelity,
    qubit_average_fidelity,
    relaxed_angle_fidelity,
)
from .dilation import dilate, dilated_channel_maps, outcome_probabilities
from .linalg import dagger, haar_random_ket, haar_random_unitary, partial_trace, von_neumann_entropy
from .povm import (
    CONCLUSIVE,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from .weyl import UnitaryBasis, build_weyl_basis, conjugated_basis, maximally_entangled_basis, orthogonality_residuals


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(name: str, residual: float, tolerance: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(residual), tolerance, bool(residual <= tolerance), note)


def _outer_sum(w: np.ndarray) -> np.ndarray:
    """sum_k |w_k><w_k| over the rows of ``w``, (n, D) or (L, n, D), as one product: (D, D) or (L, D, D)."""
    return np.swapaxes(w, -1, -2) @ w.conj()


def _random_channel(d: int, rng: np.random.Generator) -> SchmidtChannel:
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def _basis_checks(d: int, basis: UnitaryBasis) -> list[CheckResult]:
    unit, trace_res, comp_res = orthogonality_residuals(basis)
    kets = maximally_entangled_basis(basis)
    me_gram = np.max(np.abs(kets.conj() @ kets.T - np.eye(d * d)))
    me_comp = np.max(np.abs(_outer_sum(kets) - np.eye(d * d)))
    return [
        _check(f"weyl d={d} unitarity", unit, 1e-12),
        _check(f"weyl d={d} pairwise trace orthogonality", trace_res, 1e-10),
        _check(f"weyl d={d} completeness relation", comp_res, 1e-10),
        _check(f"entangled basis d={d} orthonormality", me_gram, 1e-12),
        _check(f"entangled basis d={d} completeness", me_comp, 1e-12),
    ]


def _channel_checks(d: int, basis: UnitaryBasis, rng: np.random.Generator) -> list[CheckResult]:
    ch = _random_channel(d, rng)
    states = basis_states(ch, basis)
    duals = dual_states(ch, basis).dense().reshape(d * d, d * d)
    cross = np.max(np.abs(duals.conj() @ states.T - np.eye(d * d)))
    mod_res = np.max(np.abs(states.T @ duals.conj() - np.eye(d * d)))
    phis = np.array([haar_random_ket(d, rng) for _ in range(20)])
    # |phi> (x) |channel> as sum_a |state_a> (x) U_a^† |phi> / d, for every sample at once.
    moved = (phis @ basis.ops.conj()).swapaxes(0, 1)
    expansion = (states.T @ moved).reshape(20, d**3) / d
    worst = float(np.max(np.abs(np.kron(phis, ch.ket()) - expansion)))
    rho = np.outer(ch.ket(), ch.ket().conj())
    reduced = partial_trace(rho, 0, [d, d])
    want = float(-np.sum(ch.probs * np.log2(ch.probs)))
    ent_res = abs(von_neumann_entropy(reduced) - want)
    return [
        _check(f"dual biorthogonality d={d}", cross, 1e-10),
        _check(f"modified completeness d={d}", mod_res, 1e-10),
        _check(f"joint-state expansion d={d}", worst, 1e-10),
        _check(f"channel entropy d={d}", ent_res, 1e-10),
    ]


def _povm_checks(d: int, basis: UnitaryBasis, rng: np.random.Generator, n_channels: int) -> list[CheckResult]:
    eye = np.eye(d * d)
    comp = psd = ident = prob_res = inc_res = rem_res = split_res = 0.0
    for _ in range(n_channels):
        ch = _random_channel(d, rng)
        states = basis_states(ch, basis)
        lmax = lambda_max(ch)
        # One POVM stack per channel: the dense oracles run once per stack.
        lams = np.array([0.0, lmax / 2, lmax])
        p = build_conclusive_povm(ch, basis, lams)
        remainder = p.remainder[:, :, None] * eye
        block_sum = _outer_sum(p.vectors)
        comp = max(comp, float(np.max(np.abs(block_sum + remainder - eye))))
        psd = max(psd, -float(p.remainder.min()), 0.0)
        born = np.abs(p.vectors[:, : d * d] @ states.conj().T) ** 2
        diag = np.diagonal(born, axis1=1, axis2=2)
        off = np.where(eye == 1, 0.0, born)
        scale = np.where(lams > 0, np.maximum(diag.min(axis=1), 1e-300), 1.0)
        ident = max(ident, float(np.max(off.max(axis=(1, 2)) / scale)))
        analytic = np.tile(np.clip(1.0 - lams[:, None] / (d * ch.probs), 0.0, None), d)
        rem_res = max(rem_res, float(np.max(np.abs(p.remainder - analytic))))
        res = refine_inconclusive_residual(p, basis)
        for refined in (refine_inconclusive_product(p), res):
            # p's block sum stands in for a conclusive block equal to p's; the residual's pieces, last, serve the split.
            pieces = _outer_sum(refined.vectors[:, d * d :])
            kept = np.array_equal(refined.vectors[:, : d * d], p.vectors)
            comp = max(comp, float(np.max(np.abs(block_sum + pieces - eye))) if kept else np.inf)
            rep = report(refined, ch, basis, "auto")
            conclusive = rep.probabilities[:, refined.kinds == CONCLUSIVE]
            prob_res = max(prob_res, float(np.max(np.abs(conclusive - lams[:, None] / d**2))))
            inc_res = max(inc_res, float(np.max(np.abs(rep.inconclusive_probability - (1.0 - lams)))))
        split_res = max(split_res, float(np.max(np.abs(pieces - remainder))))
    return [
        _check(f"povm d={d} completeness", comp, 1e-10),
        _check(f"povm d={d} positivity", psd, 1e-10),
        _check(f"povm d={d} identification ratio", ident, 1e-10),
        _check(f"povm d={d} conclusive probability lam/d^2", prob_res, 1e-10),
        _check(f"povm d={d} inconclusive probability 1-lam", inc_res, 1e-10),
        _check(f"povm d={d} remainder diagonal form", rem_res, 1e-10),
        _check(f"povm d={d} residual split sums to remainder", split_res, 1e-10),
    ]


def _engine_checks(d: int, basis: UnitaryBasis, rng: np.random.Generator, n_channels: int) -> list[CheckResult]:
    res_formula = prod_formula = map_comp = corr_opt = invariance = monotone = 0.0
    for _ in range(n_channels):
        ch = _random_channel(d, rng)
        lmax = lambda_max(ch)
        # One POVM stack per channel for the three checked weights.
        lams = np.array([0.0, lmax / 2, lmax])
        p = build_conclusive_povm(ch, basis, lams)
        residual = refine_inconclusive_residual(p, basis)
        f_res = report(residual, ch, basis, "auto").f_total
        f_prod = report(refine_inconclusive_product(p), ch, basis, "paper").f_total
        for lam, res, prod in zip(lams.tolist(), f_res.tolist(), f_prod.tolist()):
            res_formula = max(res_formula, abs(res - optimal_average_fidelity(d, ch.probs, lam)))
            prod_formula = max(prod_formula, abs(prod - product_strategy_fidelity(d, lam)))
        maps = channel_maps(residual, ch)
        flat = maps.reshape(len(lams), -1, d)
        map_comp = max(map_comp, float(np.max(np.abs(dagger(flat) @ flat - np.eye(d)))))
        conclusive = residual.kinds == CONCLUSIVE
        nuclear = np.linalg.svd(maps[:, conclusive], compute_uv=False).sum(axis=-1)
        ops = basis.ops[residual.labels[conclusive]]
        fixed = np.abs(np.trace(ops @ maps[:, conclusive], axis1=-2, axis2=-1))
        corr_opt = max(corr_opt, float(np.max(np.abs(fixed - nuclear))))
        # Product fidelity grows with the conclusive weight, residual
        # fidelity shrinks (the certainty-vs-average trade-off); check both
        # directions on a 20-point weight grid, one stack per strategy.
        grid = build_conclusive_povm(ch, basis, np.linspace(0.0, lmax, 20))
        f_prod, f_res = (
            report(refined, ch, basis, "auto").f_total
            for refined in (refine_inconclusive_product(grid), refine_inconclusive_residual(grid, basis))
        )
        monotone = max(monotone, float(np.max(f_prod[:-1] - f_prod[1:])), float(np.max(f_res[1:] - f_res[:-1])))
    ch = _random_channel(d, rng)
    lam = lambda_max(ch) / 2
    moved = conjugated_basis(basis, haar_random_unitary(d, rng), haar_random_unitary(d, rng))
    for refine in (lambda q, _: refine_inconclusive_product(q), refine_inconclusive_residual):
        f0 = report(refine(build_conclusive_povm(ch, basis, lam), basis), ch, basis, "auto").f_total
        f1 = report(refine(build_conclusive_povm(ch, moved, lam), moved), ch, moved, "auto").f_total
        invariance = max(invariance, abs(f0 - f1))
    checks = [
        _check(f"engine d={d} residual split matches closed form", res_formula, 1e-9),
        _check(f"engine d={d} product split matches closed form", prod_formula, 1e-9),
        _check(f"engine d={d} amplitude-map completeness", map_comp, 1e-10),
        _check(f"engine d={d} basis-unitary correction optimal", corr_opt, 1e-10),
        _check(f"engine d={d} fidelity monotone in weight per strategy", monotone, 1e-12),
        _check(f"engine d={d} basis invariance", invariance, 1e-9),
    ]
    if d == 2:
        split = fs = theta_res = 0.0
        for cc in (0.0, 0.3, 0.6, 0.9):
            ch2 = qubit_channel_from_cos_theta(cc)
            lmax = lambda_max(ch2)
            lams = np.array([0.0, lmax / 2, lmax])
            p = build_conclusive_povm(ch2, basis, lams)
            rp = report(refine_inconclusive_product(p), ch2, basis, "paper")
            for lam, f_inc, f_total in zip(lams.tolist(), rp.f_inconclusive.tolist(), rp.f_total.tolist()):
                split = max(split, abs(f_inc - 2.0 * (1.0 - lam) / 3.0))
                split = max(split, abs(f_total - qubit_average_fidelity(lam)))
            # Member 0 has weight 0.
            f0 = report(refine_inconclusive_residual(p, basis), ch2, basis, "auto").f_total[0]
            fs = max(fs, abs(f0 - best_orthogonal_fidelity(ch2.probs)))
            fams = [ThetaPovmFamily(cc, float(ct), 1.0 - abs(ct)) for ct in np.arange(0.0, 0.951, 0.05)]
            thetas = report(refine_inconclusive_product(build_theta_povm(fams)), ch2, basis, "auto").f_total
            for fam, f_theta in zip(fams, thetas.tolist()):
                theta_res = max(theta_res, abs(f_theta - relaxed_angle_fidelity(cc, fam.cos_theta, fam.lam)))
        rejected = 0.0
        try:
            ThetaPovmFamily(0.6, 0.5, 1.0 - 0.5 + 1e-3)
            rejected = 1.0
        except QTeleportError:
            pass
        checks += [
            _check("engine d=2 conclusive/inconclusive split closed forms", split, 1e-9),
            _check("engine d=2 zero-weight limit equals orthogonal bound", fs, 1e-9),
            _check("engine d=2 relaxed-angle family matches closed form", theta_res, 1e-9),
            _check("theta family rejects weight beyond positivity", rejected, 0.5),
        ]
    return checks


def _dilation_checks(d: int, basis: UnitaryBasis, rng: np.random.Generator) -> list[CheckResult]:
    recon = unit = prob_res = 0.0
    ch = _random_channel(d, rng)
    lam = lambda_max(ch) / 2
    p = build_conclusive_povm(ch, basis, lam)
    for refined in (refine_inconclusive_product(p), refine_inconclusive_residual(p, basis)):
        dil = dilate(refined)
        recon = max(recon, float(np.max(dil.residuals)))
        ext = dil.u_ext
        unit = max(unit, float(np.max(np.abs(ext.conj().T @ ext - np.eye(ext.shape[0])))))
        for _ in range(5):
            state = haar_random_ket(d * d, rng)
            via_ext = outcome_probabilities(dil, refined, state)
            direct = np.abs(refined.vectors.conj() @ state) ** 2
            prob_res = max(prob_res, float(np.max(np.abs(via_ext - direct))))
        maps_ext = dilated_channel_maps(dil, refined, ch)
        maps_direct = channel_maps(refined, ch)
        prob_res = max(prob_res, float(np.max(np.abs(np.abs(maps_ext) - np.abs(maps_direct)))))
    return [
        _check(f"dilation d={d} element reconstruction", recon, 1e-10),
        _check(f"dilation d={d} extended unitarity", unit, 1e-10),
        _check(f"dilation d={d} outcome probabilities match", prob_res, 1e-10),
    ]


def _monte_carlo_check(rng_seed: int) -> list[CheckResult]:
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    lam = lambda_max(ch)
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, lam))
    exact = report(p, ch, basis, "paper")
    mc = simulate(p, ch, basis, "paper", n_runs=20_000, rng=rng_seed)
    sigma = mc.f_total_se if mc.f_total_se and mc.f_total_se > 0 else 1e-12
    pulls = abs(mc.f_total - exact.f_total) / sigma
    inc_freq = mc.inconclusive_probability
    inc_sigma = max(np.sqrt(lam * (1 - lam) / mc.n_runs), 1e-12)
    inc_pulls = abs(inc_freq - (1.0 - lam)) / inc_sigma
    return [
        _check("monte carlo total fidelity within 4 sigma", pulls, 4.0, f"f={mc.f_total:.5f}"),
        _check("monte carlo inconclusive frequency within 3 sigma", inc_pulls, 3.0),
    ]


def _strategy_discrepancy() -> list[CheckResult]:
    # Product (paper corrections) and residual (auto) fidelity at the optimal weight.
    fids = []
    for ch in (make_channel(np.sqrt([0.5, 0.3, 0.2])), qubit_channel_from_cos_theta(0.6)):
        basis = build_weyl_basis(ch.dim)
        p = build_conclusive_povm(ch, basis, lambda_max(ch))
        product = report(refine_inconclusive_product(p), ch, basis, "paper").f_total
        fids.append((product, report(refine_inconclusive_residual(p, basis), ch, basis, "auto").f_total))
    (f_prod, f_res), (g_prod, g_res) = fids
    gap = f_res - f_prod
    return [
        _check(
            "strategies differ at d=3 optimal weight",
            1.0 if gap <= 1e-3 else 0.0,
            0.5,
            f"product={f_prod:.10f} residual={f_res:.10f} gap={gap:.10f}",
        ),
        _check(
            "strategies coincide at d=2 optimal weight",
            abs(g_res - g_prod),
            1e-9,
            f"product={g_prod:.10f} residual={g_res:.10f}",
        ),
    ]


def _configured_checks(channel: SchmidtChannel, lam: float | None) -> list[CheckResult]:
    d = channel.dim
    value = lambda_max(channel) if lam is None else lam
    name = f"configured channel d={d} lam={value:g} positivity"
    try:
        p = build_conclusive_povm(channel, build_weyl_basis(d), value)
    except QTeleportError as exc:
        return [CheckResult(name, float("inf"), 1e-10, False, str(exc))]
    comp = float(np.max(np.abs(_outer_sum(p.vectors) + np.diag(p.remainder) - np.eye(d * d))))
    return [
        # 0.0 first: max keeps the first of equal values, so -0.0 never prints.
        _check(name, max(0.0, -float(p.remainder.min())), 1e-10),
        _check(f"configured channel d={d} completeness", comp, 1e-10),
    ]


def run_battery(
    dims: tuple[int, ...] = (2, 3),
    n_channels: int = 5,
    seed: int = 2026,
    configured: tuple[SchmidtChannel, float | None] | None = None,
) -> list[CheckResult]:
    """Run the full invariant battery and return one result row per check."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for d in dims:
        basis = build_weyl_basis(d)
        results += _basis_checks(d, basis)
        results += _channel_checks(d, basis, rng)
        results += _povm_checks(d, basis, rng, n_channels)
        results += _engine_checks(d, basis, rng, max(2, n_channels // 2))
        if d <= 3:
            results += _dilation_checks(d, basis, rng)
    results += _monte_carlo_check(seed)
    results += _strategy_discrepancy()
    if configured is not None:
        results += _configured_checks(*configured)
    return results
