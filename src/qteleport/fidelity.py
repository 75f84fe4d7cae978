"""Haar-averaged teleportation fidelity, exact and Monte Carlo.

Every POVM element |w><w| (see ``PovmSet.vectors``) induces a linear map B
on the input amplitudes: measuring that outcome on |phi>|psi_channel> leaves
particle 3 in the unnormalized state B phi, with

    B[k, i] = conj(w[i*d + k]) a_k .

The outcome probability is then phi^† B^† B phi and, after a correction
unitary V, the run fidelity is |phi^† V B phi|^2 / |B phi|^2.  Averaging
over Haar-random inputs is exact through the second-moment identity

    E |<phi| X |phi>|^2 = (|Tr X|^2 + Tr(X^† X)) / (d (d + 1)),

so each outcome contributes probability Tr(B^† B)/d and fidelity term
(|Tr(V B)|^2 + Tr(B^† B)) / (d (d + 1)).  The Monte Carlo path checks that
split run by run, outcome first.  With M = B^† B = E diag(m) E^†, the first
moment E[phi phi^†] = I/d gives the outcome marginal Tr(M)/d, and given the
outcome phi = E c has density proportional to phi^† M phi: an eigen-index k
drawn with weight m_k, then |c|^2 ~ Dirichlet(1, ..., 2 at k, ..., 1) with
uniform phases.  The run fidelity |c^† G c|^2 / sum_k m_k |c_k|^2, with
G = E^† V B E, costs O(d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import SchmidtChannel
from .errors import ConsistencyError, DecompositionError, DomainError, ShapeError
from .linalg import dagger
from .povm import Conclusive, InconclusiveProduct, InconclusiveResidual, PovmSet, Tag
from .weyl import UnitaryBasis, shift_matrix


def avg_fidelity_term(b: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Haar-exact (probability, fidelity term) of every outcome with its correction.

    ``b`` and ``v`` are one (d, d) map and correction or equal-shaped stacks
    (..., d, d); the results have shape ``b.shape[:-2]``.
    """
    b, v = np.asarray(b), np.asarray(v)
    d = b.shape[-1]
    if b.shape[-2:] != (d, d) or v.shape != b.shape:
        raise ShapeError(f"correction shape {v.shape} does not match {b.shape}")
    if np.max(np.abs(dagger(v) @ v - np.eye(d))) > 1e-10:
        raise DomainError("correction operator is not unitary")
    gram = np.sum(np.abs(b) ** 2, axis=(-2, -1))
    prob = gram / d
    term = (np.abs(np.trace(v @ b, axis1=-2, axis2=-1)) ** 2 + gram) / (d * (d + 1))
    return prob, term


def optimal_correction(b: np.ndarray) -> np.ndarray:
    """Unitary maximizing |Tr(V B)|, i.e. the adjoint polar factor of B.

    With B = U S W^h the maximizer is V = (U W^h)^†, for which |Tr(V B)|
    equals the sum of singular values.  A fixed SVD phase convention (the
    largest-magnitude entry of each left singular vector made real
    positive) keeps the result reproducible for degenerate inputs.  ``b``
    may be a stack (..., d, d); each map gets its own correction.
    """
    u, _, wh = np.linalg.svd(np.asarray(b))
    # Columns of u are unit vectors, so every pivot is nonzero.  np.hypot
    # rounds like the scalar abs() of a per-column loop; np.abs on a complex
    # array may differ in the last place.
    rows = np.argmax(np.abs(u), axis=-2)[..., None, :]
    pivot = np.take_along_axis(u, rows, axis=-2)
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    return dagger((u / phase) @ (wh * np.swapaxes(phase, -1, -2)))


@dataclass(frozen=True)
class OutcomeStat:
    """Per-outcome slice of a fidelity report."""

    index: int
    tag: Tag
    probability: float
    fidelity_term: float
    probability_se: float | None = None
    fidelity_term_se: float | None = None


@dataclass(frozen=True)
class FidelityReport:
    """Haar-average fidelity split into conclusive and inconclusive parts."""

    lam: float
    strategy: str
    corrections: str
    outcomes: tuple[OutcomeStat, ...]
    f_conclusive: float
    f_inconclusive: float
    f_total: float
    n_runs: int | None = None
    f_total_se: float | None = None

    @property
    def conclusive_probability(self) -> float:
        return sum(o.probability for o in self.outcomes if isinstance(o.tag, Conclusive))

    @property
    def inconclusive_probability(self) -> float:
        return sum(o.probability for o in self.outcomes if not isinstance(o.tag, Conclusive))


def strategy_of(p: PovmSet) -> str:
    if any(isinstance(t, InconclusiveProduct) for t in p.tags):
        return "product"
    if any(isinstance(t, InconclusiveResidual) for t in p.tags):
        return "residual"
    return "conclusive-only"


def channel_maps(p: PovmSet, ch: SchmidtChannel) -> np.ndarray:
    """Stack of the amplitude maps B of every element, shape (n, d, d)."""
    if not p.is_refined():
        raise DecompositionError(
            "POVM still contains an unrefined remainder; refine it before evaluating"
        )
    if p.d != ch.dim:
        raise ShapeError(f"POVM dimension {p.d} does not match channel dimension {ch.dim}")
    d = p.d
    maps = p.vectors.conj().reshape(-1, d, d).transpose(0, 2, 1) * ch.coeffs[:, None]
    return np.ascontiguousarray(maps)


def correction_unitaries(
    p: PovmSet, basis: UnitaryBasis, maps: np.ndarray, mode: str
) -> np.ndarray:
    """Per-outcome correction unitaries, shape (n, d, d).

    ``auto`` optimizes every outcome at once through :func:`optimal_correction`;
    ``paper`` uses the protocol's fixed rules: the basis unitary itself for
    outcomes aligned with the measurement basis, and the cyclic shift
    |j> -> |i> for the diagonal product outcomes.
    """
    d = p.d
    if mode == "auto":
        return optimal_correction(maps)
    if mode != "paper":
        raise DomainError(f"unknown corrections mode {mode!r}; use 'auto' or 'paper'")
    vs = np.empty((p.n_outcomes, d, d), dtype=complex)
    for k, tag in enumerate(p.tags):
        if isinstance(tag, (Conclusive, InconclusiveResidual)):
            vs[k] = basis.ops[tag.alpha]
        elif isinstance(tag, InconclusiveProduct):
            vs[k] = np.linalg.matrix_power(shift_matrix(d), (tag.i - tag.j) % d)
        else:
            raise DecompositionError("fixed corrections need a refined POVM")
    return vs


def report(
    p: PovmSet, ch: SchmidtChannel, basis: UnitaryBasis, corrections: str = "auto"
) -> FidelityReport:
    """Exact Haar-average fidelity report for a refined POVM."""
    maps = channel_maps(p, ch)
    probs, terms = avg_fidelity_term(maps, correction_unitaries(p, basis, maps, corrections))
    return _build_report(p, corrections, probs, terms)


def _build_report(
    p: PovmSet,
    corrections: str,
    probs: np.ndarray,
    terms: np.ndarray,
    *,
    prob_se: np.ndarray | None = None,
    term_se: np.ndarray | None = None,
    n_runs: int | None = None,
    f_total_se: float | None = None,
) -> FidelityReport:
    """The one assembly of a report from per-outcome arrays, exact or Monte Carlo."""
    unknown = [None] * p.n_outcomes
    prob_se = unknown if prob_se is None else prob_se.tolist()
    term_se = unknown if term_se is None else term_se.tolist()
    stats = tuple(
        OutcomeStat(k, *row)
        for k, row in enumerate(zip(p.tags, probs.tolist(), terms.tolist(), prob_se, term_se))
    )
    conclusive = np.array([isinstance(t, Conclusive) for t in p.tags])
    f_con = float(terms[conclusive].sum())
    f_inc = float(terms[~conclusive].sum())
    return FidelityReport(
        lam=p.lam,
        strategy=strategy_of(p),
        corrections=corrections,
        outcomes=stats,
        f_conclusive=f_con,
        f_inconclusive=f_inc,
        f_total=f_con + f_inc,
        n_runs=n_runs,
        f_total_se=f_total_se,
    )


def transcript_bits(n_outcomes: int) -> int:
    """Classical message cost per run: outcome label plus the conclusive flag bit."""
    return math.ceil(math.log2(n_outcomes)) + 1


# Monte Carlo rounds are drawn in blocks of max(1, _BLOCK_ENTRIES //
# (n_outcomes * d)) runs.  The block size is part of the reproducibility
# contract: each block draws one uniform per run for the outcome, one per run
# for the eigen-index, then (runs, d + 1) standard exponentials and (runs, d)
# phase uniforms, so a different size gives different runs for the same seed.
_BLOCK_ENTRIES = 1 << 16


def _draw_outcomes(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index per run: the number of cumulative weights (total excluded) <= u.

    ``cum`` has one row per run, shape (n, m), or one for all, shape (1, m).
    For u = r * total with 0 <= r < 1, u stays below the total, so no zero
    weight is ever drawn: leading ones are <= u, trailing ones equal the total.
    """
    return (u >= cum[:, :-1].T).sum(axis=0)


def _sampling_tables(maps: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Set-up of the outcome-first draw, after checking sum_a M_a = I for M_a = B_a^† B_a.

    Returns cumulative Tr(M_a), shape (1, n_out), the eigenvalues m of each M_a = E diag(m) E^†
    (zero at rounding level) with their cumulative rows, and G_a = E^† V_a B_a E.
    """
    d = maps.shape[-1]
    gram = dagger(maps) @ maps
    residual = float(np.max(np.abs(gram.sum(axis=0) - np.eye(d))))
    if residual > 1e-10:
        raise ConsistencyError(f"sum of B^† B differs from the identity by {residual:.3e} > 1e-10")
    m, e = np.linalg.eigh(gram)
    m = np.where(m > d * np.finfo(float).eps * m[:, -1:], m, 0.0)
    cum_w = np.cumsum(np.sum(np.abs(maps) ** 2, axis=(1, 2)))[None]
    return cum_w, m, np.cumsum(m, axis=1), dagger(e) @ vs @ maps @ e


def _simulate_block(tables: tuple, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Run n protocol rounds; returns (chosen outcome, run fidelity) arrays."""
    cum_w, m, cum_m, g = tables
    d = m.shape[1]
    u = rng.random((2, n))
    alpha = _draw_outcomes(cum_w, u[0] * cum_w[0, -1])
    k = _draw_outcomes(cum_m[alpha], u[1] * cum_m[alpha, -1])
    # Unnormalized Dirichlet(1, ..., 2 at k, ..., 1): |c|^2 = x / sum(x).
    x = rng.standard_exponential((n, d + 1))
    x[np.arange(n), k] += x[:, d]
    x = x[:, :d]
    c = np.sqrt(x) * np.exp(2j * np.pi * rng.random((n, d)))
    overlap = np.einsum("ni,nij,nj->n", c.conj(), g[alpha], c)
    norm = np.einsum("nk,nk->n", m[alpha], x) * x.sum(axis=1)
    return alpha, (overlap.real**2 + overlap.imag**2) / norm


def simulate(
    p: PovmSet,
    ch: SchmidtChannel,
    basis: UnitaryBasis,
    corrections: str = "auto",
    n_runs: int = 10_000,
    rng: int | np.random.Generator | None = 0,
    n_workers: int = 1,
    transcript: Callable[[dict], None] | None = None,
) -> FidelityReport:
    """Monte Carlo protocol simulation with standard errors.

    Each run draws an outcome, then an input given that outcome (see the
    module docstring), applies the per-outcome correction and records the
    run fidelity; sum_a B_a^† B_a = I is checked to 1e-10 before any draw
    (``ConsistencyError``).  Runs are sharded across ``min(n_workers,
    n_runs)`` chunks, each owning an independent generator spawned from the
    master seed, so the merged totals are reproducible for a fixed seed and
    shard count.  Each shard runs in blocks of ``max(1, _BLOCK_ENTRIES //
    (n_outcomes * d))`` runs and only per-outcome sums outlive a block.
    ``transcript``, if given, is called once per block with the columns
    ``run_index``, ``outcome_alpha`` and ``conclusive_flag`` (int arrays)
    and the scalar ``bits_sent``.  Any refined POVM works, e.g.
    ``dilation.realized_povm`` for the run-by-run check of a Neumark
    extension.
    """
    if n_runs < 1:
        raise DomainError(f"need at least one run, got {n_runs}")
    if n_workers < 1:
        raise DomainError(f"need at least one worker, got {n_workers}")
    maps = channel_maps(p, ch)
    tables = _sampling_tables(maps, correction_unitaries(p, basis, maps, corrections))
    n_out, d, _ = maps.shape
    block = max(1, _BLOCK_ENTRIES // (n_out * d))
    # The first k children of spawn(n) equal spawn(k), so dropping the shards
    # that would get no runs changes no result.
    n_shards = min(n_workers, n_runs)
    shares = [n_runs // n_shards + (1 if w < n_runs % n_shards else 0) for w in range(n_shards)]
    conclusive_flag = np.array([isinstance(t, Conclusive) for t in p.tags], dtype=np.int64)
    sums = np.zeros((3, n_out))  # per outcome: runs, fidelity sum, squared-fidelity sum
    run_index = 0
    for stream, share in zip(np.random.default_rng(rng).spawn(n_shards), shares):
        for start in range(0, share, block):
            size = min(block, share - start)
            alpha, fid = _simulate_block(tables, stream, size)
            sums += [np.bincount(alpha, weights=w, minlength=n_out) for w in (None, fid, fid * fid)]
            if transcript is not None:
                transcript(
                    {
                        "run_index": np.arange(run_index, run_index + size),
                        "outcome_alpha": alpha,
                        "conclusive_flag": conclusive_flag[alpha],
                        "bits_sent": transcript_bits(n_out),
                    }
                )
            run_index += size
    probs, terms, squares = sums / n_runs
    var = float(squares.sum()) - float(terms.sum()) ** 2
    return _build_report(
        p,
        corrections,
        probs,
        terms,
        prob_se=np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / n_runs),
        term_se=np.sqrt(np.maximum(squares - terms * terms, 0.0) / n_runs),
        n_runs=n_runs,
        f_total_se=math.sqrt(max(var, 0.0) / n_runs),
    )
