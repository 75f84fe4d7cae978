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
uniform phases.  The run fidelity is |c^† G c|^2 / sum_k m_k |c_k|^2, with
G = E^† V B E.  ``simulate`` takes only corrections that make every G
diagonal, so c^† G c = sum_k G_kk |c_k|^2: the phases never enter and a
run costs O(d).

The Monte Carlo works column-major: ``_sampling_tables`` writes every
per-outcome number into the columns of one (rows, n_out) table, a block of
runs gathers its drawn outcomes' columns with one ``take``, and each sum
over an eigen-index k is a chain of vector adds over (k, run) rows in the
order of k.  A run's arithmetic is then fixed whatever the block length,
and the per-row overhead of short reductions over k is gone.

The optimal V is the adjoint polar factor of B, so V B = (B^† B)^{1/2} = E
diag(sqrt m) E^†: G is diagonal, |Tr(V B)| is the sum of B's singular
values sigma and Tr(B^† B) = sum sigma^2.  ``auto`` reads only sigma and
never forms V.  The paper's fixed corrections also give a diagonal G on
both refinements.

Every map the CLI builds has at most one nonzero per row and per column:
X^m Z^n is a generalized permutation matrix, and the conclusive block,
both refinements and the theta family inherit that, so ``PovmSet`` stores
them as a ``Monomial`` and ``_maps`` reads each map's column i as one value
b_i = conj(v_i) a_{c_i} in row c_i, from d entries per outcome.  Then M =
diag(|b|^2) and sigma_i = |b_i|, with no SVD, no eigh and no (n, d, d)
stack.  The paper's corrections have one builder, ``_corrections``, which
first checks the basis for unitarity (``DomainError``); on a monomial
basis that is a check of |v|^2 = 1 on d entries per operator, and the
corrections come as a ``Monomial`` too.  The exact report reads d entries
of each V, for Tr(V B) = sum_i V[i, c_i] b_i, and so does the Monte
Carlo, as the diagonal of V B.  Dense POVMs (a realized Neumark extension)
and dense bases (a conjugated one) keep a dense exact report that traces
each V whole against B; ``auto`` takes sigma from an SVD without vectors,
and the Monte Carlo refuses fixed corrections that leave some V_a B_a
off the diagonal (``DomainError``).

The exact report maps a POVM's member axis (L weights, see ``PovmSet``)
through each step, elementwise or reducing one outcome's own entries, so
member k gets the bits of the single set at weight k.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import compress

import numpy as np

from .channel import SchmidtChannel
from .errors import ConsistencyError, DecompositionError, DomainError, ShapeError
from .linalg import Monomial, chunks, dagger
from .povm import CONCLUSIVE, PRODUCT, PovmSet
from .weyl import UnitaryBasis


def _check_unitary(ops: np.ndarray) -> None:
    """Raise ``DomainError`` if an op is off unitary by more than 1e-10, reading bounded chunks."""
    d = ops.shape[-1]
    for part in chunks(len(ops), d * d):
        v = ops[part]
        if np.max(np.abs(dagger(v) @ v - np.eye(d))) > 1e-10:
            raise DomainError("correction operator is not unitary")


def _check_complete(excess: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless ``excess`` = sum_a B_a^† B_a - I is within 1e-10 of 0."""
    # Array methods skip numpy's Python wrappers; verify makes hundreds of reports.
    residual = float(np.abs(excess).max())
    if residual > 1e-10:
        raise ConsistencyError(f"sum of B^† B differs from the identity by {residual:.3e} > 1e-10")


def _maps(p: PovmSet, ch: SchmidtChannel) -> tuple[np.ndarray, ...]:
    """(rows, b, sigma, Tr(B^† B)) of a monomial POVM's maps, once sum_a B_a^† B_a = I is checked per member.

    Column i of B_a holds b[..., a, i] in row rows[a, i]: with (cols, v)
    the POVM's ``monomial``, rows = cols and b = conj(v) a_cols.  So B_a^†
    B_a = diag(|b|^2), only the diagonal of the sum can differ from I, and
    the singular values sigma are |b| in column order.
    """
    rows = p.monomial.cols
    b = np.conj(p.monomial.values) * ch.coeffs[rows]
    sigma = np.abs(b)
    sq = sigma**2
    _check_complete(sq.sum(axis=-2) - 1.0)
    return rows, b, sigma, sq.sum(axis=-1)


def _dense_maps(p: PovmSet, ch: SchmidtChannel) -> tuple[np.ndarray, np.ndarray]:
    """The dense maps of any POVM and each Tr(B^† B), once sum_a B_a^† B_a = I is checked per member."""
    maps = channel_maps(p, ch)
    _check_complete(np.einsum("...nji,...njk->...ik", maps.conj(), maps) - np.eye(p.d))
    return maps, (np.abs(maps) ** 2).sum(axis=(-2, -1))


def _paired(fixed: Monomial, rows: np.ndarray) -> np.ndarray:
    """V_a[i, rows_i] for every outcome a and index i: the entries that Tr(V_a B_a) pairs with b_i."""
    return np.where(fixed.cols == rows, fixed.values, 0)


@cache
def _shifts(d: int) -> Monomial:
    """The shifts X^m, m = 0, ..., d - 1: row i of X^m holds 1 in column (i - m) mod d."""
    k = np.arange(d)
    return Monomial((k[None, :] - k[:, None]) % d, np.ones((d, d)))


def _corrections(p: PovmSet, basis: UnitaryBasis, corrections: str) -> Monomial | np.ndarray | None:
    """The paper's fixed correction of every outcome, after checking the basis; None for ``auto``.

    V_a is ``basis.ops[alpha]`` for a conclusive or residual outcome with
    label alpha, and for the product piece with label i + d j the shift X^m
    with m = (i - j) mod d, as in ``build_weyl_basis(d).ops[m * d]``.  A
    monomial basis is unitary exactly when every value has unit modulus,
    checked to 1e-10 in |v|^2, and gives a ``Monomial`` stack; a dense basis
    is checked as V^† V = I to 1e-10 and gives a dense (n, d, d) stack.
    Either fault raises ``DomainError``.
    """
    if corrections == "auto":
        return None
    if corrections != "paper":
        raise DomainError(f"unknown corrections mode {corrections!r}; use 'auto' or 'paper'")
    d = p.d
    if basis.dim != d:
        raise ShapeError(f"basis dimension {basis.dim} does not match POVM dimension {d}")
    if not p.is_refined():
        raise DecompositionError("fixed corrections need a refined POVM")
    j, i = np.divmod(p.labels, d)
    index = np.where(p.kinds == PRODUCT, d * d + (i - j) % d, p.labels)
    # X^m is at index d^2 + m.
    shifts = _shifts(d)
    u = basis.monomial
    if u is None:
        _check_unitary(basis.ops)
        return np.concatenate([basis.ops, shifts.dense()])[index]
    if np.abs(np.abs(u.values) ** 2 - 1.0).max() > 1e-10:
        raise DomainError("correction operator is not unitary")
    both = u.concat(shifts)
    return Monomial(both.cols[index], both.values[index])


@dataclass(frozen=True)
class FidelityReport:
    """Haar-average fidelity split into conclusive and inconclusive parts.

    Per-outcome numbers are columns in outcome order, tuples of floats so
    that reports compare with ``==``; the standard-error columns are None
    for an exact report.  The POVM's ``kinds`` classify the outcomes; the
    two probability totals are sums over those columns, conclusive outcomes
    and the rest, in outcome order.
    """

    lam: float
    strategy: str
    corrections: str
    probabilities: tuple[float, ...]
    fidelity_terms: tuple[float, ...]
    conclusive_probability: float
    inconclusive_probability: float
    f_conclusive: float
    f_inconclusive: float
    f_total: float
    probability_se: tuple[float, ...] | None = None
    fidelity_term_se: tuple[float, ...] | None = None
    n_runs: int | None = None
    f_total_se: float | None = None


def _check_evaluable(p: PovmSet, ch: SchmidtChannel) -> None:
    if not p.is_refined():
        raise DecompositionError(
            "POVM still contains an unrefined remainder; refine it before evaluating"
        )
    if p.d != ch.dim:
        raise ShapeError(f"POVM dimension {p.d} does not match channel dimension {ch.dim}")


def channel_maps(p: PovmSet, ch: SchmidtChannel) -> np.ndarray:
    """Dense stack of the amplitude maps B of every element, shape (n, d, d) or (L, n, d, d)."""
    _check_evaluable(p, ch)
    d = p.d
    maps = np.conj(p.vectors.reshape(p.vectors.shape[:-1] + (d, d)).swapaxes(-1, -2), order="C")
    maps *= ch.coeffs[:, None]
    return maps


def report(
    p: PovmSet, ch: SchmidtChannel, basis: UnitaryBasis, corrections: str = "auto"
) -> FidelityReport | list[FidelityReport]:
    """Exact Haar-average fidelity report for a refined POVM; one per member for a set with a member axis.

    Like ``simulate``, it first checks sum_a B_a^† B_a = I to 1e-10 for
    every member (``ConsistencyError``), so an incomplete POVM gets no
    report.  One reduction for every case: outcome a has probability
    Tr(B^† B)/d and fidelity term (|Tr(V B)|^2 + Tr(B^† B)) / (d (d + 1)).
    ``auto`` reads both traces from each map's singular values (see the
    module docstring).  ``paper`` on monomial maps with a monomial basis
    reads d entries of each fixed correction, V[i, rows_i] for Tr(V B) =
    sum_i V[i, rows_i] b_i; otherwise it traces the whole dense correction
    against the dense map.
    """
    _check_evaluable(p, ch)
    fixed = _corrections(p, basis, corrections)
    d = p.d
    if p.monomial is not None and not isinstance(fixed, np.ndarray):
        rows, b, sigma, gram = _maps(p, ch)
        if fixed is None:
            overlap = sigma.sum(axis=-1)
        else:
            overlap = np.abs((_paired(fixed, rows) * b).sum(axis=-1))
    else:
        maps, gram = _dense_maps(p, ch)
        if fixed is None:
            sigma = np.linalg.svd(maps, compute_uv=False)
            gram, overlap = (sigma**2).sum(axis=-1), sigma.sum(axis=-1)
        else:
            dense = fixed.dense() if isinstance(fixed, Monomial) else fixed
            overlap = np.abs(np.einsum("nij,...nji->...n", dense, maps))
    probs, terms = gram / d, (overlap**2 + gram) / (d * (d + 1))
    reports = list(_build_reports(p, corrections, probs, terms))
    return reports if p.members else reports[0]


def _build_reports(
    p: PovmSet,
    corrections: str,
    probs: np.ndarray,
    terms: np.ndarray,
    *,
    prob_se: np.ndarray | None = None,
    term_se: np.ndarray | None = None,
    n_runs: int | None = None,
    f_total_se: float | None = None,
) -> Iterator[FidelityReport]:
    """The one assembly of reports from per-outcome arrays, exact or Monte Carlo: one per member, in order.

    ``probs`` and ``terms`` have shape (n,) or (L, n); the Monte Carlo
    fields are a single set's.  The conclusive outcomes and the strategy are
    the POVM's, read once per set.  Each total reduces one member's own
    contiguous row, so it has the bits a single set's total has.
    """
    conclusive, rest, conclusive_flags, rest_flags, strategy = p._split
    terms = terms.reshape(-1, p.n_outcomes)
    f_con, f_inc = map(np.add.reduce, terms[:, conclusive]), map(np.add.reduce, terms[:, rest])
    columns = zip(np.atleast_1d(p.lam).tolist(), probs.reshape(terms.shape).tolist(), terms.tolist(), f_con, f_inc)
    for lam, row, term_row, con, inc in columns:
        probabilities, con, inc = tuple(row), float(con), float(inc)
        yield FidelityReport(
            lam=lam,
            strategy=strategy,
            corrections=corrections,
            probabilities=probabilities,
            fidelity_terms=tuple(term_row),
            conclusive_probability=sum(compress(probabilities, conclusive_flags)),
            inconclusive_probability=sum(compress(probabilities, rest_flags)),
            f_conclusive=con,
            f_inconclusive=inc,
            f_total=con + inc,
            probability_se=None if prob_se is None else tuple(prob_se.tolist()),
            fidelity_term_se=None if term_se is None else tuple(term_se.tolist()),
            n_runs=n_runs,
            f_total_se=f_total_se,
        )


def transcript_bits(n_outcomes: int) -> int:
    """Classical message cost per run: outcome label plus the conclusive flag bit."""
    return math.ceil(math.log2(n_outcomes)) + 1


# Monte Carlo rounds run in blocks of max(1, _BLOCK_ENTRIES // s) runs, where
# s = 7d + 3 is what one run holds: its row of 2d + 3 uniforms and its
# gathered table column of 5d rows (see ``_sampling_tables``).  That is
# about 256 KiB of per-run state; larger blocks save little per-call
# overhead, and on glibc they make the allocator return and re-fault the
# block's arrays on every block.  The size bounds memory and transcript
# calls, nothing else: run r of a shard reads row r of its (runs, 2d + 3)
# uniforms, numpy fills them in C order, each run's sums are added in a
# fixed order and the report adds runs in order, so any size gives the
# same report.
_BLOCK_ENTRIES = 1 << 15


def _draw_outcomes(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index per run: the number of cumulative weights (total excluded) <= u.

    ``cum`` has one column per run, shape (m, n).  For u = r * total with
    0 <= r < 1, u stays below the total, so no zero weight is ever drawn:
    leading ones are <= u, trailing ones equal the total.  The count is an
    integer, exact in any order of addition.
    """
    return np.count_nonzero(u >= cum[:-1], axis=0)


def _sampling_tables(
    p: PovmSet, ch: SchmidtChannel, fixed: Monomial | np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """Set-up of the outcome-first draw for M_a = B_a^† B_a, after checking sum_a M_a = I.

    ``fixed`` is what ``_corrections`` gives: every outcome's V_a, or None
    for the optimal corrections.  Returns cumulative Tr(M_a), the
    eigenvalues m of each M_a (zero at rounding level), shape (n, d), with
    their cumulative rows, and the kernel's table: one column per outcome,
    the d cumulative eigenweights, then per index j the rows Re G_jj, Im
    G_jj, m_j and 1 of the diagonal G_a = E^† V_a B_a E.  m is sigma^2 in
    stable ascending order; on monomial maps E is that sorting permutation.
    G_a = diag(sigma) for the optimal corrections.  Fixed ones must be
    monomial, on monomial maps, with V_a[i, rows_i] != 0 wherever b_i != 0,
    as the paper's are: then G_jj = V_a[i, rows_i] b_i at i = order_j.  Any
    other fixed corrections raise ``DomainError``.
    """
    d = p.d
    monomial = p.monomial is not None and not isinstance(fixed, np.ndarray)
    if monomial:
        rows, b, sigma, weights = _maps(p, ch)
    if fixed is not None and not (monomial and ((fixed.cols == rows) | (b == 0)).all()):
        raise DomainError("simulate needs fixed corrections that keep every V_a B_a diagonal")
    if not monomial:
        maps, weights = _dense_maps(p, ch)
        sigma = np.linalg.svd(maps, compute_uv=False)
    n = len(weights)
    order = np.argsort(sigma**2, axis=1, kind="stable")
    g_diag = np.take_along_axis(sigma, order, axis=1)
    m = g_diag**2
    if fixed is not None:
        g_diag = np.take_along_axis(_paired(fixed, rows) * b, order, axis=1)
    m = np.where(m > d * np.finfo(float).eps * m[:, -1:], m, 0.0)
    cum_m = np.cumsum(m, axis=1)
    per_index = np.stack([g_diag.real, g_diag.imag, m, np.ones_like(m)], axis=2).reshape(n, 4 * d)
    # Filled in place to be C-ordered: on an F-ordered table ``take`` of whole
    # columns strides across every row and costs up to 100x more.
    table = np.empty((5 * d, n))
    table[:d], table[d:] = cum_m.T, per_index.T
    return np.cumsum(weights), m, cum_m, table


def _simulate_block(tables: tuple, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Run n protocol rounds, one row of 2d + 3 uniforms each; returns (outcome, fidelity) arrays.

    No step reduces over an index axis in floating point (see the module
    docstring), so a run gets the same bits whatever n is.
    """
    cum_w, m, _, table = tables
    d = m.shape[1]
    # Columns d + 3 onward are the d phases, drawn but never read: G is
    # diagonal.  They stay so that every stream, transcript and pinned
    # digest is unchanged.
    u = rng.random((n, 2 * d + 3))
    alpha = np.searchsorted(cum_w[:-1], u[:, 0] * cum_w[-1], side="right")
    cols = table.take(alpha, axis=1)
    k = _draw_outcomes(cols[:d], u[:, 1] * cols[d - 1])
    # Unnormalized Dirichlet(1, ..., 2 at k, ..., 1) from d + 1 exponentials
    # -log(1 - u), one row per index: |c|^2 = x / sum(x).  Row k of run r
    # is entry k * n + r of the flat x.
    x = np.negative(u[:, 2 : d + 3].T, order="C")
    np.negative(np.log1p(x, out=x), out=x)
    x.reshape(-1)[k * n + np.arange(n)] += x[d]
    # Scaled by x_j, index j's rows (Re G_jj, Im G_jj, m_j, 1) become the
    # terms of Re and Im of c^† G c, of sum_j m_j |c_j|^2 and of sum(x).
    terms = cols[d:].reshape(d, 4, n)
    terms *= x[:d, None]
    acc = np.zeros((4, n))
    for row in terms:
        acc += row
    re, im, mx, total = acc
    return alpha, (re**2 + im**2) / (mx * total)


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
    (``ConsistencyError``), and so, for ``paper``, is every basis operator's
    unitarity, by ``_corrections`` as for the exact report (``DomainError``).
    Runs are sharded across ``min(n_workers, n_runs)`` chunks, each owning
    an independent generator spawned from the master seed, so the merged
    totals are reproducible for a fixed seed and shard count.  Each shard
    runs in blocks that bound memory (see ``_BLOCK_ENTRIES``); only
    per-outcome sums, added in run order, outlive a block, so the block
    size changes no result.  ``transcript``, if given, is called once per
    block with the columns ``run_index``, ``outcome_alpha`` and
    ``conclusive_flag`` (int arrays) and the scalar ``bits_sent``.  With
    ``auto`` any refined POVM works, e.g. ``dilation.realized_povm`` for the
    run-by-run check of a Neumark extension.  ``paper`` needs a monomial
    POVM whose corrections keep every V_a B_a diagonal, as every POVM the
    CLI builds does; any other input raises ``DomainError`` before any draw
    (see ``_sampling_tables``), and so do ``n_runs`` or ``n_workers`` that
    are not ints of at least 1 (a bool is not), a negative int ``rng`` and
    a set with a member axis.
    """
    for count, what in ((n_runs, "run"), (n_workers, "worker")):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise DomainError(f"need an integer count of at least one {what}, got {count!r}")
    if isinstance(rng, numbers.Integral) and rng < 0:
        raise DomainError(f"seed must be nonnegative, got {rng}")
    if p.members:
        raise DomainError(f"simulate takes one POVM, got a stack of {p.members} members")
    _check_evaluable(p, ch)
    tables = _sampling_tables(p, ch, _corrections(p, basis, corrections))
    n_out, d = p.n_outcomes, p.d
    block = max(1, _BLOCK_ENTRIES // (7 * d + 3))
    # The first k children of spawn(n) equal spawn(k), so dropping the shards
    # that would get no runs changes no result.
    n_shards = min(n_workers, n_runs)
    shares = [n_runs // n_shards + (1 if w < n_runs % n_shards else 0) for w in range(n_shards)]
    conclusive_flag = (p.kinds == CONCLUSIVE).astype(np.int64)
    # Per outcome: runs, then the sums of f, f^2, 1 - f and (1 - f)^2.
    sums = np.zeros((5, n_out))
    run_index = 0
    for stream, share in zip(np.random.default_rng(rng).spawn(n_shards), shares):
        for start in range(0, share, block):
            size = min(block, share - start)
            alpha, fid = _simulate_block(tables, stream, size)
            sums[0] += np.bincount(alpha, minlength=n_out)
            np.add.at(sums[1], alpha, fid)
            np.add.at(sums[2], alpha, fid * fid)
            loss = 1.0 - fid
            np.add.at(sums[3], alpha, loss)
            np.add.at(sums[4], alpha, loss * loss)
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
    probs, terms, squares, losses, loss_squares = sums / n_runs
    # Var(f) = Var(1 - f), and the moments of 1 - f do not cancel when the
    # run fidelities crowd near 1.
    var = float(loss_squares.sum()) - float(losses.sum()) ** 2
    [mc] = _build_reports(
        p,
        corrections,
        probs,
        terms,
        prob_se=np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / n_runs),
        term_se=np.sqrt(np.maximum(squares - terms * terms, 0.0) / n_runs),
        n_runs=n_runs,
        f_total_se=math.sqrt(max(var, 0.0) / n_runs),
    )
    return mc
