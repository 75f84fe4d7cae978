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
diagonal, so c^† G c = sum_k G_kk |c_k|^2: the phases never enter, no run
draws them, and a run costs O(d).

The Monte Carlo works column-major: ``_sampling_tables`` writes every
per-outcome number into the columns of one (rows, n_out) table, with no
Im G_kk rows when all of them are 0.0, a block of runs gathers its drawn
outcomes' columns with one ``take``, and each sum over an eigen-index k
is a chain of vector adds over (k, run) rows in the order of k.  A run's
arithmetic is then fixed whatever the block length, and the per-row
overhead of short reductions over k is gone.  Every other block-sized
array is a view of buffers that one ``simulate`` call allocates once.

Column 0 of a run's uniforms picks the outcome: with the cumulative
weights cum_w and the key x = u_0 cum_w[-1], it is the count of edges
cum_w[:-1] <= x, ``np.searchsorted(cum_w[:-1], x, side="right")``.  As
x < cum_w[-1], no outcome of weight 0 is drawn.  ``_guided_draw`` reads
it from a guide (Chen and Asau 1974) of G = 32 n buckets: x lies in
bucket f(x) = int(min(x s, G - 1)), s = G / cum_w[-1].  f never
decreases as x grows, since x s is a correctly rounded product with s >
0, then a min, then the truncation of a nonnegative float.  So an edge in
a bucket below f(x) is below x, and an edge in a bucket above it is above
x.  A bucket that holds no edge stores the count of edges below it, the
outcome of each of its keys; a bucket that holds one stores -1, and its
keys, at most one in 32, take the binary search.  Either way the outcome
is the binary search's, for repeated edges (zero weights), keys equal to
an edge and the clipped top bucket alike.

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
stack.  The paper's corrections have one builder, ``_corrections``: it
takes a monomial basis only, checks it for unitarity as |v|^2 = 1 on d
entries per operator (``DomainError``), and gives the corrections as a
``Monomial`` too.  One reader, ``_outcomes``,
sets up the exact report and the Monte Carlo alike: per outcome
gram = Tr(B^† B), overlap = |Tr(V B)|, sigma, and g, the diagonal of V B,
from d entries of each V as g_i = V[i, c_i] b_i.  A dense POVM (a realized
Neumark extension) takes ``auto`` only, with sigma from an SVD without
vectors; ``paper`` on a dense POVM or a dense basis (a conjugated one) is
refused (``DomainError``) before any map is read.  The Monte Carlo draws
outcomes with the report's own gram as weights and refuses fixed
corrections that leave some V_a B_a off the diagonal (``DomainError``).

The exact report maps a POVM's member axis (L weights, see ``PovmSet``)
through each step, elementwise or reducing one outcome's or one member's
own entries, so row k of a stack's report has the bits of the single set
at weight k.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .channel import SchmidtChannel
from .errors import CapacityError, ConsistencyError, DecompositionError, DomainError, ShapeError
from .linalg import Monomial, dagger
from .povm import CONCLUSIVE, PRODUCT, PovmSet
from .weyl import UnitaryBasis


def _check_complete(excess: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless ``excess`` = sum_a B_a^† B_a - I is within 1e-10 of 0 (a NaN is not)."""
    # Array methods skip numpy's Python wrappers; verify makes hundreds of reports.
    residual = float(np.abs(excess).max())
    if not residual <= 1e-10:
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


def _corrections(p: PovmSet, basis: UnitaryBasis, corrections: str) -> Monomial | None:
    """The paper's fixed correction of every outcome, after checking the basis; None for ``auto``.

    V_a is ``basis.ops[alpha]`` for a conclusive or residual outcome with
    label alpha, and for the product piece with label i + d j the shift X^m
    with m = (i - j) mod d, as in ``build_weyl_basis(d).ops[m * d]``.  A
    monomial basis is unitary exactly when every value has unit modulus,
    checked to 1e-10 in |v|^2 (a NaN fails).  A dense basis, and a basis
    that fails the check, raise ``DomainError``.
    """
    if corrections == "auto":
        return None
    if corrections != "paper":
        raise DomainError(f"unknown corrections mode {corrections!r}; use 'auto' or 'paper'")
    d = p.d
    if basis.dim != d:
        raise ShapeError(f"basis dimension {basis.dim} does not match POVM dimension {d}")
    u = basis.monomial
    if u is None:
        raise DomainError("paper corrections need a monomial basis, got a dense one")
    if not np.abs(np.abs(u.values) ** 2 - 1.0).max() <= 1e-10:
        raise DomainError("correction operator is not unitary")
    j, i = np.divmod(p.labels, d)
    index = np.where(p.kinds == PRODUCT, d * d + (i - j) % d, p.labels)
    # X^m is at index d^2 + m: row i of X^m holds 1 in column (i - m) mod d.
    k = np.arange(d)
    both = u.concat(Monomial((k[None, :] - k[:, None]) % d, np.ones((d, d))))
    return Monomial(both.cols[index], both.values[index])


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Haar-average fidelity split into conclusive and inconclusive parts: one report per call.

    The per-outcome columns are read-only float arrays in outcome order
    that follow the POVM's member axis: shape (n,) for a single set and
    (L, n) for a stack.  ``lam`` and the totals follow the same axis: a
    float for a single set, a read-only (L,) array for a stack.  The
    standard-error columns are None for an exact report.  The POVM's
    ``kinds`` classify the outcomes; the two probability totals add a row's
    conclusive entries and the rest one after another, in outcome order.
    Two reports are equal when every field is, arrays entry for entry.
    """

    lam: float | np.ndarray
    strategy: str
    corrections: str
    probabilities: np.ndarray
    fidelity_terms: np.ndarray
    conclusive_probability: float | np.ndarray
    inconclusive_probability: float | np.ndarray
    f_conclusive: float | np.ndarray
    f_inconclusive: float | np.ndarray
    f_total: float | np.ndarray
    probability_se: np.ndarray | None = None
    fidelity_term_se: np.ndarray | None = None
    n_runs: int | None = None
    f_total_se: float | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, FidelityReport) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


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


def _outcomes(p: PovmSet, ch: SchmidtChannel, basis: UnitaryBasis, corrections: str) -> tuple:
    """(gram, overlap, sigma, g) per outcome, after the evaluability, basis and completeness checks, in that order.

    Completeness is sum_a B_a^† B_a = I to 1e-10 for every member
    (``ConsistencyError``).  sigma is in column order on monomial maps, and
    g, the diagonal of V B, in the same order: sigma for ``auto``, None if
    some V_a B_a is off the diagonal.  Dense maps take ``auto`` only, with
    sigma from an SVD; ``paper`` on them raises ``DomainError`` before the
    completeness check.
    """
    _check_evaluable(p, ch)
    fixed = _corrections(p, basis, corrections)
    if p.monomial is None:
        if fixed is not None:
            raise DomainError("paper corrections need a monomial POVM, got a dense one")
        maps = channel_maps(p, ch)
        flat = maps.reshape(maps.shape[:-3] + (-1, p.d))
        _check_complete(dagger(flat) @ flat - np.eye(p.d))
        sigma = np.linalg.svd(maps, compute_uv=False)
        return (sigma**2).sum(axis=-1), sigma.sum(axis=-1), sigma, sigma
    rows, b, sigma, gram = _maps(p, ch)
    if fixed is None:
        return gram, sigma.sum(axis=-1), sigma, sigma
    hit = fixed.cols == rows
    g = np.where(hit, fixed.values, 0) * b
    return gram, np.abs(g.sum(axis=-1)), sigma, g if (hit | (b == 0)).all() else None


def report(p: PovmSet, ch: SchmidtChannel, basis: UnitaryBasis, corrections: str = "auto") -> FidelityReport:
    """Exact Haar-average fidelity report for a refined POVM, one for the whole member axis.

    Like ``simulate``, it reads every outcome through ``_outcomes``, so an
    incomplete POVM gets no report (``ConsistencyError``) and ``paper`` on a
    dense POVM or basis none either (``DomainError``).  Outcome a has
    probability Tr(B^† B)/d and fidelity term (|Tr(V B)|^2 + Tr(B^† B)) /
    (d (d + 1)).
    """
    gram, overlap, _, _ = _outcomes(p, ch, basis, corrections)
    d = p.d
    return _build_report(p, corrections, gram / d, (overlap**2 + gram) / (d * (d + 1)))


def _frozen(x):
    """One number as a float, an array read-only."""
    if np.ndim(x) == 0:
        return float(x)
    x.setflags(write=False)
    return x


def _build_report(p: PovmSet, corrections: str, probs: np.ndarray, terms: np.ndarray, **mc) -> FidelityReport:
    """The one assembly of a report from per-outcome arrays of shape (n,) or (L, n), exact or Monte Carlo.

    The arrays given become the columns; ``mc`` holds a single set's Monte
    Carlo fields.  The f totals reduce each member's row of conclusive
    terms, and of the rest, with ``np.add.reduce``; the probability totals
    add a row's entries one after another, as builtin ``sum`` does.  A
    single set's report is then the stack's row at its weight, bit for bit.
    """
    conclusive, rest, strategy = p._split
    # ``compress`` keeps each row C-contiguous: boolean indexing makes an
    # F-ordered copy, which the reduction would add column by column.
    f_con, f_inc = (np.add.reduce(terms.compress(mask, axis=-1), axis=-1) for mask in (conclusive, rest))
    # x + 0.0 is x for every x but -0.0, and no probability is -0.0, so the
    # zeros in place of the other outcomes change no bit of the running sum.
    p_con, p_inc = (np.cumsum(np.where(mask, probs, 0.0), axis=-1)[..., -1] for mask in (conclusive, rest))
    numbers = (probs, terms, p_con, p_inc, f_con, f_inc, f_con + f_inc)
    return FidelityReport(_frozen(p.lam), strategy, corrections, *map(_frozen, numbers), **mc)


def transcript_bits(n_outcomes: int) -> int:
    """Classical message cost per run: outcome label plus the conclusive flag bit."""
    return math.ceil(math.log2(n_outcomes)) + 1


# Monte Carlo rounds run in blocks of max(1, _BLOCK_ENTRIES // s) runs, where
# s = 6d + 3 is about what one run holds: its row of d + 3 uniforms, its
# d + 1 exponentials and its gathered table column of at most 4d rows (see
# ``_sampling_tables``).  That is about 512 KiB of per-run state.  Each
# ``simulate`` call allocates its block buffers once, so no block re-faults
# them; larger blocks save a few per-call overheads but cost peak memory.
# The size bounds memory and transcript calls, nothing else: run r reads
# row r of the stream's (runs, d + 3) uniforms, numpy fills them in C
# order, each run's sums are added in a fixed order and the report adds
# runs in order, so any size gives the same report.
_BLOCK_ENTRIES = 1 << 16

# Buckets of the outcome guide per outcome (see ``_outcome_guide``).  The
# buckets are equally wide and at most n - 1 of the n times this many hold
# an edge, so at most one key in this many needs the binary search.  The
# guide holds 8 bytes per bucket.
_GUIDE_BUCKETS = 32

# The ceiling on the run count: each outcome's run count is a float64 sum of
# whole runs, exact up to 2**53.
MAX_RUNS = 2**53


def _draw_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Eigen-index per run: the number of its cumulative eigenweights (total excluded) <= u.

    ``cum`` has one column per run, the gathered cumulative eigenweights of
    its outcome, shape (d, n).  For u = r * total with 0 <= r < 1, u stays
    below the total, so no zero eigenweight is ever drawn: leading ones are
    <= u, trailing ones equal the total.  The count is an integer, exact in
    any order of addition.  Outcomes are drawn by ``_guided_draw``.
    """
    return np.count_nonzero(u >= cum[:-1], axis=0)


def _sampling_tables(gram: np.ndarray, sigma: np.ndarray | None, g: np.ndarray | None) -> tuple:
    """Set-up of the outcome-first draw from ``_outcomes``: (cumulative Tr(M_a), the table, its parts, the guide).

    M_a = B_a^† B_a has eigenvalues m = sigma^2, taken in stable ascending
    order (zero at rounding level); on monomial maps E is that sorting
    permutation, and G_a = E^† V_a B_a E is g in the same order.  The
    table has one column per outcome: the d cumulative eigenweights, then
    per index j the parts (Re G_jj, m_j), or (Re G_jj, Im G_jj, m_j) when
    some G_jj has a nonzero imaginary part; ``parts`` is their count.  The
    guide (see ``_outcome_guide``) settles most outcome draws in one read.
    Fixed corrections that leave some V_a B_a off the diagonal (g is None)
    raise ``DomainError``; the paper's, on monomial maps, keep it diagonal.
    """
    if g is None:
        raise DomainError("simulate needs fixed corrections that keep every V_a B_a diagonal")
    n, d = sigma.shape
    order = np.argsort(sigma**2, axis=1, kind="stable")
    m = np.take_along_axis(sigma, order, axis=1) ** 2
    g = np.take_along_axis(g, order, axis=1)
    m = np.where(m > d * np.finfo(float).eps * m[:, -1:], m, 0.0)
    parts = [g.real, g.imag, m] if g.imag.any() else [g.real, m]
    # Filled in place to be C-ordered: on an F-ordered table ``take`` of whole
    # columns strides across every row and costs up to 100x more.
    table = np.empty(((1 + len(parts)) * d, n))
    table[:d], table[d:] = np.cumsum(m, axis=1).T, np.stack(parts, axis=2).reshape(n, -1).T
    cum_w = np.cumsum(gram)
    return cum_w, table, len(parts), _outcome_guide(cum_w)


def _buckets(x: np.ndarray, cum_w: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Bucket int(min(x * s, size - 1)) of each x, with s = size / cum_w[-1]; ``out`` takes x * s.

    Each step is monotone: a correctly rounded product with a positive s,
    a min and the truncation of a nonnegative float.  So a larger x never
    gets a lower bucket.
    """
    scaled = np.multiply(x, size / cum_w[-1], out=out)
    return np.minimum(scaled, size - 1, out=scaled).astype(np.intp)


def _outcome_guide(cum_w: np.ndarray) -> np.ndarray:
    """The outcome draw's guide over ``_GUIDE_BUCKETS`` buckets per outcome (see ``_buckets``).

    Entry b is the count of edges cum_w[:-1] in buckets below b, which is
    the outcome of every key in bucket b, or -1 where some edge lies in
    bucket b itself and only a binary search decides.
    """
    size = _GUIDE_BUCKETS * cum_w.size
    edges = _buckets(cum_w[:-1], cum_w, size)
    # The n - 1 edges are sorted, and so are their buckets: buckets
    # edges[k - 1] + 1 to edges[k] hold k, reading edges[-1] as -1 and
    # edges[n - 1] as size - 1.
    guide = np.repeat(np.arange(cum_w.size), np.diff(edges, prepend=-1, append=size - 1))
    guide[edges] = -1
    return guide


def _guided_draw(cum_w: np.ndarray, guide: np.ndarray, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Outcome per key, the count of edges cum_w[:-1] <= key: ``np.searchsorted(cum_w[:-1], keys, side="right")``.

    One guide read settles a key whose bucket holds no edge; the others,
    at most one in ``_GUIDE_BUCKETS``, take the binary search.  ``out`` is
    scratch of the keys' length.
    """
    alpha = guide.take(_buckets(keys, cum_w, guide.size, out=out))
    unsettled = np.flatnonzero(alpha < 0)
    alpha[unsettled] = np.searchsorted(cum_w[:-1], keys[unsettled], side="right")
    return alpha


def _block_buffers(d: int, runs: int) -> tuple[np.ndarray, ...]:
    """Buffers for blocks of up to ``runs`` runs, allocated once per ``simulate`` call.

    They are the flat uniforms and exponentials, three per-run rows (the
    fidelities and two scratch rows) and the run offsets 0, ..., runs - 1.
    """
    return np.empty(runs * (d + 3)), np.empty(runs * (d + 1)), np.empty((3, runs)), np.arange(runs)


def _simulate_block(tables: tuple, rng: np.random.Generator, n: int, buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Run n protocol rounds, one row of d + 3 uniforms each; returns (outcome, fidelity) arrays.

    Every block-sized array but the gathered columns and the outcomes is a
    C-contiguous view of ``buffers`` (see ``_block_buffers``), written with
    ``out=``; the fidelities are such a view, valid until the next block.
    No step reduces over an index axis in floating point (see the module
    docstring), so a run gets the same bits whatever n is.
    """
    cum_w, table, parts, guide = tables
    d = len(table) // (parts + 1)
    flat_u, flat_x, rows, ramp = buffers
    fid, scaled, spare = rows[:, :n]
    u = flat_u[: n * (d + 3)].reshape(n, d + 3)
    rng.random(out=u)
    alpha = _guided_draw(cum_w, guide, np.multiply(u[:, 0], cum_w[-1], out=scaled), spare)
    cols = table.take(alpha, axis=1)
    k = _draw_index(cols[:d], np.multiply(u[:, 1], cols[d - 1], out=scaled))
    # Unnormalized Dirichlet(1, ..., 2 at k, ..., 1) from d + 1 exponentials
    # -log(1 - u), one row per index: |c|^2 = x / sum(x).  Row k of run r
    # is entry k * n + r of the flat x.
    x = flat_x[: n * (d + 1)].reshape(d + 1, n)
    np.negative(u[:, 2:].T, out=x)
    np.negative(np.log1p(x, out=x), out=x)
    k *= n
    k += ramp[:n]
    x.reshape(-1)[k] += x[d]
    # Scaled by x_j, index j's parts become the terms of Re and Im of c^† G
    # c and of sum_j m_j |c_j|^2, summed in the order of j into index 0's
    # rows; sum(x) is summed beside them.  Each sum starts at its j = 0 term,
    # not at 0.0, which can change only the sign of a zero Re or Im, and
    # those are squared.  Where every Im G_jj is 0.0 its row would add 0.0
    # to Re^2, so leaving it out changes no bit either.
    terms = cols[d:].reshape(d, parts, n)
    terms *= x[:d, None]
    acc, total = terms[0], fid
    np.copyto(total, x[0])
    for j in range(1, d):
        acc += terms[j]
        total += x[j]
    np.square(acc[:-1], out=acc[:-1])
    for row in acc[1:-1]:
        acc[0] += row
    np.multiply(acc[-1], total, out=scaled)
    return alpha, np.divide(acc[0], scaled, out=fid)


def simulate(
    p: PovmSet,
    ch: SchmidtChannel,
    basis: UnitaryBasis,
    corrections: str = "auto",
    n_runs: int = 10_000,
    rng: int | np.random.Generator | None = 0,
    transcript: Callable[[dict], None] | None = None,
) -> FidelityReport:
    """Monte Carlo protocol simulation with standard errors.

    Each run draws an outcome, then an input given that outcome (see the
    module docstring), applies the per-outcome correction and records the
    run fidelity; sum_a B_a^† B_a = I is checked to 1e-10 before any draw
    (``ConsistencyError``), and so, for ``paper``, is every basis operator's
    unitarity, by ``_corrections`` as for the exact report (``DomainError``).
    A seed fixes every Monte Carlo result: all runs read one stream, the
    one child ``spawn(1)`` of ``np.random.default_rng(rng)``, in blocks that
    bound memory (see ``_BLOCK_ENTRIES``); only per-outcome sums, added in
    run order, outlive a block, so the block size changes no result.
    ``transcript``, if given, is called once per block with the columns
    ``run_index``, ``outcome_alpha`` and ``conclusive_flag`` (int arrays)
    and the scalar ``bits_sent``.  With ``auto`` any refined POVM works,
    e.g. ``dilation.realized_povm`` for the run-by-run check of a Neumark
    extension.  ``paper`` needs a monomial POVM and basis whose corrections
    keep every V_a B_a diagonal, as every POVM the CLI builds does; any
    other input raises ``DomainError`` before any draw (see ``_outcomes``
    and ``_sampling_tables``), and so do an ``n_runs`` that is not an int
    of at least 1 (a bool is not), an ``rng`` that is not None, a
    nonnegative int or a ``Generator`` (a bool, float or str is not), and a
    set with a member axis.  More than ``MAX_RUNS`` runs raise
    ``CapacityError``, before any generator is made.
    """
    if isinstance(n_runs, bool) or not isinstance(n_runs, numbers.Integral) or n_runs < 1:
        raise DomainError(f"need an integer count of at least one run, got {n_runs!r}")
    if n_runs > MAX_RUNS:
        raise CapacityError(f"{n_runs} runs exceed the ceiling of {MAX_RUNS}")
    if isinstance(rng, bool) or not (rng is None or isinstance(rng, (numbers.Integral, np.random.Generator))):
        raise DomainError(f"seed must be None, an int or a numpy Generator, got {rng!r}")
    if isinstance(rng, numbers.Integral) and rng < 0:
        raise DomainError(f"seed must be nonnegative, got {rng}")
    if p.members:
        raise DomainError(f"simulate takes one POVM, got a stack of {p.members} members")
    gram, _, sigma, g = _outcomes(p, ch, basis, corrections)
    tables = _sampling_tables(gram, sigma, g)
    n_out, d = p.n_outcomes, p.d
    block = min(max(1, _BLOCK_ENTRIES // (6 * d + 3)), n_runs)
    buffers = _block_buffers(d, block)
    square, loss = buffers[2][1:]
    conclusive_flag = (p.kinds == CONCLUSIVE).astype(np.int64)
    # Per outcome: runs, then the sums of f, f^2, 1 - f and (1 - f)^2.
    sums = np.zeros((5, n_out))
    # A child stream: ``verify.run_battery`` draws channels from default_rng(seed) and passes that seed here.
    (stream,) = np.random.default_rng(rng).spawn(1)
    for start in range(0, n_runs, block):
        size = min(block, n_runs - start)
        alpha, fid = _simulate_block(tables, stream, size, buffers)
        sums[0] += np.bincount(alpha, minlength=n_out)
        np.add.at(sums[1], alpha, fid)
        np.add.at(sums[2], alpha, np.multiply(fid, fid, out=square[:size]))
        np.add.at(sums[3], alpha, np.subtract(1.0, fid, out=loss[:size]))
        np.add.at(sums[4], alpha, np.multiply(loss[:size], loss[:size], out=square[:size]))
        if transcript is not None:
            transcript(
                {
                    "run_index": np.arange(start, start + size),
                    "outcome_alpha": alpha,
                    "conclusive_flag": conclusive_flag[alpha],
                    "bits_sent": transcript_bits(n_out),
                }
            )
    probs, terms, squares, losses, loss_squares = sums / n_runs
    # Var(f) = Var(1 - f), and the moments of 1 - f do not cancel when the
    # run fidelities crowd near 1.
    var = float(loss_squares.sum()) - float(losses.sum()) ** 2
    return _build_report(
        p,
        corrections,
        probs,
        terms,
        probability_se=_frozen(np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / n_runs)),
        fidelity_term_se=_frozen(np.sqrt(np.maximum(squares - terms * terms, 0.0) / n_runs)),
        n_runs=n_runs,
        f_total_se=math.sqrt(max(var, 0.0) / n_runs),
    )
