import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_elements
from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport import dilation
from qteleport.dilation import dilate, dilated_channel_maps, outcome_probabilities, realized_povm
from qteleport.errors import CapacityError, DecompositionError, DomainError
from qteleport.fidelity import channel_maps, report, simulate
from qteleport.linalg import dagger, haar_random_ket
from qteleport.povm import (
    PovmSet,
    build_conclusive_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.weyl import build_weyl_basis, maximally_entangled_basis


def random_channel(d, rng):
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def build(d, ch, lam, strategy, basis):
    base = build_conclusive_povm(ch, basis, lam)
    if strategy == "product":
        return refine_inconclusive_product(base)
    return refine_inconclusive_residual(base, basis)


def test_orthogonal_case_reproduces_bell_projectors():
    basis = build_weyl_basis(2)
    ch = make_channel(np.full(2, 1 / np.sqrt(2)))
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 1.0))
    dil = dilate(p, ancilla_dim=2)
    assert np.max(dil.residuals) <= 1e-10
    kets = maximally_entangled_basis(basis)
    embed = dil.u_ext[:, np.arange(4) * 2]
    for a in range(4):
        rebuilt = np.outer(embed[a].conj(), embed[a])
        np.testing.assert_allclose(rebuilt, np.outer(kets[a], kets[a].conj()), atol=1e-10)
    for a in range(4, 8):
        assert np.max(np.abs(np.outer(embed[a].conj(), embed[a]))) <= 1e-12


def test_qubit_partial_channel_exactly_fills_capacity():
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.4))
    assert p.n_outcomes == 8
    dil = dilate(p, ancilla_dim=2)
    assert dil.u_ext.shape == (8, 8)
    assert np.max(dil.residuals) <= 1e-10
    u = dil.u_ext
    assert np.max(np.abs(dagger(u) @ u - np.eye(8))) <= 1e-10


def test_qutrit_full_weight():
    basis = build_weyl_basis(3)
    ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, lambda_max(ch)))
    assert p.n_outcomes == 18
    dil = dilate(p)
    assert dil.ancilla_dim == 3
    assert dil.u_ext.shape == (27, 27)
    assert np.max(dil.residuals) <= 1e-10
    u = dil.u_ext
    assert np.max(np.abs(dagger(u) @ u - np.eye(27))) <= 1e-10


@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_dilation_is_deterministic_and_embeds_the_isometry(strategy):
    basis = build_weyl_basis(3)
    ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    p = build(3, ch, 0.4, strategy, basis)
    first, second = dilate(p), dilate(p)
    np.testing.assert_array_equal(first.u_ext, second.u_ext)
    # Input (s, 0) maps to W|s>, whose row a is conj(w_a[s]).
    embed = first.u_ext[: p.n_outcomes, :: first.ancilla_dim]
    assert np.max(np.abs(embed - p.vectors.conj())) <= 1e-14


def test_rejects_small_ancilla():
    basis = build_weyl_basis(3)
    ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.3))
    with pytest.raises(CapacityError, match="minimum"):
        dilate(p, ancilla_dim=2)
    with pytest.raises(CapacityError, match="minimum"):
        dilate(p, ancilla_dim=np.int64(2))


@pytest.mark.parametrize("ancilla_dim", [2.5, 3.0, "3", True])
def test_ancilla_dimension_must_be_an_int(ancilla_dim):
    # Neither a float, even an integral one, a string nor a bool is truncated
    # or converted to a dimension; numpy integers are ints.
    basis = build_weyl_basis(3)
    ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.3))
    with pytest.raises(DomainError, match="integer"):
        dilate(p, ancilla_dim=ancilla_dim)
    assert type(dilate(p, ancilla_dim=np.int64(3)).ancilla_dim) is int


def test_rejects_unrefined_set():
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    with pytest.raises(DecompositionError):
        dilate(build_conclusive_povm(ch, basis, 0.2))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_extended_probabilities_match_direct(d, strategy):
    rng = np.random.default_rng(d * 11 + (strategy == "residual"))
    basis = build_weyl_basis(d)
    ch = random_channel(d, rng)
    p = build(d, ch, 0.6 * lambda_max(ch), strategy, basis)
    dil = dilate(p)
    for _ in range(10):
        state = haar_random_ket(d * d, rng)
        via_ext = outcome_probabilities(dil, p, state)
        direct = np.einsum("i,nij,j->n", state.conj(), dense_elements(p), state).real
        assert np.max(np.abs(via_ext - direct)) <= 1e-10
        # Nothing leaks into the unassigned extended directions.
        assert via_ext.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_dilated_amplitude_maps_match_direct(d):
    rng = np.random.default_rng(d)
    basis = build_weyl_basis(d)
    ch = random_channel(d, rng)
    p = build(d, ch, 0.5 * lambda_max(ch), "residual", basis)
    dil = dilate(p)
    direct = channel_maps(p, ch)
    via_ext = dilated_channel_maps(dil, p, ch)
    assert np.max(np.abs(via_ext - direct)) <= 1e-12


def test_dilated_monte_carlo_agrees_with_direct():
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    p = build(2, ch, 0.4, "product", basis)
    # The realized POVM is dense: with auto, its runs take sigma from an SVD.
    mc_ext = simulate(realized_povm(dilate(p), p), ch, basis, "auto", n_runs=40_000, rng=4)
    mc_direct = simulate(p, ch, basis, "auto", n_runs=40_000, rng=5)
    exact = report(p, ch, basis, "auto")
    sigma = np.hypot(mc_ext.f_total_se, mc_direct.f_total_se)
    assert abs(mc_ext.f_total - mc_direct.f_total) <= 4 * sigma
    assert abs(mc_ext.f_total - exact.f_total) <= 4 * mc_ext.f_total_se


@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_realized_povm_is_the_measured_povm(strategy):
    basis = build_weyl_basis(3)
    ch = make_channel(np.sqrt([0.5, 0.3, 0.2]))
    p = build(3, ch, 0.4, strategy, basis)
    dil = dilate(p)
    realized = realized_povm(dil, p)
    assert np.array_equal(realized.kinds, p.kinds) and np.array_equal(realized.labels, p.labels)
    # Equal tables, but the realized set's own copies.
    assert not np.shares_memory(realized.kinds, p.kinds) and not np.shares_memory(realized.labels, p.labels)
    assert realized.lam == p.lam and realized.is_refined()
    assert np.max(np.abs(realized.vectors - p.vectors)) <= 1e-14
    # The residuals are its elements', and the dilated maps are read through it.
    np.testing.assert_array_equal(
        dil.residuals, np.max(np.abs(dense_elements(realized) - dense_elements(p)), axis=(1, 2))
    )
    np.testing.assert_array_equal(dilated_channel_maps(dil, p, ch), channel_maps(realized, ch))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_residuals_and_probabilities_read_the_rows_without_a_realized_povm(monkeypatch, d, strategy):
    # ``dilate`` and ``outcome_probabilities`` read U's rows straight; their
    # bits are those read through ``realized_povm``, built here only as the oracle.
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(90 + d))
    p = build(d, ch, 0.5 * lambda_max(ch), strategy, basis)
    state = haar_random_ket(d * d, np.random.default_rng(d))

    def refuse(*args, **kwargs):
        raise AssertionError("realized PovmSet built")

    with monkeypatch.context() as m:
        m.setattr(dilation, "PovmSet", refuse)
        dil = dilate(p)
        probs = outcome_probabilities(dil, p, state)
    realized = realized_povm(dil, p)
    assert dil.residuals.tobytes() == dilation._residuals(realized.vectors, p.vectors).tobytes()
    assert probs.tobytes() == (np.abs(realized.vectors.conj() @ state) ** 2).tobytes()


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_completion_from_the_isometrys_own_reflectors(d, strategy):
    # The complete QR of W alone: unitary, and its embedded columns are those
    # of the Householder QR of [W | I], whose later reflectors leave them alone.
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(70 + d))
    p = build(d, ch, 0.5 * lambda_max(ch), strategy, basis)
    dil = dilate(p)
    u = dil.u_ext
    assert np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) <= 1e-13
    assert np.max(dil.residuals) <= 1e-10
    w = np.zeros((u.shape[0], d * d), dtype=complex)
    w[: p.n_outcomes] = p.vectors.conj()
    q, r = np.linalg.qr(np.hstack([w, np.eye(u.shape[0])]))
    phases = np.diag(r)[: d * d]
    assert np.max(np.abs(u[:, :: dil.ancilla_dim] - q[:, : d * d] * phases / np.abs(phases))) <= 1e-15


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_residuals_equal_the_dense_oracle_without_dense_elements(d, strategy):
    # The residuals come from the vectors in chunks; the dense stacks are
    # built here only, after dilate, as the oracle.
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(90 + d))
    for share in (0.0, 0.5, 1.0):
        p = build(d, ch, share * lambda_max(ch), strategy, basis)
        dil = dilate(p)
        oracle = np.max(np.abs(dense_elements(realized_povm(dil, p)) - dense_elements(p)), axis=(1, 2))
        np.testing.assert_array_equal(dil.residuals, oracle)


def padded_full_qr_dilation(p, d_a):
    """Oracle: complete QR of W padded to ext rows, then its columns put in input order."""
    joint = p.joint_dim
    ext = joint * d_a
    w = np.zeros((ext, joint), dtype=complex)
    w[: p.n_outcomes] = p.vectors.conj()
    q, r = np.linalg.qr(w, mode="complete")
    phases = np.diag(r)
    q[:, :joint] *= phases / np.abs(phases)
    inputs = np.arange(ext).reshape(joint, d_a)
    return q[:, np.argsort(np.concatenate([inputs[:, 0], inputs[:, 1:].ravel()]))]


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_qr_of_the_nonzero_rows_equals_the_padded_full_qr(d, strategy):
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(110 + d))
    for share in (0.0, 0.5, 1.0):
        p = build(d, ch, share * lambda_max(ch), strategy, basis)
        for d_a in (d, d + 1):
            dil = dilate(p, ancilla_dim=d_a)
            u = padded_full_qr_dilation(p, d_a)
            np.testing.assert_array_equal(dil.u_ext, u)
            vectors = u[: p.n_outcomes, ::d_a].conj()
            realized = PovmSet(d=d, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam)
            oracle = np.max(np.abs(dense_elements(realized) - dense_elements(p)), axis=(1, 2))
            assert dil.residuals.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("d", [6, 8])
@pytest.mark.parametrize("strategy", ["product", "residual"])
def test_dilate_peak_memory_is_a_few_unitaries(d, strategy):
    basis = build_weyl_basis(d)
    ch = random_channel(d, np.random.default_rng(d))
    p = build(d, ch, 0.5 * lambda_max(ch), strategy, basis)
    tracemalloc.start()
    try:
        dil = dilate(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(dil.residuals) <= 1e-10
    assert peak <= 1.75 * dil.u_ext.nbytes


def test_paper_report_and_dilation_leave_numpy_ma_unimported():
    # numpy.ma costs about 1.4 MB resident on first import (np.unique pulls it in).
    code = """
import sys
import numpy as np
from qteleport.channel import make_channel
from qteleport.cli import main
from qteleport.dilation import dilate
from qteleport.povm import build_conclusive_povm, lambda_max, refine_inconclusive_residual
from qteleport.weyl import build_weyl_basis

main(["teleport", "--d", "8", "--strategy", "product", "--corrections", "paper"])
basis = build_weyl_basis(4)
ch = make_channel(np.sqrt([0.4, 0.3, 0.2, 0.1]))
dilate(refine_inconclusive_residual(build_conclusive_povm(ch, basis, 0.5 * lambda_max(ch)), basis))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
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
    assert done.stdout.splitlines()[-1] == ",total,,1,1,,,,"
