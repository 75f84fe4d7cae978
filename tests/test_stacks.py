"""POVM stacks over the conclusive weight: member k is the single set at weight k, bit for bit."""

import dataclasses
import functools
import operator
import tracemalloc

import numpy as np
import pytest

from oracles import dense_elements
from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.dilation import dilate
from qteleport.errors import DomainError, PositivityError, ShapeError
from qteleport.fidelity import FidelityReport, channel_maps, report, simulate
from qteleport.linalg import Monomial, haar_random_unitary
from qteleport.povm import (
    CONCLUSIVE,
    PovmSet,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from qteleport.weyl import build_weyl_basis, conjugated_basis

REFINEMENTS = {
    "product": lambda p, basis: refine_inconclusive_product(p),
    "residual": refine_inconclusive_residual,
}


def random_channel(d, rng):
    probs = rng.random(d) + 0.1
    return make_channel(np.sqrt(probs / probs.sum()))


def weights(ch, rng):
    """0, lambda_max, a few random weights between, and a grid."""
    top = lambda_max(ch)
    return np.concatenate([[0.0, top], rng.random(3) * top, np.linspace(0.0, top, 6)])


def assert_row_is_the_report(stacked, k, single):
    """Row k of a stack's report holds the single set's report bit for bit; the other fields are equal."""
    for field in dataclasses.fields(FidelityReport):
        got, want = getattr(stacked, field.name), getattr(single, field.name)
        if isinstance(got, np.ndarray):
            assert got[k].tobytes() == np.asarray(want, dtype=float).tobytes(), field.name
        else:
            assert got == want, field.name


def assert_totals_are_the_row_loops(rep, k, conclusive):
    """Row k's totals, bit for bit: probabilities added one after another from 0.0, terms by one 1-D reduce."""
    for mask, prob, term in (
        (conclusive, rep.conclusive_probability, rep.f_conclusive),
        (~conclusive, rep.inconclusive_probability, rep.f_inconclusive),
    ):
        assert prob[k] == functools.reduce(operator.add, rep.probabilities[k][mask].tolist(), 0.0)
        assert term[k] == np.add.reduce(np.ascontiguousarray(rep.fidelity_terms[k][mask]))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("strategy", ["product", "residual"])
@pytest.mark.parametrize("corrections", ["auto", "paper"])
def test_each_member_report_equals_the_single_report(d, strategy, corrections):
    rng = np.random.default_rng(100 + d)
    basis = build_weyl_basis(d)
    refine = REFINEMENTS[strategy]
    for _ in range(2):
        ch = random_channel(d, rng)
        lams = weights(ch, rng)
        stack = refine(build_conclusive_povm(ch, basis, lams), basis)
        assert stack.members == len(lams)
        rep = report(stack, ch, basis, corrections)
        assert rep.probabilities.shape == (len(lams), stack.n_outcomes) and rep.f_total.shape == lams.shape
        for k, lam in enumerate(lams.tolist()):
            single = refine(build_conclusive_povm(ch, basis, lam), basis)
            assert_row_is_the_report(rep, k, report(single, ch, basis, corrections))
            assert_totals_are_the_row_loops(rep, k, stack.kinds == CONCLUSIVE)


@pytest.mark.parametrize("d", [2, 3])
def test_members_hold_the_single_sets(d):
    # Values, remainders and the dense views of member k are those of the
    # single set; the outcome table is equal and the columns are shared.
    rng = np.random.default_rng(d)
    basis = build_weyl_basis(d)
    ch = random_channel(d, rng)
    lams = weights(ch, rng)
    stack = build_conclusive_povm(ch, basis, lams)
    assert np.array_equal(stack.lam, lams) and not stack.lam.flags.writeable
    for strategy, refine in REFINEMENTS.items():
        refined = refine(stack, basis)
        maps = channel_maps(refined, ch)
        for k, lam in enumerate(lams.tolist()):
            single = build_conclusive_povm(ch, basis, lam)
            assert single.members is None and single.lam == lam
            assert stack.remainder[k].tobytes() == single.remainder.tobytes()
            assert dense_elements(stack)[k].tobytes() == dense_elements(single).tobytes()
            one = refine(single, basis)
            for table, single_table in ((refined.kinds, one.kinds), (refined.labels, one.labels)):
                assert np.array_equal(table, single_table) and not table.flags.writeable
            assert np.array_equal(refined.monomial.cols, one.monomial.cols)
            assert refined.monomial.values[k].tobytes() == one.monomial.values.tobytes()
            assert refined.vectors[k].tobytes() == one.vectors.tobytes()
            assert maps[k].tobytes() == channel_maps(one, ch).tobytes()


def test_a_length_one_stack_reports_one_row():
    basis = build_weyl_basis(3)
    ch = random_channel(3, np.random.default_rng(4))
    lam = 0.5 * lambda_max(ch)
    stack = refine_inconclusive_residual(build_conclusive_povm(ch, basis, [lam]), basis)
    single = refine_inconclusive_residual(build_conclusive_povm(ch, basis, lam), basis)
    assert stack.members == 1 and stack.monomial.values.shape == (1, 18, 3)
    rep = report(stack, ch, basis, "paper")
    assert rep.probabilities.shape == (1, 18) and rep.f_total.shape == (1,)
    assert_row_is_the_report(rep, 0, report(single, ch, basis, "paper"))


@pytest.mark.parametrize("cos_theta_c", [0.0, 0.6, 0.9])
def test_each_theta_member_equals_the_single_family(cos_theta_c):
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(cos_theta_c)
    fams = [ThetaPovmFamily(cos_theta_c, float(ct), 1.0 - abs(ct)) for ct in np.arange(-0.9, 0.951, 0.15)]
    fams.append(ThetaPovmFamily(cos_theta_c, 0.3, 0.0))
    stack = build_theta_povm(fams)
    assert stack.members == len(fams)
    for strategy, refine in REFINEMENTS.items():
        for corrections in ("auto", "paper"):
            rep = report(refine(stack, basis), ch, basis, corrections)
            for k, fam in enumerate(fams):
                assert_row_is_the_report(rep, k, report(refine(build_theta_povm(fam), basis), ch, basis, corrections))


def test_stack_arguments_are_checked():
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    top = lambda_max(ch)
    for bad in ([], [[0.1, 0.2]]):
        with pytest.raises(ShapeError):
            build_conclusive_povm(ch, basis, bad)
    with pytest.raises(PositivityError, match="nonnegative, got nan"):
        build_conclusive_povm(ch, basis, [0.1, np.nan])
    with pytest.raises(PositivityError, match=f"weight {1.5 * top} exceeds"):
        build_conclusive_povm(ch, basis, [0.0, 1.5 * top, 2.0 * top])
    moved = conjugated_basis(basis, haar_random_unitary(2, np.random.default_rng(1)), np.eye(2))
    with pytest.raises(ShapeError, match="monomial basis"):
        build_conclusive_povm(ch, moved, [0.1, 0.2])
    with pytest.raises(ShapeError, match="monomial basis"):
        refine_inconclusive_residual(build_conclusive_povm(ch, basis, [0.1, 0.2]), moved)
    with pytest.raises(ShapeError, match="cos_theta_c"):
        build_theta_povm([ThetaPovmFamily(0.6, 0.3, 0.1), ThetaPovmFamily(0.5, 0.3, 0.1)])
    with pytest.raises(ShapeError):
        build_theta_povm([])
    # A family's weight is one number; a stack of weights is a sequence of families.
    with pytest.raises(ShapeError, match=r"shape \(2,\)"):
        ThetaPovmFamily(0.6, 0.3, np.array([0.1, 0.2]))
    assert build_theta_povm(ThetaPovmFamily(0.6, 0.3, np.float64(0.1))).lam == 0.1
    # A PovmSet takes the weights and the remainder with the values' member axis.
    p = build_conclusive_povm(ch, basis, [0.1, 0.2])
    for lam, remainder in ((0.1, p.remainder), (p.lam[:1], p.remainder), (p.lam, p.remainder[0])):
        with pytest.raises(ShapeError):
            PovmSet(d=2, vectors=p.monomial, kinds=p.kinds, labels=p.labels, lam=lam, remainder=remainder)
    with pytest.raises(ShapeError):
        Monomial(np.zeros((1, 4, 2), dtype=int), np.ones((1, 4, 2)))


def test_simulate_and_dilate_refuse_a_stack_before_any_draw_or_allocation():
    basis = build_weyl_basis(2)
    ch = qubit_channel_from_cos_theta(0.6)
    stack = refine_inconclusive_product(build_conclusive_povm(ch, basis, [0.1, 0.2]))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    calls = []
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="stack of 2 members"):
            simulate(stack, ch, basis, "paper", n_runs=10**6, rng=rng, transcript=calls.append)
        with pytest.raises(DomainError, match="stack of 2 members"):
            # A 256 x 256 extension would be 1 MiB.
            dilate(stack, ancilla_dim=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and rng.bit_generator.state == state
    assert peak < 2**16
