"""The POVM checks of the ``verify`` battery: they catch a damaged set, and their memory grows as d^4."""

import tracemalloc

import numpy as np
import pytest

from qteleport import fidelity, povm, verify
from qteleport.linalg import Monomial
from qteleport.povm import PovmSet
from qteleport.weyl import build_weyl_basis


def rebuilt(p, values=None, remainder=None):
    """``p`` with its monomial values or its remainder replaced."""
    values = p.monomial.values if values is None else values
    remainder = p.remainder if remainder is None else remainder
    vectors = Monomial(p.monomial.cols, values)
    return PovmSet(d=p.d, vectors=vectors, kinds=p.kinds, labels=p.labels, lam=p.lam, remainder=remainder)


def scale_one_vector(p):
    values = p.monomial.values.copy()
    values[:, 1] *= 1.001
    return rebuilt(p, values=values)


def negative_remainder_entry(p):
    remainder = p.remainder.copy()
    remainder[:, 0] = -1e-3
    return rebuilt(p, remainder=remainder)


def mix_two_duals(p):
    # Duals 0 and 1 (Z^0 and Z^1) share their columns, so the mixture stays monomial.
    assert np.array_equal(p.monomial.cols[0], p.monomial.cols[1])
    values = p.monomial.values.copy()
    values[:, 0] = (values[:, 0] + 0.01 * values[:, 1]) / np.sqrt(1.0001)
    return rebuilt(p, values=values)


def drop_one_piece(p):
    # The last residual piece measures nothing; the outcome table is kept.
    values = p.monomial.values.copy()
    values[:, -1] = 0.0
    return rebuilt(p, values=values)


# (check, damaged builder, damage); a check may have several entries.  A
# refined set whose conclusive block is damaged must fail completeness too,
# though verify reuses the unrefined block's sum for an undamaged block.
DAMAGES = [
    pytest.param("completeness", "build_conclusive_povm", scale_one_vector, id="completeness"),
    pytest.param(
        "completeness", "refine_inconclusive_product", scale_one_vector, id="completeness-refined-conclusive-block"
    ),
    pytest.param("positivity", "build_conclusive_povm", negative_remainder_entry, id="positivity"),
    pytest.param("identification ratio", "build_conclusive_povm", mix_two_duals, id="identification ratio"),
    pytest.param(
        "residual split sums to remainder",
        "refine_inconclusive_residual",
        drop_one_piece,
        id="residual split sums to remainder",
    ),
]


def checks_on_damaged_sets(monkeypatch, d, target, damage):
    """``_povm_checks`` with ``target`` returning damaged sets.

    The refiners and ``report`` read the set each damaged one was made
    from, so only verify's own checks see the damage: ``report`` refuses an
    incomplete set, and a refiner may not take a negative remainder.
    """
    clean = {}

    def undamaged(q):
        return clean.get(id(q), q)

    def patched(name, call):
        def wrapper(q, *args):
            out = call(undamaged(q) if isinstance(q, PovmSet) else q, *args)
            if name == target:
                bad = damage(out)
                clean[id(bad)] = out
                return bad
            return out

        monkeypatch.setattr(verify, name, wrapper)

    for name in ("build_conclusive_povm", "refine_inconclusive_product", "refine_inconclusive_residual"):
        patched(name, getattr(povm, name))
    monkeypatch.setattr(verify, "report", lambda q, *args: fidelity.report(undamaged(q), *args))
    results = verify._povm_checks(d, build_weyl_basis(d), np.random.default_rng(d), 1)
    return {r.name.removeprefix(f"povm d={d} "): r for r in results}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("check, target, damage", DAMAGES)
def test_a_damaged_set_fails_its_named_check(monkeypatch, d, check, target, damage):
    results = checks_on_damaged_sets(monkeypatch, d, target, damage)
    assert not results[check].passed, results[check]


@pytest.mark.parametrize("d", [2, 3])
def test_the_patched_battery_passes_on_undamaged_sets(monkeypatch, d):
    results = checks_on_damaged_sets(monkeypatch, d, None, None)
    assert all(r.passed for r in results.values()), [r for r in results.values() if not r.passed]


def povm_checks_peak(d):
    basis = build_weyl_basis(d)
    tracemalloc.start()
    try:
        results = verify._povm_checks(d, basis, np.random.default_rng(d), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    return peak


def test_povm_checks_memory_grows_as_d4():
    # The element vectors and one (d^2, d^2) product per member: a doubling of
    # d multiplies the peak by about 16; a dense element stack would give 64.
    # The first call also pays one-time costs, so d = 4 is measured warm.
    _, at4, at8 = (povm_checks_peak(d) for d in (4, 4, 8))
    assert at8 < 32 * at4
