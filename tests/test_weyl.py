import numpy as np
import pytest

from qteleport import verify
from qteleport.errors import DomainError, ShapeError
from qteleport.linalg import haar_random_unitary
from qteleport.weyl import (
    UnitaryBasis,
    build_weyl_basis,
    conjugated_basis,
    maximally_entangled_basis,
    orthogonality_residuals,
)

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
]


def shift_matrix(d):
    """X with X|j> = |j+1 mod d>: the identity with its rows rolled down by one."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_matrix(d):
    """Z = diag(1, w, w^2, ...) with w = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def test_qubit_set_is_identity_shift_clock_product():
    basis = build_weyl_basis(2)
    x, z = shift_matrix(2), clock_matrix(2)
    np.testing.assert_allclose(basis.ops[0], np.eye(2), atol=0)
    np.testing.assert_allclose(basis.ops[1], z, atol=0)
    np.testing.assert_allclose(basis.ops[2], x, atol=0)
    np.testing.assert_allclose(basis.ops[3], x @ z, atol=0)


def test_qubit_set_spans_pauli_set_up_to_phase():
    basis = build_weyl_basis(2)
    for op in basis.ops:
        overlaps = [abs(np.trace(p.conj().T @ op)) for p in PAULIS]
        # Phase-equal to exactly one Pauli operator.
        assert max(overlaps) == pytest.approx(2.0, abs=1e-12)
        assert sorted(overlaps)[-2] == pytest.approx(0.0, abs=1e-12)


def test_qutrit_trace_orthogonality_matrix():
    basis = build_weyl_basis(3)
    gram = np.einsum("aij,bij->ab", basis.ops.conj(), basis.ops)
    np.testing.assert_allclose(gram, 3 * np.eye(9), atol=1e-10)


def test_qutrit_completeness_entry_bruteforce():
    basis = build_weyl_basis(3)
    total = sum(basis.ops[a][0, 1] * np.conj(basis.ops[a][0, 1]) for a in range(9))
    assert total == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 16])
def test_orthogonality_invariants(d):
    unit, trace_res, comp_res = orthogonality_residuals(build_weyl_basis(d))
    assert unit <= 1e-12
    assert trace_res <= 1e-10
    assert comp_res <= 1e-10


def weyl_checks_passed(ops):
    """Pass/fail of verify's three Weyl checks on the dense basis ``ops``, at the tolerances verify applies."""
    d = ops.shape[-1]
    results = verify._basis_checks(d, UnitaryBasis(d, ops))
    return {r.name.removeprefix(f"weyl d={d} "): r.passed for r in results if r.name.startswith("weyl")}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_scaled_operator_fails_unitarity(d):
    ops = build_weyl_basis(d).ops.copy()
    ops[1] *= 1.001
    assert not weyl_checks_passed(ops)["unitarity"]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_repeated_operator_fails_trace_orthogonality_and_completeness(d):
    ops = build_weyl_basis(d).ops.copy()
    ops[1] = ops[0]
    passed = weyl_checks_passed(ops)
    assert passed["unitarity"]
    assert not passed["pairwise trace orthogonality"]
    assert not passed["completeness relation"]


def test_flat_label_is_shift_then_clock_exponent():
    basis = build_weyl_basis(3)
    # alpha = m*d + n labels X^m Z^n: 5 = 1*3 + 2.
    x, z = shift_matrix(3), clock_matrix(3)
    np.testing.assert_allclose(basis.ops[5], x @ z @ z, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 9))
def test_shift_matrix_is_bit_identical_to_loop_oracle(d):
    want = np.zeros((d, d), dtype=complex)
    for j in range(d):
        want[(j + 1) % d, j] = 1.0
    assert shift_matrix(d).tobytes() == want.tobytes()
    assert build_weyl_basis(d).ops[d].tobytes() == want.tobytes()


def loop_weyl_ops(d):
    """The double loop of products X^m Z^n, kept as a dense-algebra oracle for the index rule."""
    x, z = shift_matrix(d), clock_matrix(d)
    ops = np.empty((d * d, d, d), dtype=complex)
    xm = np.eye(d, dtype=complex)
    for m in range(d):
        zn = np.eye(d, dtype=complex)
        for n in range(d):
            ops[m * d + n] = xm @ zn
            zn = zn @ z
        xm = xm @ x
    return ops


def index_rule_ops(d):
    """X^m Z^n |j> = w^(n j mod d) |j + m mod d>, entry by entry from one phase table."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    ops = np.zeros((d * d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            for j in range(d):
                ops[m * d + n, (j + m) % d, j] = phases[(n * j) % d]
    return ops


@pytest.mark.parametrize("d", range(2, 17))
def test_basis_is_bit_identical_to_index_rule_oracle(d):
    assert build_weyl_basis(d).ops.tobytes() == index_rule_ops(d).tobytes()


@pytest.mark.parametrize("d", range(2, 17))
def test_basis_agrees_with_matmul_oracle(d):
    # The products round their phases; at d = 2 only the signs of zeros differ.
    np.testing.assert_allclose(build_weyl_basis(d).ops, loop_weyl_ops(d), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32, 48])
def test_entries_are_unit_phases_on_a_permutation(d):
    ops = build_weyl_basis(d).ops
    nonzero = ops != 0
    assert np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=2) == 1)
    assert np.max(np.abs(np.abs(ops[nonzero]) - 1)) <= 4 * np.finfo(float).eps


def test_rebuild_is_bit_identical():
    a = build_weyl_basis(4)
    b = build_weyl_basis(4)
    assert np.array_equal(a.ops, b.ops)


def test_rejects_dimension_one():
    with pytest.raises(ShapeError):
        build_weyl_basis(1)


@pytest.mark.parametrize("d", [2.5, 3.0, "3", True, None, np.float64(3)])
def test_rejects_a_non_integer_dimension(d):
    with pytest.raises(DomainError, match="integer"):
        build_weyl_basis(d)


def test_numpy_integer_dimension_is_accepted():
    assert build_weyl_basis(np.int64(3)).ops.tobytes() == build_weyl_basis(3).ops.tobytes()


class TestEntangledBasis:
    def test_qubit_case_is_bell_set_up_to_phase(self):
        kets = maximally_entangled_basis(build_weyl_basis(2))
        s = 1 / np.sqrt(2)
        bell = np.array(
            [
                [s, 0, 0, s],    # (|00> + |11>)/sqrt(2)
                [s, 0, 0, -s],
                [0, s, s, 0],
                [0, s, -s, 0],
            ],
            dtype=complex,
        )
        for ket in kets:
            overlaps = [abs(np.vdot(b, ket)) for b in bell]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_and_complete(self, d):
        kets = maximally_entangled_basis(build_weyl_basis(d))
        gram = kets.conj() @ kets.T
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12
        comp = sum(np.outer(k, k.conj()) for k in kets)
        assert np.max(np.abs(comp - np.eye(d * d))) <= 1e-12


def test_conjugated_basis_keeps_relations():
    rng = np.random.default_rng(8)
    basis = build_weyl_basis(3)
    moved = conjugated_basis(basis, haar_random_unitary(3, rng), haar_random_unitary(3, rng))
    unit, trace_res, comp_res = orthogonality_residuals(moved)
    assert unit <= 1e-12
    assert trace_res <= 1e-10
    assert comp_res <= 1e-10
