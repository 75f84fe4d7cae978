import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.errors import NormalizationError, ShapeError
from qteleport.linalg import (
    Monomial,
    haar_random_ket,
    partial_trace,
    von_neumann_entropy,
)

def random_psd(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T


class TestPartialTrace:
    def test_product_state(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1
        rho = np.outer(ket00, ket00.conj())
        np.testing.assert_allclose(partial_trace(rho, 0, [2, 2]), np.diag([1.0, 0.0]), atol=1e-15)

    def test_maximally_entangled_qutrit(self):
        psi = np.zeros(9, dtype=complex)
        psi[[0, 4, 8]] = 1 / np.sqrt(3)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(rho, 0, [3, 3]), np.eye(3) / 3, atol=1e-15)

    def test_schmidt_weights_match_direct_sum(self):
        a = np.sqrt([0.8, 0.2])
        psi = np.zeros(4, dtype=complex)
        psi[[0, 3]] = a
        rho = np.outer(psi, psi.conj())
        # Independent oracle: explicit sum over the traced index.
        want = np.zeros((2, 2), dtype=complex)
        full = rho.reshape(2, 2, 2, 2)
        for j in range(2):
            want += full[:, j, :, j]
        got = partial_trace(rho, 0, [2, 2])
        np.testing.assert_allclose(got, want, atol=1e-15)
        np.testing.assert_allclose(got, np.diag([0.8, 0.2]), atol=1e-15)

    def test_three_subsystems(self):
        rng = np.random.default_rng(5)
        rho = random_psd(12, rng)
        reduced = partial_trace(rho, 1, [2, 3, 2])
        assert reduced.shape == (3, 3)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12 * abs(np.trace(rho))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), 0, [2, 3])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2))
    def test_trace_preserved(self, seed, keep):
        rng = np.random.default_rng(seed)
        dims = [2, 3, 2]
        rho = random_psd(int(np.prod(dims)), rng)
        reduced = partial_trace(rho, keep, dims)
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-12 * abs(np.trace(rho))


class TestHaarSampling:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_second_and_fourth_moments(self, d):
        rng = np.random.default_rng(99)
        n = 100_000
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        kets = z / np.linalg.norm(z, axis=1, keepdims=True)
        weights = np.abs(kets) ** 2
        p2 = weights.ravel()
        se2 = p2.std() / np.sqrt(p2.size)
        assert abs(p2.mean() - 1 / d) <= 3 * se2
        p4 = (weights**2).ravel()
        se4 = p4.std() / np.sqrt(p4.size)
        assert abs(p4.mean() - 2 / (d * (d + 1))) <= 3 * se4

    def test_sampler_matches_batch_construction(self):
        ket = haar_random_ket(3, np.random.default_rng(1))
        assert abs(np.linalg.norm(ket) - 1) < 1e-12

    def test_fixed_seed_reproducible(self):
        a = haar_random_ket(4, np.random.default_rng(123))
        b = haar_random_ket(4, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_dimension_lower_bound(self):
        with pytest.raises(ShapeError):
            haar_random_ket(1, np.random.default_rng(0))


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_partially_mixed(self):
        want = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))
        got = von_neumann_entropy(np.diag([0.8, 0.2]))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.72193, abs=1e-5)

    def test_range(self):
        rng = np.random.default_rng(11)
        m = random_psd(4, rng)
        rho = m / np.trace(m)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= 2.0

    def test_trace_validation(self):
        with pytest.raises(NormalizationError):
            von_neumann_entropy(np.eye(2))

    @pytest.mark.parametrize(
        "rho",
        [np.full((2, 2), np.nan), np.diag([np.inf, -np.inf]), np.diag([0.5, np.nan]), np.diag([1.0, 0.0, np.inf])],
    )
    def test_non_finite_entries_are_refused(self, rho):
        # A NaN trace fails no comparison, so the trace check alone would pass it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError, match="non-finite"):
                von_neumann_entropy(rho)

    def test_trace_check_refuses_a_nan_trace(self):
        # Finite entries whose trace overflows: numpy's pairwise sum adds
        # entries 0 + 8 (inf) to entries 1 + 9 (-inf), giving NaN.
        diag = np.zeros(16)
        diag[[0, 8]], diag[[1, 9]] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NormalizationError, match="trace"):
                von_neumann_entropy(np.diag(diag))


class TestMonomial:
    def random_stack(self, rng, n, d):
        cols = np.array([rng.permutation(d) for _ in range(n)])
        values = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        values[0, 1] = 0.0  # an all-zero row
        return Monomial(cols, values)

    def test_dense_and_concat_round_trip(self):
        rng = np.random.default_rng(5)
        m = self.random_stack(rng, 6, 4)
        dense = m.dense()
        assert dense.shape == (6, 4, 4)
        assert np.count_nonzero(dense) == np.count_nonzero(m.values)
        assert np.array_equal(np.take_along_axis(dense, m.cols[..., None], axis=2)[..., 0], m.values)
        assert np.array_equal(m.concat(m).dense(), np.concatenate([dense, dense]))

    def test_cols_and_values_must_share_an_n_by_d_shape(self):
        with pytest.raises(ShapeError):
            Monomial(np.zeros((2, 3), dtype=int), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            Monomial(np.zeros(3, dtype=int), np.ones(3))
