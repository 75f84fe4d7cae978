import numpy as np
import pytest

from qteleport.errors import DomainError, ShapeError
from qteleport.formulas import (
    best_orthogonal_fidelity,
    binary_entropy,
    channel_from_entropy,
    optimal_average_fidelity,
    product_strategy_fidelity,
    qubit_average_fidelity,
    relaxed_angle_fidelity,
)


class TestOptimalAverageFidelity:
    def test_maximal_channel_full_weight(self):
        for d in (2, 3, 4):
            probs = np.full(d, 1 / d)
            assert optimal_average_fidelity(d, probs, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_is_orthogonal_bound(self):
        probs = np.array([0.7, 0.3])
        got = optimal_average_fidelity(2, probs, 0.0)
        a1, a2 = np.sqrt(probs)
        assert got == pytest.approx((1 + (a1 + a2) ** 2) / 3, abs=1e-12)
        assert got == pytest.approx((2 / 3) * (1 + a1 * a2), abs=1e-12)
        assert got == pytest.approx(best_orthogonal_fidelity(probs), abs=1e-12)

    def test_qutrit_value(self):
        probs = np.array([0.5, 0.3, 0.2])
        # Weight at the positivity maximum, built from the same floats so
        # the boundary radicand is exactly zero.
        got = optimal_average_fidelity(3, probs, 3 * probs.min())
        assert got == pytest.approx(0.8 + np.sqrt(0.27) / 6, abs=1e-12)
        assert got == pytest.approx(0.8866025404, abs=1e-9)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            optimal_average_fidelity(3, [0.5, 0.3, 0.2], 0.61)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: optimal_average_fidelity(2, [0.5, 0.5], float("nan")), DomainError),
            (lambda: optimal_average_fidelity(2, [float("nan"), 0.5], 0.1), DomainError),
            (lambda: best_orthogonal_fidelity([-0.5, 1.5]), DomainError),
            (lambda: best_orthogonal_fidelity([float("nan"), 0.5]), DomainError),
            (lambda: best_orthogonal_fidelity([0.7, 0.7]), DomainError),
            (lambda: best_orthogonal_fidelity([]), DomainError),
            (lambda: best_orthogonal_fidelity([1.0]), DomainError),
            (lambda: best_orthogonal_fidelity([[0.5, 0.5]]), ShapeError),
            (lambda: optimal_average_fidelity(2, [0.5, 0.3, 0.2], 0.1), ShapeError),
            (lambda: optimal_average_fidelity(2, [], 0.1), ShapeError),
            (lambda: optimal_average_fidelity(2, [0.7, 0.7], 0.1), DomainError),
            (lambda: optimal_average_fidelity(2, [1.5, -0.5], 0.1), DomainError),
            (lambda: optimal_average_fidelity(2.0, [0.5, 0.5], 0.1), DomainError),
            (lambda: optimal_average_fidelity(1, [1.0], 0.1), DomainError),
            (lambda: product_strategy_fidelity(0, 0.5), DomainError),
            (lambda: product_strategy_fidelity(-1, 0.5), DomainError),
            (lambda: product_strategy_fidelity(2.5, 0.5), DomainError),
        ],
        ids=[
            "nan-weight",
            "nan-probs",
            "orthogonal-out-of-range",
            "orthogonal-nan",
            "orthogonal-sum-above-one",
            "orthogonal-empty",
            "orthogonal-one-entry",
            "orthogonal-not-1d",
            "probs-longer-than-d",
            "probs-empty",
            "probs-sum-above-one",
            "probs-out-of-range",
            "float-dimension",
            "dimension-one",
            "product-dimension-zero",
            "product-dimension-negative",
            "product-float-dimension",
        ],
    )
    def test_domain(self, call, error):
        # NaN fails every comparison, so it is refused rather than returned.
        with pytest.raises(error):
            call()

    def test_qubit_reduces_to_product_form_at_max_weight(self):
        for pmin in (0.05, 0.2, 0.4):
            probs = [1 - pmin, pmin]
            lam = 2 * pmin
            assert optimal_average_fidelity(2, probs, lam) == pytest.approx(
                qubit_average_fidelity(lam), abs=1e-12
            )


class TestProductStrategy:
    def test_classical_and_perfect_limits(self):
        assert qubit_average_fidelity(0.0) == pytest.approx(2 / 3, abs=1e-15)
        assert qubit_average_fidelity(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_partial_weight(self):
        assert qubit_average_fidelity(0.4) == pytest.approx(0.8, abs=1e-15)

    def test_general_dimension(self):
        assert product_strategy_fidelity(3, 0.6) == pytest.approx(0.8, abs=1e-15)
        assert product_strategy_fidelity(2, 0.4) == pytest.approx(
            qubit_average_fidelity(0.4), abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_average_fidelity(1.2)


class TestRelaxedAngle:
    def test_channel_angle_matches_product_optimum(self):
        for cc in (0.0, 0.3, 0.6, 0.9):
            lam = 1 - cc
            got = relaxed_angle_fidelity(cc, cc, lam)
            assert got == pytest.approx(qubit_average_fidelity(lam), abs=1e-12)

    def test_maximal_channel_orthogonal_measurement(self):
        assert relaxed_angle_fidelity(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_product_channel_is_flat(self):
        for ct in (0.0, 0.3, 0.7):
            lam = 1 - ct
            assert relaxed_angle_fidelity(1.0, ct, lam) == pytest.approx(2 / 3, abs=1e-15)

    def test_nonincreasing_along_optimum(self):
        values = [
            relaxed_angle_fidelity(0.3, ct, 1 - ct) for ct in np.linspace(0.0, 0.99, 100)
        ]
        assert all(a - b >= -1e-12 for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            relaxed_angle_fidelity(0.3, 1.0, 0.0)
        with pytest.raises(DomainError):
            relaxed_angle_fidelity(0.3, 0.5, 0.6)
        for cos_theta_c in (float("nan"), 1.5, -1.5):
            with pytest.raises(DomainError, match="cos_theta_c"):
                relaxed_angle_fidelity(cos_theta_c, 0.2, 0.5)
        with pytest.raises(DomainError):
            relaxed_angle_fidelity(0.3, float("nan"), 0.5)
        with pytest.raises(DomainError):
            relaxed_angle_fidelity(0.3, 0.2, float("nan"))


class TestEntropyInversion:
    def test_maximal(self):
        channel, cos_theta_c = channel_from_entropy(1.0)
        np.testing.assert_allclose(channel.probs, [0.5, 0.5], atol=1e-12)
        assert cos_theta_c == pytest.approx(0.0, abs=1e-12)

    def test_product(self):
        channel, cos_theta_c = channel_from_entropy(0.0)
        np.testing.assert_allclose(channel.probs, [0.0, 1.0], atol=1e-12)
        assert cos_theta_c == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "entropy,want_pmin",
        [(0.19, 0.029128040978), (0.55, 0.127304805976)],
    )
    def test_figure_channels(self, entropy, want_pmin):
        channel, cos_theta_c = channel_from_entropy(entropy)
        pmin = float(np.min(channel.probs))
        # Bisection-oracle confirmation, then the frozen value.
        assert binary_entropy(pmin) == pytest.approx(entropy, abs=1e-10)
        assert pmin == pytest.approx(want_pmin, abs=1e-9)
        assert cos_theta_c == pytest.approx(1 - 2 * pmin, abs=1e-12)

    def test_roundtrip(self):
        for s in np.linspace(0.05, 0.95, 7):
            channel, _ = channel_from_entropy(float(s))
            assert binary_entropy(float(np.min(channel.probs))) == pytest.approx(
                float(s), abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            channel_from_entropy(1.5)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
