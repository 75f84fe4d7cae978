"""Closed-form scalar fidelity formulas, kept separate from the engine.

These are independent evaluation targets for the exact Haar-average
machinery: the engine integrates outcome by outcome, these compress the
same averages to one-line expressions.  Agreement between the two routes is
part of the verification battery.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .channel import SchmidtChannel, make_channel
from .errors import DomainError, ShapeError


def _check_dimension(d) -> None:
    """Raise ``DomainError`` unless d is an integer of at least 2."""
    if not isinstance(d, numbers.Integral) or d < 2:
        raise DomainError(f"dimension must be an integer of at least 2, got {d!r}")


def _check_probs(probs: np.ndarray) -> None:
    """Raise ``DomainError`` unless the squared coefficients lie in [0, 1] and sum to 1 within 1e-9."""
    # NaN fails every comparison, so this check refuses it too.
    if not (probs.min() >= 0.0 and probs.max() <= 1.0 and abs(probs.sum() - 1.0) <= 1e-9):
        raise DomainError(f"squared coefficients must lie in [0, 1] and sum to 1, got {probs}")


def optimal_average_fidelity(d: int, probs, lam: float) -> float:
    """Maximal Haar-average fidelity at conclusive weight lam (residual split).

    probs are the d squared Schmidt coefficients: each in [0, 1], summing
    to 1 within 1e-9 as ``make_channel`` requires.  Requires
    0 <= lam <= d * min(probs) so every radicand d*p - lam is nonnegative.
    """
    _check_dimension(d)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (d,):
        raise ShapeError(f"expected {d} squared coefficients, got shape {probs.shape}")
    _check_probs(probs)
    radicands = d * probs - lam
    if not -1e-12 <= lam or not -1e-12 <= np.min(radicands):
        raise DomainError(
            f"weight {lam} outside [0, {d * float(np.min(probs))}]: negative radicand"
        )
    root_sum = float(np.sum(np.sqrt(np.clip(radicands, 0.0, None))))
    return lam + (1.0 - lam) / (d + 1) + root_sum**2 / (d * (d + 1))


def product_strategy_fidelity(d: int, lam: float) -> float:
    """Haar-average fidelity of the product split with fixed shift corrections.

    Each diagonal inconclusive outcome transfers the conditional fidelity
    2/(d+1), hence lam + 2 (1 - lam) / (d + 1) overall, independent of the
    channel.
    """
    _check_dimension(d)
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise DomainError(f"weight must lie in [0, 1], got {lam}")
    return lam + 2.0 * (1.0 - lam) / (d + 1)


def qubit_average_fidelity(lam: float) -> float:
    """d=2 specialization of the product-split fidelity: (2/3)(1 + lam/2)."""
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise DomainError(f"weight must lie in [0, 1], got {lam}")
    return (2.0 / 3.0) * (1.0 + lam / 2.0)


def relaxed_angle_fidelity(cos_theta_c: float, cos_theta: float, lam: float) -> float:
    """d=2 fidelity when the measurement overlap is relaxed from cos_theta_c
    to cos_theta: (2/3)(1 + (lam/2) sqrt(1-cos_theta_c^2)/sqrt(1-cos_theta^2)).

    Positivity restricts lam to [0, 1 - |cos_theta|]; at the upper end this
    is the per-angle optimum.
    """
    if not -1.0 <= cos_theta_c <= 1.0:
        raise DomainError(f"cos_theta_c must lie in [-1, 1], got {cos_theta_c}")
    if not abs(cos_theta) < 1.0:
        raise DomainError(f"cos_theta must satisfy |cos_theta| < 1, got {cos_theta}")
    if not 0.0 <= lam <= 1.0 - abs(cos_theta) + 1e-12:
        raise DomainError(
            f"weight {lam} outside [0, 1 - |cos_theta|] = [0, {1.0 - abs(cos_theta)}]"
        )
    ratio = math.sqrt(1.0 - cos_theta_c**2) / math.sqrt(1.0 - cos_theta**2)
    return (2.0 / 3.0) * (1.0 + 0.5 * lam * ratio)


def best_orthogonal_fidelity(probs) -> float:
    """Fidelity ceiling of orthogonal measurement plus unitary correction,
    (1 + (sum_i a_i)^2) / (d + 1).

    probs are the d >= 2 squared Schmidt coefficients, checked as
    ``optimal_average_fidelity`` checks them.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ShapeError(f"expected a 1-D array of squared coefficients, got shape {probs.shape}")
    d = probs.size
    _check_dimension(d)
    _check_probs(probs)
    return (1.0 + float(np.sum(np.sqrt(probs))) ** 2) / (d + 1)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def channel_from_entropy(entropy_bits: float) -> tuple[SchmidtChannel, float]:
    """Invert the binary entropy to a d=2 channel of given entanglement.

    Returns the channel on the branch min(a^2) <= 1/2 together with its
    overlap parameter cos_theta_c = 1 - 2 min(a^2).  Bisection to 1e-12.
    """
    if not 0.0 <= entropy_bits <= 1.0:
        raise DomainError(f"entropy must lie in [0, 1] bits, got {entropy_bits}")
    lo, hi = 0.0, 0.5
    if entropy_bits == 0.0:
        p = 0.0
    elif entropy_bits == 1.0:
        p = 0.5
    else:
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if binary_entropy(mid) < entropy_bits:
                lo = mid
            else:
                hi = mid
        p = 0.5 * (lo + hi)
    channel = make_channel([math.sqrt(p), math.sqrt(1.0 - p)])
    return channel, 1.0 - 2.0 * p
