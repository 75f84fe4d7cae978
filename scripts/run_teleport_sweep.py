#!/usr/bin/env python3
"""Sweep the conclusive weight for one channel and print both strategies.

Usage: run_teleport_sweep.py [cos_theta_c] [n_points]

Shows the trade-off at a glance: the product split gains average fidelity
with the weight while the residual split loses it, and the two meet at the
positivity maximum for d=2.  The whole sweep is one POVM stack over the
weights, refined both ways, with one report call per strategy.
"""

import sys

import numpy as np

from qteleport import (
    build_conclusive_povm,
    build_weyl_basis,
    lambda_max,
    qubit_channel_from_cos_theta,
    refine_inconclusive_product,
    refine_inconclusive_residual,
    report,
)

if __name__ == "__main__":
    cos_theta_c = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    n_points = int(sys.argv[2]) if len(sys.argv) > 2 else 11
    channel = qubit_channel_from_cos_theta(cos_theta_c)
    basis = build_weyl_basis(channel.dim)
    top = lambda_max(channel)
    print(f"channel cos_theta_c={cos_theta_c}  lambda_max={top:.6f}")
    print(f"{'lambda':>10} {'f_product':>12} {'f_residual':>12}")
    base = build_conclusive_povm(channel, basis, np.linspace(0.0, top, n_points))
    products = report(refine_inconclusive_product(base), channel, basis, "paper").f_total
    residuals = report(refine_inconclusive_residual(base, basis), channel, basis, "auto").f_total
    for lam, prod, res in zip(base.lam, products, residuals):
        print(f"{lam:>10.6f} {prod:>12.8f} {res:>12.8f}")
