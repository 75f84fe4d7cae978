"""Names the benchmark fixes: workloads, metrics, units and the layer map.

``BENCHMARK.json`` at the repository root repeats the workload names, the
end-to-end metrics and the per-layer metrics; ``selftest.py`` checks that
the two agree.  Later performance work cites a metric and a workload by
these names.  README.md maps each per-layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

# Package modules traced as layers, in dependency order.
LAYERS = ("linalg", "weyl", "channel", "povm", "fidelity", "dilation", "formulas", "verify", "cli")

# Workload -> one-line reason (README.md gives the long form).
WORKLOADS = {
    "mc_sweep": "Monte Carlo teleport jobs at d=2,4,6: over 95% of the time is fidelity.simulate, the exact path is under 2%",
    "exact_large_d": "exact-only teleport at d=8,12 plus dilate at d=5,6: dense elements, per-element eigh and Gram-Schmidt dominate, no Monte Carlo",
    "cli_small": "verify, figure1 and small-d teleport with a JSONL transcript: per-call and per-record costs of what users run interactively",
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Printed with the end-to-end figures but not part of the machine-read
# result: mc_rounds_per_s does not apply to exact_large_d, and failed_frac
# is 0 on a healthy run (the result line carries it as attempted/failed).
END_TO_END_INFO = {
    "mc_rounds_per_s": "1/s",
    "failed_frac": "fraction",
}

# Functions whose self time (span duration minus child spans) is reported.
SELF_TIMED = (
    "fidelity.simulate",
    "fidelity.channel_maps",
    "fidelity.outcome_channel",
    "fidelity.correction_unitaries",
    "fidelity.report",
    "povm.build_conclusive_povm",
    "povm.refine_inconclusive_product",
    "povm.refine_inconclusive_residual",
    "dilation.dilate",
    "dilation.dilated_channel_maps",
    "verify.run_battery",
    "cli.main",
    "weyl.build_weyl_basis",
    "channel.dual_states",
    "linalg.psd_sqrt",
)

# Functions whose call count is reported.
CALL_COUNTED = (
    "fidelity.outcome_channel",
    "fidelity.optimal_correction",
    "fidelity.avg_fidelity_term",
)

# Functions whose tracemalloc peak above their entry level is reported.
ALLOC_TRACKED = (
    "fidelity.simulate",
    "povm.build_conclusive_povm",
    "povm.refine_inconclusive_product",
    "povm.refine_inconclusive_residual",
)


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    metrics = {f"{name}.self_s": "s" for name in SELF_TIMED}
    metrics.update({f"{layer}.self_s": "s" for layer in LAYERS})
    metrics.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    metrics.update({f"{name}.alloc_peak_mb": "MB" for name in ALLOC_TRACKED})
    metrics.update(
        {
            "fidelity.simulate.rounds": "count",
            "fidelity.simulate.rounds_per_s": "1/s",
            "verify.checks": "count",
            "cli.transcript.records": "count",
            "cli.transcript.bytes": "count",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unattributed_s": "s",
        }
    )
    return metrics


# Per-layer metrics where more is better: work done and throughput.  For
# every other per-layer metric (times, calls, bytes, peaks) less is better.
HIGHER_IS_BETTER = (
    "fidelity.simulate.rounds",
    "fidelity.simulate.rounds_per_s",
    "verify.checks",
    "cli.transcript.records",
)

