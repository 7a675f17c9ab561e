"""Spans around the package's public layer functions, and the layer metrics.

The package itself is not instrumented: `Tracer.patch` swaps each layer
function, at the name its caller looks it up under, for a wrapper that
records a span (name, start, end, parent, counts) and restores the
originals on exit.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np


def _filter_counts(state_P, x):
    """Filters advanced, bytes of P, runs in the chunk (computed from shapes)."""
    return {"filters": int(np.prod(x.shape[:-1])), "p_bytes": int(state_P.nbytes),
            "runs": int(x.shape[0])}


# (owner, attribute, span name, counts(args, kwargs, result) or None)
def _targets(drlsnet):
    cli, harness, theory = drlsnet.cli, drlsnet.harness, drlsnet.theory
    config = drlsnet.config
    return (
        (config, "parse_config", "config.parse_config", None),
        (config.ExperimentConfig, "build_combiner", "network.build_combiner", None),
        (config.ExperimentConfig, "noise_variances", "network.noise_variances", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "emit_csv", "cli.emit_csv", None),
        (cli, "run_ensemble", "harness.run_ensemble", _ensemble_counts),
        (harness, "run_ensemble", "harness.run_ensemble", _ensemble_counts),
        (harness, "generate_node_signals", "signals.generate_node_signals",
         lambda a, kw, r: {"bytes": int(r[0].nbytes + r[1].nbytes)}),
        (harness, "drls_iteration", "filters.drls_iteration",
         lambda a, kw, r: _filter_counts(a[0].nodes.P, a[1])),
        (harness, "rls_iteration", "filters.rls_iteration",
         lambda a, kw, r: _filter_counts(a[0].P, a[1])),
        (harness, "theoretical_trajectory", "theory.theoretical_trajectory", None),
        (theory, "expected_phi_step", "theory.expected_phi_step", None),
        (theory, "mean_error_step", "theory.mean_error_step", None),
        (theory, "k_matrix_step", "theory.k_matrix_step", None),
    )


def _ensemble_counts(args, kwargs, traj):
    ensemble = args[6] if len(args) > 6 else kwargs["spec"]
    return {"runs": ensemble.runs,
            "excluded": sum(len(v) for v in traj.excluded_runs.values())}


class Tracer:
    """In-memory span recorder; one span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patch(self, drlsnet):
        saved = []
        try:
            for owner, attr, name, counts in _targets(drlsnet):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, experiments: int, setup_spans) -> dict[str, float]:
    """Per-layer metrics from the spans of `experiments` traced experiments.

    Totals are per experiment; percentiles pool every call.  A layer that
    did not run on the workload reports 0.  `setup_spans` are the spans of
    the traced set-ups, one list per set-up.
    """
    dur = defaultdict(list)
    child_time = defaultdict(float)
    counts = defaultdict(list)
    for name, start, end, parent, c in spans:
        dur[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
        if c is not None:
            counts[name].append(c)

    def self_time(name):
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _, _) in enumerate(spans) if n == name)

    # one theory step = its three step functions, called in this order
    step_fns = ("theory.expected_phi_step", "theory.mean_error_step",
                "theory.k_matrix_step")
    steps = [sum(t) for t in zip(*(dur[n] for n in step_fns))]
    filt = counts["filters.drls_iteration"] + counts["filters.rls_iteration"]
    ens = counts["harness.run_ensemble"]
    per = 1.0 / experiments

    def setup_median(names):
        return statistics.median(
            sum(end - start for n, start, end, parent, _ in s
                if n in names and parent == -1) for s in setup_spans) * 1e3

    return {
        "config.parse_ms": setup_median({"config.parse_config"}),
        "network.build_ms": setup_median({"network.build_combiner",
                                          "network.noise_variances"}),
        "signals.total_s": sum(dur["signals.generate_node_signals"]) * per,
        "signals.calls": len(dur["signals.generate_node_signals"]) * per,
        "signals.node_run_ms_p50": _pct(dur["signals.generate_node_signals"], 50) * 1e3,
        "signals.bytes_computed": sum(c["bytes"] for c in
                                      counts["signals.generate_node_signals"]) * per,
        "filters.drls_step_us_p50": _pct(dur["filters.drls_iteration"], 50) * 1e6,
        "filters.drls_step_us_p99": _pct(dur["filters.drls_iteration"], 99) * 1e6,
        "filters.rls_step_us_p50": _pct(dur["filters.rls_iteration"], 50) * 1e6,
        "filters.rls_step_us_p99": _pct(dur["filters.rls_iteration"], 99) * 1e6,
        "filters.total_s": (sum(dur["filters.drls_iteration"])
                            + sum(dur["filters.rls_iteration"])) * per,
        "filters.calls": len(filt) * per,
        "filters.batch_width": (statistics.fmean(c["filters"] for c in filt)
                                if filt else 0.0),
        "filters.p_bytes_per_step_computed": (statistics.fmean(c["p_bytes"] for c in filt)
                                              if filt else 0.0),
        "harness.self_s": self_time("harness.run_ensemble") * per,
        "harness.chunk_runs": max((c["runs"] for c in filt), default=0),
        "harness.runs_attempted": sum(c["runs"] for c in ens) * per,
        "harness.runs_excluded": sum(c["excluded"] for c in ens) * per,
        "theory.step_ms_p50": _pct(steps, 50) * 1e3,
        "theory.step_ms_p99": _pct(steps, 99) * 1e3,
        "theory.kmat_ms_p50": _pct(dur["theory.k_matrix_step"], 50) * 1e3,
        "theory.mean_err_ms_p50": _pct(dur["theory.mean_error_step"], 50) * 1e3,
        "theory.ephi_ms_p50": _pct(dur["theory.expected_phi_step"], 50) * 1e3,
        "theory.self_s": self_time("theory.theoretical_trajectory") * per,
        "theory.steps": len(steps) * per,
        "theory.total_s": sum(dur["theory.theoretical_trajectory"]) * per,
        "cli.emit_csv_ms": sum(dur["cli.emit_csv"]) * per * 1e3,
        "cli.write_ms": self_time("cli.run_experiment") * per * 1e3,
    }
