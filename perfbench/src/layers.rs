//! Per-layer metrics of one traced pass, named after the crate or module
//! whose work they measure. See `README.md` for which end-to-end metric
//! each should move, and on which workload.

use crate::trace::{TraceData, ROOT};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mechanism.hypothesis_solve_ms", "ms"),
    ("mechanism.error_query_ms", "ms"),
    ("mechanism.self_ms", "ms"),
    ("mechanism.free_answers", "count"),
    ("mechanism.update_rounds", "count"),
    ("oracle.calls", "count"),
    ("oracle.busy_ms", "ms"),
    ("oracle.failed", "count"),
    ("backend.apply_update_ms", "ms"),
    ("backend.apply_update_calls", "count"),
    ("backend.hypothesis_minimizer_ms", "ms"),
    ("backend.expected_query_value_ms", "ms"),
    ("backend.expected_query_value_calls", "count"),
    ("backend.snapshot_ms", "ms"),
    ("backend.snapshot_calls", "count"),
    ("backend.sample_indices_ms", "ms"),
    ("snapshot.calls", "count"),
    ("snapshot.estimate_mean_ms", "ms"),
    ("snapshot.hypothesis_minimizer_ms", "ms"),
    ("sketch.pool_sweep_ms", "ms"),
    ("sketch.log_replay_ms", "ms"),
    ("sketch.replay_rounds", "count"),
    ("sketch.compactions", "count"),
    ("sketch.resamples", "count"),
    ("sketch.estimate_ms", "ms"),
    ("sketch.estimate_calls", "count"),
    ("sketch.ess_min", "samples"),
    ("dp.sv_screen_us", "us"),
    ("dp.select_ms", "ms"),
    ("dp.measure_us", "us"),
    ("dp.eps_spent", "eps"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "requests"),
    ("serve.rescreen_frac", "ratio"),
    ("serve.snapshot_epochs", "count"),
    ("serve.updates", "count"),
    ("serve.halted_replies", "count"),
    ("serve.rejected", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The span-, counter- and gauge-derived metrics of one traced pass.
/// Metrics of layers that did not run read 0.
pub fn from_trace(data: &TraceData) -> BTreeMap<&'static str, f64> {
    let totals = data.totals();
    let span = |layer: &str, name: &str| totals.get(&(layer, name)).copied().unwrap_or_default();
    let ms = |layer: &str, name: &str| span(layer, name).total_ns as f64 / 1e6;
    let us = |layer: &str, name: &str| span(layer, name).total_ns as f64 / 1e3;
    let calls = |layer: &str, name: &str| span(layer, name).calls as f64;
    let counter = |name: &str| data.counters.get(name).copied().unwrap_or(0) as f64;
    let outcome = |label: &str| data.outcomes.get(label).copied().unwrap_or(0) as f64;
    let snapshot_calls: u64 = totals
        .iter()
        .filter(|((layer, _), _)| *layer == "snapshot")
        .map(|(_, t)| t.calls)
        .sum();

    BTreeMap::from([
        (
            "mechanism.hypothesis_solve_ms",
            ms("mechanism", "hypothesis_solve"),
        ),
        ("mechanism.error_query_ms", ms("mechanism", "error_query")),
        ("mechanism.self_ms", span(ROOT, ROOT).self_ns as f64 / 1e6),
        ("mechanism.free_answers", outcome("free")),
        ("mechanism.update_rounds", outcome("update")),
        ("oracle.calls", calls("oracle", "solve")),
        ("oracle.busy_ms", ms("oracle", "solve")),
        ("oracle.failed", counter("oracle.failed")),
        ("backend.apply_update_ms", ms("backend", "apply_update")),
        (
            "backend.apply_update_calls",
            calls("backend", "apply_update"),
        ),
        (
            "backend.hypothesis_minimizer_ms",
            ms("backend", "hypothesis_minimizer"),
        ),
        (
            "backend.expected_query_value_ms",
            ms("backend", "expected_query_value"),
        ),
        (
            "backend.expected_query_value_calls",
            calls("backend", "expected_query_value"),
        ),
        ("backend.snapshot_ms", ms("backend", "snapshot")),
        ("backend.snapshot_calls", calls("backend", "snapshot")),
        ("backend.sample_indices_ms", ms("backend", "sample_indices")),
        ("snapshot.calls", snapshot_calls as f64),
        ("snapshot.estimate_mean_ms", ms("snapshot", "estimate_mean")),
        (
            "snapshot.hypothesis_minimizer_ms",
            ms("snapshot", "hypothesis_minimizer"),
        ),
        ("sketch.pool_sweep_ms", ms("sketch", "pool_sweep")),
        ("sketch.log_replay_ms", ms("sketch", "log_replay")),
        (
            "sketch.replay_rounds",
            data.gauges.get("replay_rounds").map_or(0.0, |g| g.sum),
        ),
        ("sketch.compactions", counter("compactions")),
        ("sketch.resamples", counter("resamples")),
        ("sketch.estimate_ms", ms("sketch", "estimate")),
        ("sketch.estimate_calls", calls("sketch", "estimate")),
        (
            "sketch.ess_min",
            data.gauges.get("ess").map_or(0.0, |g| g.min),
        ),
        ("dp.sv_screen_us", us("mechanism", "sv_screen")),
        ("dp.select_ms", ms("mechanism", "select")),
        ("dp.measure_us", us("mechanism", "measure")),
        ("trace.unattributed_frac", data.unattributed_frac()),
    ])
}
