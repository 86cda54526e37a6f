//! Per-layer metrics derived from a traced run's two phases: the set-up
//! and the measured loop.
//!
//! Every workload reports every metric. A layer a workload never enters
//! reads 0 (no spans, no counts), which is itself the measurement: the
//! solver is idle in `vgg_cim`'s loop, the surrogate is never consulted
//! by the row workloads.

use crate::harness::{Layers, Samples};
use crate::stats::median;
use crate::trace::Phase;
use ferrocim_telemetry::ServeOutcome;

/// `a / b`, or 0 when nothing was measured (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics every workload shares. `op_span` names the
/// benchmark's own span around each timed public call.
pub fn derive(setup: &Phase, run: &Phase, samples: &Samples, op_span: &str) -> Layers {
    let ops = samples.attempted() as f64;
    let c = run.counts;
    let per_op = |count: u64| ratio(count as f64, ops);
    let op_ms = run.span_ms(op_span);
    let transient_ms = run.span_ms("spice.transient");
    let lookups = (c.surrogate_hits + c.surrogate_misses) as f64;
    let server_ms: Vec<f64> = run.served.iter().map(|s| s.latency_ms).collect();
    let server_ms_mean = ratio(server_ms.iter().sum(), server_ms.len() as f64);
    let live_ms: Vec<f64> = run
        .served
        .iter()
        .filter(|s| s.live)
        .map(|s| s.latency_ms)
        .collect();
    let deadline = run
        .served
        .iter()
        .filter(|s| s.outcome == ServeOutcome::Deadline)
        .count();
    let mc_samples = setup.span_count("cim.mac_sample") as f64;
    Layers::from([
        ("bench.op_ms_mean", ratio(op_ms, ops)),
        ("spice.transient_ms_per_op", ratio(transient_ms, ops)),
        ("spice.transient_share", ratio(transient_ms, op_ms)),
        ("spice.newton_iters_per_op", per_op(c.newton_iters)),
        (
            "spice.us_per_newton_iter",
            ratio(transient_ms * 1e3, c.newton_iters as f64),
        ),
        ("spice.steps_accepted_per_op", per_op(c.steps_accepted)),
        ("spice.steps_rejected_per_op", per_op(c.steps_rejected)),
        ("spice.lu_numeric_per_op", per_op(c.solver_solves)),
        ("spice.lu_symbolic_per_op", per_op(c.solver_symbolic)),
        ("spice.solves_refined", c.solves_refined as f64),
        ("spice.solves_degraded", c.solves_degraded as f64),
        ("spice.rescue_attempts", c.rescue_attempts as f64),
        (
            "cim.transfer_measure_s",
            setup.span_ms("cim.transfer_measure") / 1e3,
        ),
        ("cim.mc_samples", mc_samples),
        (
            "cim.ms_per_mc_sample",
            ratio(setup.span_ms("cim.mac_sample"), mc_samples),
        ),
        (
            "surrogate.hit_ratio",
            ratio(c.surrogate_hits as f64, lookups),
        ),
        (
            "surrogate.calibrations",
            setup.counts.surrogate_misses as f64,
        ),
        (
            "surrogate.check_failures",
            c.surrogate_check_failures as f64,
        ),
        ("serve.server_ms_mean", server_ms_mean),
        (
            "serve.client_overhead_ms",
            if server_ms.is_empty() {
                0.0
            } else {
                ratio(op_ms, ops) - server_ms_mean
            },
        ),
        (
            "serve.live_ms_p50",
            if live_ms.is_empty() {
                0.0
            } else {
                median(&live_ms)
            },
        ),
        ("serve.shed", c.serve_shed as f64),
        ("serve.retries", c.serve_retries as f64),
        ("serve.degraded", c.serve_degraded as f64),
        ("serve.deadline", deadline as f64),
    ])
}
