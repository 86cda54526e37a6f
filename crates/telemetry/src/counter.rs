//! The counter table: every [`Aggregator`](crate::Aggregator) counter
//! declared once.
//!
//! Each row names a [`Counts`] field, its Prometheus name and HELP
//! text, and whether the `trace diff` gate compares it. The
//! `counters!` macro expands the table into the [`Counts`] struct, the
//! [`Counts::SPECS`] list, the [`Counts::for_each`] visitor, and the
//! crate-private [`Counter`] ids that index the aggregator's atomics.
//! Adding a counter is one row here plus the `Aggregator::record` arm
//! that bumps it (and `scripts/bench_gate.sh --update` when it is
//! gated).

#[cfg(doc)]
use crate::event::Event;
use serde::{Deserialize, Serialize};

/// One row of the counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    /// The [`Counts`] field name; also the `trace summary` label and
    /// the `trace metrics` baseline key.
    pub key: &'static str,
    /// The Prometheus metric name.
    pub prom_name: &'static str,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// Whether the counter is deterministic solver/serve *work* that
    /// the `trace diff` regression gate compares (wall-clock-dependent
    /// or bookkeeping counters are not).
    pub gated: bool,
}

macro_rules! counters {
    ($(
        $(#[$attr:meta])*
        $key:ident, gated: $gated:literal, $prom:literal, $help:literal;
    )+) => {
        /// A point-in-time snapshot of every [`Aggregator`](crate::Aggregator)
        /// counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Counts {
            $($(#[$attr])* pub $key: u64,)+
        }

        /// Counter ids, in table order: each indexes the aggregator's
        /// atomic array and [`Counts::SPECS`].
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Counter {
            $($key,)+
        }

        impl Counts {
            /// Every counter's table row, in table (and Prometheus
            /// exposition) order.
            pub const SPECS: &'static [CounterSpec] = &[$(CounterSpec {
                key: stringify!($key),
                prom_name: $prom,
                help: $help,
                gated: $gated,
            },)+];

            /// Builds a snapshot from values in table order.
            pub(crate) fn from_values(values: [u64; COUNTERS]) -> Counts {
                Counts {
                    $($key: values[Counter::$key as usize],)+
                }
            }

            /// Visits every counter as `(key, value)`, in table order.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($key), self.$key);)+
            }
        }
    };
}

/// Number of counters in the table.
pub(crate) const COUNTERS: usize = Counts::SPECS.len();

counters! {
    /// Newton iterations run ([`Event::NewtonIter`]).
    newton_iters, gated: true,
        "ferrocim_newton_iterations_total", "Newton-Raphson iterations run.";
    /// Per-iteration residual diagnostics ([`Event::NewtonResidual`],
    /// emitted only at `DetailLevel::Iterations`).
    newton_residuals, gated: false,
        "ferrocim_newton_residuals_total", "Per-iteration residual diagnostics recorded.";
    /// Newton solves that converged ([`Event::NewtonConverged`]).
    newton_converged, gated: true,
        "ferrocim_newton_converged_total", "Newton solves that converged.";
    // Linear-solver work: a symbolic increase means pattern reuse broke
    // (every Newton iteration re-analyzing the matrix).
    /// Linear systems factored and solved ([`Event::SolverSolved`]).
    solver_solves, gated: true,
        "ferrocim_solver_solves_total", "Linear systems factored and solved.";
    /// Solves that ran a fresh symbolic analysis first
    /// ([`Event::SolverSolved`] with `symbolic: true`). On a fixed
    /// topology the sparse backend reports exactly one of these no
    /// matter how many numeric solves follow.
    solver_symbolic, gated: true,
        "ferrocim_solver_symbolic_total", "Solves that ran a fresh symbolic analysis.";
    // Numerical health: a rise in refinements or degradations says the
    // change made systems harder to solve, even with flat Newton counts.
    /// Certified solves that needed iterative refinement
    /// ([`Event::SolveRefined`]).
    solves_refined, gated: true,
        "ferrocim_solves_refined_total", "Certified solves that needed iterative refinement.";
    /// Solver degradation-ladder escalations ([`Event::SolveDegraded`]).
    solves_degraded, gated: true,
        "ferrocim_solves_degraded_total", "Solver degradation-ladder escalations.";
    /// Transient steps accepted ([`Event::StepAccepted`]).
    steps_accepted, gated: true,
        "ferrocim_steps_accepted_total", "Transient steps accepted.";
    /// Transient steps rejected ([`Event::StepRejected`]).
    steps_rejected, gated: true,
        "ferrocim_steps_rejected_total", "Transient steps rejected.";
    /// Rescue-ladder rung attempts ([`Event::RescueAttempt`]).
    rescue_attempts, gated: true,
        "ferrocim_rescue_attempts_total", "Convergence-rescue rung attempts.";
    /// Rescue-ladder attempts that converged (one per rescued solve).
    rescues_succeeded, gated: true,
        "ferrocim_rescues_succeeded_total", "Rescue rungs that converged.";
    /// Newton iterations charged to a limited budget.
    budget_newton, gated: false,
        "ferrocim_budget_newton_total", "Newton iterations charged to a limited budget.";
    /// Steps charged to a limited budget.
    budget_steps, gated: false,
        "ferrocim_budget_steps_total", "Steps charged to a limited budget.";
    /// Monte-Carlo runs started ([`Event::McRunStarted`]).
    mc_runs_started, gated: true,
        "ferrocim_mc_runs_started_total", "Monte-Carlo runs started.";
    /// Monte-Carlo runs that produced a sample.
    mc_runs_ok, gated: false,
        "ferrocim_mc_runs_ok_total", "Monte-Carlo runs that produced a sample.";
    /// Monte-Carlo runs that failed or were skipped.
    mc_runs_failed, gated: true,
        "ferrocim_mc_runs_failed_total", "Monte-Carlo runs that failed or were skipped.";
    /// MAC jobs requested across all batches ([`Event::MacIssued`]).
    mac_jobs, gated: true,
        "ferrocim_mac_jobs_total", "Row-MAC jobs requested.";
    /// MAC transients actually solved after duplicate collapsing.
    mac_solves, gated: true,
        "ferrocim_mac_solves_total", "Row-MAC transients solved after dedup.";
    /// Fault substitutions ([`Event::FaultSubstituted`]).
    faults_substituted, gated: true,
        "ferrocim_faults_substituted_total", "Fault-tolerant oracle substitutions.";
    /// Training epochs completed ([`Event::EpochDone`]).
    epochs_done, gated: false,
        "ferrocim_epochs_done_total", "Training epochs completed.";
    /// Scoped timers closed ([`Event::SpanEnd`]).
    spans, gated: false,
        "ferrocim_spans_total", "Scoped timers closed.";
    /// Run manifests seen ([`Event::Manifest`]).
    manifests, gated: false,
        "ferrocim_manifests_total", "Run manifests seen.";
    // Serving-layer outcomes gate the serve traces; on solver-only
    // probes they are zero on both sides.
    /// Requests admitted by `ferrocim-serve` ([`Event::ServeAdmitted`]).
    serve_admitted, gated: true,
        "ferrocim_serve_admitted_total", "Requests admitted into the serve worker queue.";
    /// Requests shed with a typed `429` ([`Event::ServeShed`]).
    serve_shed, gated: true,
        "ferrocim_serve_shed_total", "Requests shed with a typed 429 Overloaded.";
    /// Backoff retries of transient solve failures
    /// ([`Event::ServeRetry`]).
    serve_retries, gated: true,
        "ferrocim_serve_retries_total", "Backoff retries of transient solve failures.";
    /// Responses answered from the degraded transfer-curve fallback
    /// ([`Event::ServeDegraded`]).
    serve_degraded, gated: true,
        "ferrocim_serve_degraded_total",
        "Responses answered from the degraded transfer-curve fallback.";
    /// Circuit-breaker closed-to-open trips
    /// ([`Event::ServeBreakerOpen`]).
    serve_breaker_open, gated: true,
        "ferrocim_serve_breaker_open_total", "Circuit-breaker closed-to-open trips.";
    /// Requests finished with a typed outcome ([`Event::ServeDone`]).
    /// Absent from traces recorded before the flight-recorder release,
    /// hence the serde default.
    #[serde(default)]
    serve_done, gated: true,
        "ferrocim_serve_done_total", "Requests finished with a typed outcome.";
    /// SLO burn-rate breaches latched ([`Event::SloBreach`]).
    #[serde(default)]
    slo_breaches, gated: true,
        "ferrocim_slo_breaches_total", "SLO burn-rate breaches latched.";
    // Surrogate fast path: falling hits (or rising misses) mean the
    // content-addressed keys stopped matching; any check failure means
    // the certified error envelope was violated.
    /// Surrogate-store lookups answered from a calibrated curve
    /// ([`Event::SurrogateLookup`] with `hit: true`).
    surrogate_hits, gated: true,
        "ferrocim_surrogate_hits_total", "Surrogate lookups answered from a calibrated curve.";
    /// Surrogate-store lookups that missed and triggered a live
    /// calibration ([`Event::SurrogateLookup`] with `hit: false`).
    surrogate_misses, gated: true,
        "ferrocim_surrogate_misses_total", "Surrogate lookups that triggered a live calibration.";
    /// Check-mode live re-solves of surrogate-answered queries
    /// ([`Event::SurrogateCheck`]).
    surrogate_checks, gated: true,
        "ferrocim_surrogate_checks_total", "Check-mode live re-solves of surrogate answers.";
    /// Check-mode re-solves whose deviation exceeded the certified
    /// envelope ([`Event::SurrogateCheck`] with `ok: false`).
    surrogate_check_failures, gated: true,
        "ferrocim_surrogate_check_failures_total",
        "Check-mode deviations exceeding the certified envelope.";
}
