//! The traced run's recorders.
//!
//! One [`Telemetry`] handle feeds three sinks through the public
//! `with_recorder` / `Server::start` hooks:
//!
//! - the program's own [`Aggregator`], whose counters give the work
//!   done per layer (Newton iterations, factorizations, steps, surrogate
//!   lookups, serve sheds and retries);
//! - a [`SpanClock`] that sums span durations by name, so a layer's
//!   busy time is the total of its spans and its self time is that
//!   minus its children;
//! - a JSONL trace (`ferrocim-trace-v1`, readable by `trace summary`) of
//!   the spans and serve/surrogate events. The per-iteration solver
//!   events are left to the aggregator: written out they would make the
//!   file hundreds of megabytes and the traced run unrepresentative.

use ferrocim_telemetry::{
    Aggregator, Counts, Event, JsonlSink, Recorder, ServeBackendKind, ServeOutcome, Tee, Telemetry,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The aggregator counters the per-layer metrics use, as the
        /// difference over one phase of the run.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            fn between(before: &Counts, now: &Counts) -> Counters {
                Counters { $($field: now.$field - before.$field,)* }
            }
        }
    };
}

counters!(
    newton_iters,
    steps_accepted,
    steps_rejected,
    solver_solves,
    solver_symbolic,
    solves_refined,
    solves_degraded,
    rescue_attempts,
    surrogate_hits,
    surrogate_misses,
    surrogate_check_failures,
    serve_shed,
    serve_retries,
    serve_degraded,
);

/// One finished serve request as the server reported it (`ServeDone`).
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Answered by a live solve (as opposed to the surrogate or the
    /// degraded fallback).
    pub live: bool,
    /// How the request terminated.
    pub outcome: ServeOutcome,
    /// Admission-to-response latency.
    pub latency_ms: f64,
}

/// What the recorders saw during one phase of the run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Aggregator counter deltas.
    pub counts: Counters,
    /// `(closed spans, total microseconds)` by span name.
    pub spans: BTreeMap<String, (u64, f64)>,
    /// Serve requests finished.
    pub served: Vec<Served>,
}

impl Phase {
    /// Total milliseconds spent in spans called `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(_, us)| us / 1e3)
    }

    /// Number of closed spans called `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |&(n, _)| n)
    }
}

#[derive(Debug, Default)]
struct ClockState {
    open: HashMap<u64, String>,
    spans: BTreeMap<String, (u64, f64)>,
    served: Vec<Served>,
}

/// Sums span durations by name and collects `ServeDone` latencies.
#[derive(Debug, Default)]
pub struct SpanClock {
    state: Mutex<ClockState>,
}

impl Recorder for SpanClock {
    fn record(&self, event: &Event) {
        if !matches!(
            event,
            Event::SpanBegin { .. } | Event::SpanEnd { .. } | Event::ServeDone { .. }
        ) {
            return;
        }
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        match event {
            Event::SpanBegin { id, name, .. } => {
                state.open.insert(*id, name.clone());
            }
            Event::SpanEnd { id, micros } => {
                if let Some(name) = state.open.remove(id) {
                    let slot = state.spans.entry(name).or_default();
                    slot.0 += 1;
                    slot.1 += micros;
                }
            }
            Event::ServeDone {
                outcome,
                backend,
                latency_ms,
                ..
            } => state.served.push(Served {
                live: *backend == ServeBackendKind::Live,
                outcome: *outcome,
                latency_ms: *latency_ms,
            }),
            _ => {}
        }
    }
}

/// The JSONL trace, minus the per-iteration solver events.
struct TraceFile(JsonlSink);

impl Recorder for TraceFile {
    fn record(&self, event: &Event) {
        let per_iteration = matches!(
            event,
            Event::NewtonIter { .. }
                | Event::NewtonResidual { .. }
                | Event::NewtonConverged { .. }
                | Event::SolverSolved { .. }
                | Event::StepAccepted { .. }
                | Event::StepRejected { .. }
                | Event::BudgetSpend { .. }
        );
        if !per_iteration {
            self.0.record(event);
        }
    }
}

/// The traced run's telemetry: aggregator, span clock and trace file.
pub struct Tracer {
    aggregator: Arc<Aggregator>,
    clock: Arc<SpanClock>,
    file: Arc<TraceFile>,
    telemetry: Telemetry,
    last: Counts,
}

impl Tracer {
    /// Opens the trace file at `path` and wires the three recorders into
    /// one handle. The trace starts with a manifest of `args`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the trace file.
    pub fn create(path: &Path, args: Vec<String>) -> std::io::Result<Tracer> {
        let aggregator = Arc::new(Aggregator::new());
        let clock = Arc::new(SpanClock::default());
        let file = Arc::new(TraceFile(JsonlSink::create(path)?));
        let telemetry = Telemetry::to(Tee::new(vec![
            aggregator.clone(),
            clock.clone(),
            file.clone(),
        ]));
        telemetry.record(&Event::Manifest {
            bin: "cimbench".to_string(),
            args,
        });
        Ok(Tracer {
            last: aggregator.counts(),
            aggregator,
            clock,
            file,
            telemetry,
        })
    }

    /// The handle to attach to everything the traced run builds.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The aggregator (the serve workload hands it to `Server::start`).
    pub fn aggregator(&self) -> Arc<Aggregator> {
        self.aggregator.clone()
    }

    /// Everything recorded since the previous call (or since creation).
    pub fn phase(&mut self) -> Phase {
        let now = self.aggregator.counts();
        let counts = Counters::between(&self.last, &now);
        self.last = now;
        let mut state = self
            .clock
            .state
            .lock()
            .expect("span clock lock poisoned by a panicking recorder");
        Phase {
            counts,
            spans: std::mem::take(&mut state.spans),
            served: std::mem::take(&mut state.served),
        }
    }

    /// Closes the trace file and returns its path.
    ///
    /// # Errors
    ///
    /// The first write error, or flush/rename failures.
    pub fn finish(&self) -> std::io::Result<PathBuf> {
        self.file.0.finish()
    }
}
