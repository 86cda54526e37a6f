//! The measurement loop and result types shared by the workloads.

use crate::check::Reading;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// How one run is configured (the command line).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of each measured loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One finished op, as the workload reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// The group whose ops its latency is compared with (see
    /// [`Timing::Fastest`]): its op-table entry, or a class of
    /// entries that cost alike.
    pub group: usize,
    /// Host time of the timed public call.
    pub latency_ms: f64,
    /// The call succeeded and its output matched the reference.
    pub ok: bool,
    /// Op-table index of an op whose readout differs from the true MAC
    /// count (as recorded: a design error, not a failure).
    pub misread: Option<usize>,
}

impl Op {
    /// An op whose reading is compared with its recorded reference; a
    /// call that errored is a failed op. Its group is its entry.
    pub fn checked(
        latency_ms: f64,
        reading: Result<Reading, String>,
        reference: &Reading,
        index: usize,
    ) -> Op {
        match reading {
            Ok(r) => Op {
                group: index,
                latency_ms,
                ok: r.matches(reference),
                misread: r.misread().then_some(index),
            },
            Err(_) => Op {
                group: index,
                latency_ms,
                ok: false,
                misread: None,
            },
        }
    }
}

/// What a measured loop produced.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Every op's latency, in completion order per client.
    pub latencies_ms: Vec<f64>,
    /// Every op's group, in the same order.
    pub groups: Vec<usize>,
    /// Ops that errored or deviated from the reference.
    pub failed: u64,
    /// Ops whose readout differs from the true MAC count.
    pub misreads: u64,
    /// Distinct op-table entries among `misreads`.
    pub misread_ops: BTreeSet<usize>,
    /// Wall time of the loop.
    pub elapsed_s: f64,
}

impl Samples {
    fn push(&mut self, op: Op) {
        self.latencies_ms.push(op.latency_ms);
        self.groups.push(op.group);
        self.failed += u64::from(!op.ok);
        if let Some(index) = op.misread {
            self.misreads += 1;
            self.misread_ops.insert(index);
        }
    }

    /// Folds in a loop that ran concurrently with this one.
    pub fn merge(&mut self, other: Samples) {
        self.latencies_ms.extend(other.latencies_ms);
        self.groups.extend(other.groups);
        self.failed += other.failed;
        self.misreads += other.misreads;
        self.misread_ops.extend(other.misread_ops);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Ops issued.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Successful ops per host second.
    pub fn throughput(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.elapsed_s
    }

    /// The ops the timing metrics are taken from, by `timing`.
    pub fn timed(&self, timing: Timing) -> Timed {
        match timing {
            Timing::WholeRun => Timed {
                latencies_ms: self.latencies_ms.clone(),
                throughput: self.throughput(),
            },
            Timing::Fastest { clients } => {
                let mut by_group: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
                for (&group, &ms) in self.groups.iter().zip(&self.latencies_ms) {
                    by_group.entry(group).or_default().push(ms);
                }
                let mut kept = Vec::new();
                for mut reps in by_group.into_values() {
                    reps.sort_by(f64::total_cmp);
                    let keep = (reps.len() / FASTEST_ONE_IN).max(1);
                    kept.extend_from_slice(&reps[..keep]);
                }
                let busy_s = kept.iter().sum::<f64>() / 1e3;
                Timed {
                    throughput: f64::from(clients) * kept.len() as f64 / busy_s,
                    latencies_ms: kept,
                }
            }
        }
    }
}

/// Which ops of a loop its timing metrics are taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Every op of the loop.
    WholeRun,
    /// The fastest one in [`FASTEST_ONE_IN`] of each group's ops (at
    /// least one). On a shared host other tenants slow whole stretches of
    /// a run (by up to 2× on a shared 2-core VM); ops of one group repeat
    /// the same work, so the fastest of them are what the program itself
    /// costs. Keeping the same share of every group keeps the run's op
    /// mix.
    Fastest {
        /// Closed-loop clients that issued the ops concurrently.
        clients: u32,
    },
}

/// [`Timing::Fastest`] keeps one in this many ops of each group.
pub const FASTEST_ONE_IN: usize = 20;

/// The latencies and throughput the timing metrics are computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Latencies of the kept ops.
    pub latencies_ms: Vec<f64>,
    /// Ops per host second: successful ops over the loop's wall time for
    /// [`Timing::WholeRun`]; for [`Timing::Fastest`], clients over
    /// the kept ops' mean latency (the rate of a closed loop running at
    /// that latency).
    pub throughput: f64,
}

/// Issues ops back to back (a closed loop) until `seconds` have passed.
pub fn closed_loop(seconds: f64, mut next: impl FnMut() -> Op) -> Samples {
    let start = Instant::now();
    let mut samples = Samples::default();
    while start.elapsed().as_secs_f64() < seconds {
        samples.push(next());
    }
    samples.elapsed_s = start.elapsed().as_secs_f64();
    samples
}

/// Length of one slice of [`alternating`].
const SLICE_S: f64 = 1.0;

/// The untraced and the traced loop of a `--trace 1` run, alternated in
/// slices of about a second until each has run for `seconds`, so that
/// drift in host speed hits both alike. `next(traced)` issues one op of
/// the named loop. Returns `[untraced, traced]`.
pub fn alternating(seconds: f64, mut next: impl FnMut(bool) -> Op) -> [Samples; 2] {
    let slices = (seconds / SLICE_S).ceil().max(1.0);
    let slice = seconds / slices;
    let mut loops = [Samples::default(), Samples::default()];
    for _ in 0..slices as usize {
        for (traced, samples) in loops.iter_mut().enumerate() {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < slice {
                samples.push(next(traced == 1));
            }
            samples.elapsed_s += start.elapsed().as_secs_f64();
        }
    }
    loops
}

/// Builds a workload's system `reps` times, timing each build, and keeps
/// the last. Each earlier one is handed to `retire` before the next build
/// starts, so only one lives at a time.
///
/// # Errors
///
/// The first failed build.
pub fn timed_setups<S>(
    reps: usize,
    mut build: impl FnMut() -> Result<S, String>,
    mut retire: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            retire(previous);
        }
        let start = Instant::now();
        kept = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Endless op-table indices: pass after pass over `0..n`, each pass a
/// fresh permutation drawn from `(seed, stream, pass)`.
#[derive(Debug, Clone)]
pub struct Passes {
    n: usize,
    seed: u64,
    pass: u64,
    order: Vec<usize>,
}

impl Passes {
    /// Passes over a table of `n` ops for one seed and stream (a stream
    /// per concurrent client).
    pub fn new(n: usize, seed: u64, stream: u64) -> Passes {
        Passes {
            n,
            seed: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
            pass: 0,
            order: Vec::new(),
        }
    }
}

impl Iterator for Passes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.order.is_empty() {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ self.pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            self.order = (0..self.n).collect();
            self.order.shuffle(&mut rng);
            self.order.reverse();
            self.pass += 1;
        }
        self.order.pop()
    }
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The traced loop of a `--trace 1` run.
#[derive(Debug)]
pub struct Traced {
    /// The traced loop's ops.
    pub samples: Samples,
    /// Per-layer metrics derived from its telemetry.
    pub layers: Layers,
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Every set-up's outputs matched the reference.
    pub setup_ok: bool,
    /// The untraced loop: the end-to-end measurement.
    pub measured: Samples,
    /// Which of its ops the timing metrics are taken from.
    pub timing: Timing,
    /// The traced loop, in `--trace 1` runs.
    pub traced: Option<Traced>,
    /// Workload parameters, for the provenance record.
    pub params: Value,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(n: usize, seed: u64, stream: u64, count: usize) -> Vec<usize> {
        Passes::new(n, seed, stream).take(count).collect()
    }

    #[test]
    fn passes_cover_the_table_once_per_pass() {
        let ops = first(63, 7, 0, 126);
        for pass in ops.chunks(63) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..63).collect::<Vec<_>>());
        }
        assert_ne!(ops[..63], ops[63..], "each pass is a fresh permutation");
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        assert_eq!(first(63, 7, 0, 200), first(63, 7, 0, 200));
        assert_ne!(first(63, 7, 0, 200), first(63, 8, 0, 200));
        assert_ne!(first(63, 7, 0, 200), first(63, 7, 1, 200));
    }

    #[test]
    fn alternating_gives_each_loop_its_share_of_the_time() {
        let mut calls = [0u32; 2];
        let [untraced, traced] = alternating(0.05, |t| {
            calls[usize::from(t)] += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            Op {
                group: 0,
                latency_ms: 1.0,
                ok: !t,
                misread: None,
            }
        });
        assert!(untraced.elapsed_s >= 0.05 && traced.elapsed_s >= 0.05);
        assert_eq!(untraced.attempted(), u64::from(calls[0]));
        assert_eq!((untraced.failed, traced.failed), (0, traced.attempted()));
    }

    #[test]
    fn fastest_keeps_one_in_twenty_of_each_group_and_at_least_one() {
        let mut samples = Samples::default();
        // Group 0 forty times (10..=49 ms), group 1 three times.
        for ms in (10..50).rev() {
            samples.push(Op {
                group: 0,
                latency_ms: f64::from(ms),
                ok: true,
                misread: None,
            });
        }
        for ms in [7.0, 5.0, 6.0] {
            samples.push(Op {
                group: 1,
                latency_ms: ms,
                ok: true,
                misread: None,
            });
        }
        samples.elapsed_s = 1.0;
        let best = samples.timed(Timing::Fastest { clients: 1 });
        assert_eq!(best.latencies_ms, vec![10.0, 11.0, 5.0]);
        assert_eq!(best.throughput, 3.0 / 0.026);
        let two = samples.timed(Timing::Fastest { clients: 2 });
        assert_eq!(two.throughput, 2.0 * best.throughput);
        let whole = samples.timed(Timing::WholeRun);
        assert_eq!((whole.latencies_ms.len(), whole.throughput), (43, 43.0));
    }

    #[test]
    fn timed_setups_keeps_the_last_build_and_retires_the_rest() {
        let mut built = 0;
        let mut retired = Vec::new();
        let (kept, times) = timed_setups(
            3,
            || {
                built += 1;
                Ok(built)
            },
            |s| retired.push(s),
        )
        .expect("builds succeed");
        assert_eq!((kept, times.len(), retired), (3, 3, vec![1, 2]));
    }
}
