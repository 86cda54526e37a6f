//! Batched MAC execution: one row netlist, many input vectors.
//!
//! [`CimArray::run`] rebuilds the row circuit and reallocates the
//! solver workspace on every call. An [`ArrayEngine`] is the batched
//! counterpart for workloads that evaluate the *same stored weights*
//! against many input vectors and temperatures (bit-serial NN layers,
//! range tables, temperature sweeps):
//!
//! * the row netlist is built **once** per engine and retargeted to
//!   each input vector by rewriting the word-line waveforms in place;
//! * each worker thread reuses a single solver [`Workspace`] and one
//!   circuit clone across its whole chunk of jobs (the scoped-thread
//!   fan-out shared with [`ferrocim_spice::MonteCarlo`]);
//! * duplicate `(inputs, temperature)` jobs are simulated once and the
//!   result is fanned back out to every requesting slot.
//!
//! Results are bitwise identical to looping [`CimArray::run`] over the
//! same jobs: retargeting rewrites exactly the waveform the builder
//! would have installed, and no solver state is carried between jobs.

use crate::array::{CimArray, MacOutput, MacPath, MacRequest};
use crate::cells::{CellDesign, CellOffsets, CellWeight};
use crate::CimError;
use ferrocim_spice::{
    apply_policy, fan_out, try_fan_out, Budget, Circuit, FailurePolicy, FanOutError, FanOutReport,
    JobError, NodeId, SolveEnv, SolverConfig, Workspace,
};
use ferrocim_telemetry::{Event, Telemetry};
use ferrocim_units::Celsius;

/// A reusable batched-MAC executor over one set of stored weights.
///
/// Build it once per weight vector, then feed it slices of input
/// vectors with [`ArrayEngine::mac_batch`] (one temperature) or
/// [`ArrayEngine::mac_batch_grid`] (a temperature grid).
///
/// # Examples
///
/// ```
/// use ferrocim_cim::cells::TwoTransistorOneFefet;
/// use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray};
/// use ferrocim_units::Celsius;
///
/// # fn main() -> Result<(), ferrocim_cim::CimError> {
/// let array = CimArray::new(
///     TwoTransistorOneFefet::paper_default(),
///     ArrayConfig::paper_default(),
/// )?;
/// let engine = ArrayEngine::new(&array, &[true; 8])?;
/// let inputs: Vec<Vec<bool>> = (0..4)
///     .map(|k| (0..8).map(|i| i < k).collect())
///     .collect();
/// let outs = engine.mac_batch(&inputs, Celsius::ROOM)?;
/// assert_eq!(outs.len(), 4);
/// assert!(outs[3].v_acc > outs[1].v_acc);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ArrayEngine<'a, C> {
    array: &'a CimArray<C>,
    weights: Vec<CellWeight>,
    offsets: Vec<CellOffsets>,
    base: Circuit,
    outs: Vec<NodeId>,
    acc: NodeId,
    parallel: bool,
    /// The array's solve environment, cloned at construction; the
    /// engine's own setters override its budget, telemetry and solver.
    env: SolveEnv,
}

impl<'a, C: CellDesign> ArrayEngine<'a, C> {
    /// Creates an engine for binary stored weights on nominal devices.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] if `weights` does not
    /// match the row width, or propagates netlist-construction
    /// failures.
    pub fn new(array: &'a CimArray<C>, weights: &[bool]) -> Result<Self, CimError> {
        let weighted: Vec<CellWeight> = weights.iter().map(|&b| CellWeight::Bit(b)).collect();
        let offsets = vec![CellOffsets::NOMINAL; array.config().cells_per_row];
        Self::weighted(array, &weighted, &offsets)
    }

    /// Creates an engine for multi-level stored weights with explicit
    /// per-cell variation offsets (one Monte-Carlo draw held fixed for
    /// the whole batch).
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::new`]; additionally if `offsets` has the wrong
    /// length.
    pub fn weighted(
        array: &'a CimArray<C>,
        weights: &[CellWeight],
        offsets: &[CellOffsets],
    ) -> Result<Self, CimError> {
        let n = array.config().cells_per_row;
        if weights.len() != n || offsets.len() != n {
            return Err(CimError::MismatchedOperands {
                weights: weights.len(),
                inputs: offsets.len(),
                cells_per_row: n,
            });
        }
        // The base netlist is built against the all-off input vector;
        // every job rewrites the word-line waveforms before solving.
        let idle = vec![false; n];
        let (base, outs, acc) = array.build_row_circuit(weights, &idle, offsets)?;
        Ok(ArrayEngine {
            array,
            weights: weights.to_vec(),
            offsets: offsets.to_vec(),
            base,
            outs,
            acc,
            parallel: true,
            env: array.env().clone(),
        })
    }

    /// Disables the thread fan-out; jobs run on the calling thread.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Attaches a resource [`Budget`] governing every batch: one step
    /// is charged per unique simulation, every Newton iteration counts
    /// against the shared pool, and a deadline or cancellation aborts
    /// the fan-out with a typed error. By default the engine inherits
    /// the array's budget (the two then share one spend pool).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.env.budget = budget;
        self
    }

    /// Attaches a telemetry handle: each batch emits one
    /// [`Event::MacIssued`] carrying the requested job count and the
    /// number of unique simulations actually solved, and every
    /// underlying transient solve reports through the same handle. By
    /// default the engine inherits the array's handle.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.env.telemetry = telemetry;
        self
    }

    /// Selects the linear-solver backend for every worker-thread
    /// [`Workspace`] (see [`SolverConfig`]). By default the engine
    /// inherits the array's selection; the sparse backend runs one
    /// symbolic analysis per worker and reuses it across the worker's
    /// whole chunk of jobs — the row topology never changes in a batch.
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.env.solver = Some(solver);
        self
    }

    /// A fresh worker workspace on the engine's solver selection.
    fn workspace(&self) -> Workspace {
        Workspace::with_solver(self.env.solver.unwrap_or_default())
    }

    /// The stored weights this engine was built for.
    pub fn weights(&self) -> &[CellWeight] {
        &self.weights
    }

    /// Runs one full-transient MAC per input vector at a single
    /// temperature. Output `i` corresponds to `inputs[i]` and is
    /// bitwise identical to the equivalent [`CimArray::run`] call.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] for an input vector of
    /// the wrong width, or propagates simulation failures.
    pub fn mac_batch(&self, inputs: &[Vec<bool>], temp: Celsius) -> Result<Vec<MacOutput>, CimError>
    where
        C: Sync,
    {
        let jobs: Vec<(usize, Celsius)> = (0..inputs.len()).map(|i| (i, temp)).collect();
        self.run_jobs(inputs, &jobs)
    }

    /// Runs the full `temps × inputs` grid: `grid[t][i]` is the MAC of
    /// `inputs[i]` at `temps[t]`.
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::mac_batch`]; additionally
    /// [`CimError::EmptySweep`] for an empty temperature list.
    pub fn mac_batch_grid(
        &self,
        inputs: &[Vec<bool>],
        temps: &[Celsius],
    ) -> Result<Vec<Vec<MacOutput>>, CimError>
    where
        C: Sync,
    {
        if temps.is_empty() {
            return Err(CimError::EmptySweep {
                what: "temperatures",
            });
        }
        let jobs: Vec<(usize, Celsius)> = temps
            .iter()
            .flat_map(|&t| (0..inputs.len()).map(move |i| (i, t)))
            .collect();
        let mut flat = self.run_jobs(inputs, &jobs)?.into_iter();
        Ok(temps
            .iter()
            .map(|_| flat.by_ref().take(inputs.len()).collect())
            .collect())
    }

    /// Validates, deduplicates, and executes `(input, temperature)`
    /// jobs, scattering each unique simulation result back to every
    /// slot that requested it.
    fn run_jobs(
        &self,
        inputs: &[Vec<bool>],
        jobs: &[(usize, Celsius)],
    ) -> Result<Vec<MacOutput>, CimError>
    where
        C: Sync,
    {
        let n = self.array.config().cells_per_row;
        for input in inputs {
            if input.len() != n {
                return Err(CimError::MismatchedOperands {
                    weights: self.weights.len(),
                    inputs: input.len(),
                    cells_per_row: n,
                });
            }
        }
        // Identical (inputs, temperature) pairs collapse onto one
        // simulation — on repetitive workloads (bit-serial NN inputs,
        // level tables) this is where the batch throughput comes from.
        let mut unique: Vec<(usize, Celsius)> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(jobs.len());
        for &(i, t) in jobs {
            let found = unique
                .iter()
                .position(|&(j, u)| u.0.to_bits() == t.0.to_bits() && inputs[j] == inputs[i]);
            slot_of.push(found.unwrap_or_else(|| {
                unique.push((i, t));
                unique.len() - 1
            }));
        }
        let job_count = jobs.len() as u64;
        let solve_count = unique.len() as u64;
        let batch_span = self.env.telemetry.span("cim.mac_batch");
        let batch_id = batch_span.id();
        self.env.telemetry.emit(|| Event::MacIssued {
            jobs: job_count,
            solves: solve_count,
        });
        let results = fan_out(
            unique.len(),
            self.parallel,
            || (self.workspace(), self.base.clone()),
            |(ws, ckt), u| {
                // Parent this worker-side solve under the issuing batch
                // span: fan_out workers run on their own threads, so
                // the thread-local parent chain must be bridged by id.
                let _solve_span = self.env.telemetry.span_under("cim.row_solve", batch_id);
                self.env.budget.check()?;
                self.env.budget.charge_steps(1)?;
                let (i, t) = unique[u];
                self.array.retarget_inputs(ckt, &inputs[i])?;
                self.array.eval_row_transient(
                    ckt,
                    &self.outs,
                    self.acc,
                    &self.weights,
                    &inputs[i],
                    t,
                    &self.env,
                    ws,
                )
            },
        );
        let mut solved: Vec<MacOutput> = Vec::with_capacity(unique.len());
        for result in results {
            solved.push(result?);
        }
        Ok(slot_of.into_iter().map(|u| solved[u].clone()).collect())
    }

    /// Fault-tolerant variant of [`ArrayEngine::mac_batch`]: each input
    /// vector is one job, failures (typed errors *or* panics inside the
    /// solver) are collected per job, and `policy` decides whether the
    /// batch aborts, reports, or substitutes a fallback output.
    /// Duplicated input vectors still share one simulation — and share
    /// its outcome, success or failure.
    ///
    /// # Errors
    ///
    /// [`FanOutError::Job`] under [`FailurePolicy::FailFast`] when any
    /// job fails; [`FanOutError::TooManyFailures`] under
    /// [`FailurePolicy::SkipAndReport`] when the failure budget is
    /// exceeded. Under [`FailurePolicy::Substitute`] the call never
    /// fails.
    pub fn try_mac_batch(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
        policy: &FailurePolicy<MacOutput>,
    ) -> Result<FanOutReport<MacOutput, CimError>, FanOutError<CimError>>
    where
        C: Sync,
    {
        let n = self.array.config().cells_per_row;
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(inputs.len());
        for i in 0..inputs.len() {
            let found = unique.iter().position(|&j| inputs[j] == inputs[i]);
            slot_of.push(found.unwrap_or_else(|| {
                unique.push(i);
                unique.len() - 1
            }));
        }
        // Solve the unique jobs tolerating every failure, then scatter
        // results back to input slots and apply the caller's policy at
        // that granularity — so the failure budget counts inputs, not
        // deduplicated simulations.
        let job_count = inputs.len() as u64;
        let solve_count = unique.len() as u64;
        let batch_span = self.env.telemetry.span("cim.mac_batch");
        let batch_id = batch_span.id();
        self.env.telemetry.emit(|| Event::MacIssued {
            jobs: job_count,
            solves: solve_count,
        });
        let solved = try_fan_out(
            unique.len(),
            self.parallel,
            &FailurePolicy::SkipAndReport {
                max_failures: usize::MAX,
            },
            || (self.workspace(), self.base.clone()),
            |(ws, ckt), u| {
                let _solve_span = self.env.telemetry.span_under("cim.row_solve", batch_id);
                self.env.budget.check()?;
                self.env.budget.charge_steps(1)?;
                let i = unique[u];
                if inputs[i].len() != n {
                    return Err(CimError::MismatchedOperands {
                        weights: self.weights.len(),
                        inputs: inputs[i].len(),
                        cells_per_row: n,
                    });
                }
                self.array.retarget_inputs(ckt, &inputs[i])?;
                self.array.eval_row_transient(
                    ckt,
                    &self.outs,
                    self.acc,
                    &self.weights,
                    &inputs[i],
                    temp,
                    &self.env,
                    ws,
                )
            },
        )?;
        let results: Vec<Result<MacOutput, JobError<CimError>>> = slot_of
            .into_iter()
            .map(|u| solved.results[u].clone())
            .collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        let report = apply_policy(results, failures, policy)?;
        if matches!(policy, FailurePolicy::Substitute(_)) && report.failures > 0 {
            let substituted = report.failures as u64;
            self.env.telemetry.emit(|| Event::FaultSubstituted {
                substitute: substituted,
            });
        }
        Ok(report)
    }

    /// The per-call reference this engine accelerates: one
    /// [`CimArray::run`] per job, sharing nothing. Used by the
    /// equivalence tests and the throughput benchmark.
    ///
    /// # Errors
    ///
    /// As [`ArrayEngine::mac_batch`].
    pub fn mac_serial(
        &self,
        inputs: &[Vec<bool>],
        temp: Celsius,
    ) -> Result<Vec<MacOutput>, CimError> {
        inputs
            .iter()
            .map(|x| {
                self.array.run(
                    &MacRequest::new(x)
                        .weighted(&self.weights)
                        .at(temp)
                        .offsets(&self.offsets)
                        .path(MacPath::Transient),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::TwoTransistorOneFefet;
    use crate::ArrayConfig;
    use ferrocim_units::Second;

    const ROOM: Celsius = Celsius(27.0);

    fn small_array() -> CimArray<TwoTransistorOneFefet> {
        let config = ArrayConfig {
            cells_per_row: 4,
            dt: Second(50e-12),
            ..ArrayConfig::paper_default()
        };
        CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
    }

    fn input_set() -> Vec<Vec<bool>> {
        vec![
            vec![false; 4],
            vec![true, false, true, false],
            vec![true; 4],
            vec![true, false, true, false], // duplicate of job 1
        ]
    }

    #[test]
    fn batch_is_bitwise_identical_to_per_call_runs() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set();
        let batch = engine.mac_batch(&inputs, ROOM).unwrap();
        let serial = engine.mac_serial(&inputs, ROOM).unwrap();
        assert_eq!(batch, serial);
        // The duplicated job must also reuse the identical result.
        assert_eq!(batch[1], batch[3]);
    }

    #[test]
    fn sequential_and_parallel_batches_agree() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true, true, false, true]).unwrap();
        let inputs = input_set();
        let par = engine.mac_batch(&inputs, ROOM).unwrap();
        let seq = engine
            .clone()
            .sequential()
            .mac_batch(&inputs, ROOM)
            .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn grid_matches_per_temperature_batches() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set()[..2].to_vec();
        let temps = [Celsius(0.0), Celsius(85.0)];
        let grid = engine.mac_batch_grid(&inputs, &temps).unwrap();
        assert_eq!(grid.len(), 2);
        for (t, row) in temps.iter().zip(&grid) {
            assert_eq!(row, &engine.mac_batch(&inputs, *t).unwrap());
        }
    }

    #[test]
    fn dimension_errors_are_typed() {
        let array = small_array();
        assert!(matches!(
            ArrayEngine::new(&array, &[true; 3]),
            Err(CimError::MismatchedOperands { .. })
        ));
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        assert!(matches!(
            engine.mac_batch(&[vec![true; 5]], ROOM),
            Err(CimError::MismatchedOperands { .. })
        ));
        assert!(matches!(
            engine.mac_batch_grid(&[vec![true; 4]], &[]),
            Err(CimError::EmptySweep { .. })
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        assert_eq!(engine.mac_batch(&[], ROOM).unwrap(), vec![]);
    }

    #[test]
    fn try_batch_matches_batch_when_clean() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        let inputs = input_set();
        let report = engine
            .try_mac_batch(
                &inputs,
                ROOM,
                &FailurePolicy::SkipAndReport { max_failures: 0 },
            )
            .unwrap();
        assert!(report.is_clean());
        let reference = engine.mac_batch(&inputs, ROOM).unwrap();
        let values: Vec<MacOutput> = report.values().cloned().collect();
        assert_eq!(values, reference);
    }

    #[test]
    fn try_batch_isolates_bad_inputs_per_policy() {
        let array = small_array();
        let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
        // Job 1 has the wrong width; jobs 0 and 2 are fine.
        let inputs = vec![vec![true; 4], vec![true; 7], vec![false; 4]];
        let report = engine
            .try_mac_batch(
                &inputs,
                ROOM,
                &FailurePolicy::SkipAndReport { max_failures: 1 },
            )
            .unwrap();
        assert_eq!(report.failures, 1);
        assert!(report.results[0].is_ok());
        assert!(matches!(
            report.results[1],
            Err(JobError::Failed(CimError::MismatchedOperands { .. }))
        ));
        let reference = engine
            .mac_batch(&[inputs[0].clone(), inputs[2].clone()], ROOM)
            .unwrap();
        assert_eq!(report.results[0].as_ref().unwrap(), &reference[0]);
        assert_eq!(report.results[2].as_ref().unwrap(), &reference[1]);
        // FailFast surfaces the same failure as a batch error.
        assert!(matches!(
            engine.try_mac_batch(&inputs, ROOM, &FailurePolicy::FailFast),
            Err(FanOutError::Job { index: 1, .. })
        ));
    }
}
