//! `readout` and `wide_row`: full-row transient MAC readouts in a closed
//! loop on one thread, through one reused solver `Workspace`.

use crate::check::{self, MacEntry, MacReference, Reading};
use crate::harness::{
    alternating, closed_loop, timed_setups, Op, Opts, Outcome, Passes, Timing, Traced,
};
use crate::host::CoreRotation;
use crate::layers::{self, ratio};
use crate::trace::Tracer;
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::Adc;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray, MacRequest};
use ferrocim_spice::sweep::temperature_sweep;
use ferrocim_spice::Workspace;
use ferrocim_telemetry::Telemetry;
use ferrocim_units::{Celsius, Farad};
use serde_json::json;
use std::time::Instant;

/// A row workload: geometry, op table and set-up.
#[derive(Debug)]
pub struct RowSpec {
    /// Workload name.
    pub name: &'static str,
    /// Cells per row.
    pub cells: usize,
    /// MAC levels of the op table (active inputs over all-ones weights).
    pub levels: &'static [usize],
    /// Temperatures of the op table.
    pub temps_c: &'static [f64],
    /// Quantize with the gap-centred ADC calibrated over 0–85 °C.
    pub adc: bool,
    /// Set-ups timed per run (their median is `setup_s`).
    pub setup_reps: usize,
}

/// The paper's 8-cell row: every level at seven temperatures from 0 to
/// 85 °C. The solver runs its dense path (37 unknowns).
pub const READOUT: RowSpec = RowSpec {
    name: "readout",
    cells: 8,
    levels: &[0, 1, 2, 3, 4, 5, 6, 7, 8],
    temps_c: &[0.0, 15.0, 27.0, 40.0, 55.0, 70.0, 85.0],
    adc: true,
    setup_reps: 15,
};

/// A 256-cell row (1029 unknowns): wide enough that the solver picks
/// its sparse backend, so factorization rather than device evaluation
/// carries the work.
pub const WIDE_ROW: RowSpec = RowSpec {
    name: "wide_row",
    cells: 256,
    levels: &[64, 128, 192, 256],
    temps_c: &[0.0, 27.0, 85.0],
    adc: false,
    setup_reps: 3,
};

type Array = CimArray<TwoTransistorOneFefet>;

struct Row {
    array: Array,
    adc: Option<Adc>,
    ws: Workspace,
}

impl RowSpec {
    fn op_count(&self) -> usize {
        self.levels.len() * self.temps_c.len()
    }

    /// `(level, temperature)` of op-table entry `index`.
    fn op(&self, index: usize) -> (usize, f64) {
        let n = self.levels.len();
        (self.levels[index % n], self.temps_c[index / n])
    }

    fn op_names(&self) -> Vec<String> {
        (0..self.op_count())
            .map(|i| {
                let (level, temp_c) = self.op(i);
                format!("level={level} temp_c={temp_c}")
            })
            .collect()
    }

    /// Array build, ADC calibration, and one readout that pays the
    /// workspace allocation and (on the sparse path) symbolic analysis.
    fn setup(&self, telemetry: &Telemetry) -> Result<Row, String> {
        let base = ArrayConfig::paper_default();
        // C_acc grows with the row, 1 fF per cell as in `probe_sparse`;
        // at 8 cells this is the paper's 8 fF.
        let config = ArrayConfig {
            cells_per_row: self.cells,
            c_acc: Farad(self.cells as f64 * base.c_o.value()),
            ..base
        };
        let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)
            .map_err(|e| e.to_string())?
            .with_recorder(telemetry.clone());
        let adc = if self.adc {
            Some(Adc::calibrate_over(&array, &temperature_sweep(8)).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let mut row = Row {
            array,
            adc,
            ws: Workspace::new(),
        };
        let (level, temp_c) = self.op(0);
        row.read(level, temp_c).1?;
        Ok(row)
    }

    fn check_setup(&self, row: &Row, reference: &MacReference) -> bool {
        check::setup_matches(&row.setup_mv(), &reference.setup_mv)
    }
}

impl Row {
    /// The set-up's analog outputs: the ADC thresholds, mV.
    fn setup_mv(&self) -> Vec<f64> {
        self.adc
            .iter()
            .flat_map(|adc| adc.thresholds())
            .map(|v| v.value() * 1e3)
            .collect()
    }

    /// One timed `CimArray::run_in`.
    fn read(&mut self, level: usize, temp_c: f64) -> (f64, Result<Reading, String>) {
        let (weights, inputs) = mac_operands(self.array.config().cells_per_row, level);
        let request = MacRequest::new(&inputs)
            .weights(&weights)
            .at(Celsius(temp_c));
        let telemetry = self.array.telemetry().clone();
        let span = telemetry.span("bench.run_in");
        let start = Instant::now();
        let out = self.array.run_in(&request, &mut self.ws);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        let reading = out.map_err(|e| e.to_string()).map(|out| Reading {
            expected: out.expected,
            readout: self.adc.as_ref().map(|adc| adc.quantize(out.v_acc)),
            v_acc_mv: out.v_acc.value() * 1e3,
            energy_fj: out.energy.value() * 1e15,
        });
        (latency_ms, reading)
    }

    /// Op-table entry `index`, checked against its reference.
    fn op(&mut self, spec: &RowSpec, reference: &MacReference, index: usize) -> Op {
        let (level, temp_c) = spec.op(index);
        let (latency_ms, reading) = self.read(level, temp_c);
        Op::checked(latency_ms, reading, &reference.ops[index].out, index)
    }
}

/// Runs a row workload.
///
/// # Errors
///
/// A missing or stale reference, or a failed set-up.
pub fn run(spec: &RowSpec, opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let reference: MacReference = check::load(spec.name)?;
    check::same_table(spec.name, &reference.op_names(), &spec.op_names())?;
    let params = json!({
        "cells_per_row": (spec.cells),
        "levels": (spec.levels.to_vec()),
        "temps_c": (spec.temps_c.to_vec()),
        "mac_path": "transient",
        "adc": (if spec.adc { "gap-centred over 0-85 C" } else { "none" }),
        "setup_reps": (spec.setup_reps)
    });
    let Some(tracer) = tracer else {
        let mut setup_ok = true;
        let (mut row, setup_s) = timed_setups(
            spec.setup_reps,
            || spec.setup(&Telemetry::off()),
            |row| setup_ok &= spec.check_setup(&row, &reference),
        )?;
        setup_ok &= spec.check_setup(&row, &reference);
        let mut order = Passes::new(spec.op_count(), opts.seed, 0);
        let mut cores = CoreRotation::start();
        let measured = closed_loop(opts.seconds, || {
            cores.tick();
            row.op(spec, &reference, order.next().expect("passes never end"))
        });
        return Ok(Outcome {
            setup_s,
            setup_ok,
            measured,
            timing: Timing::Fastest { clients: 1 },
            traced: None,
            params,
        });
    };
    let start = Instant::now();
    let mut row = spec.setup(&tracer.telemetry())?;
    let setup_s = vec![start.elapsed().as_secs_f64()];
    let setup_ok = spec.check_setup(&row, &reference);
    let setup = tracer.phase();
    // `row.array` is traced; `other` is the array of the loop not running.
    let mut other = row.array.clone().with_recorder(Telemetry::off());
    let mut traced_now = true;
    let mut orders = [0, 1].map(|_| Passes::new(spec.op_count(), opts.seed, 0));
    let [measured, samples] = alternating(opts.seconds, |traced| {
        if traced != traced_now {
            std::mem::swap(&mut row.array, &mut other);
            traced_now = traced;
        }
        let index = orders[usize::from(traced)].next();
        row.op(spec, &reference, index.expect("passes never end"))
    });
    let phase = tracer.phase();
    let mut layers = layers::derive(&setup, &phase, &samples, "bench.run_in");
    let ops = samples.attempted() as f64;
    layers.insert(
        "cim.self_ms_per_op",
        ratio(
            phase.span_ms("bench.run_in") - phase.span_ms("spice.transient"),
            ops,
        ),
    );
    Ok(Outcome {
        setup_s,
        setup_ok,
        measured,
        timing: Timing::Fastest { clients: 1 },
        traced: Some(Traced { samples, layers }),
        params,
    })
}

/// Records the reference: every op of the table once, in table order.
///
/// # Errors
///
/// A failed set-up or readout.
pub fn record(spec: &RowSpec) -> Result<MacReference, String> {
    let mut row = spec.setup(&Telemetry::off())?;
    let setup_mv = row.setup_mv();
    let ops = spec
        .op_names()
        .into_iter()
        .enumerate()
        .map(|(index, op)| {
            let (level, temp_c) = spec.op(index);
            let out = row.read(level, temp_c).1?;
            Ok(MacEntry { op, out })
        })
        .collect::<Result<_, String>>()?;
    Ok(MacReference { setup_mv, ops })
}
