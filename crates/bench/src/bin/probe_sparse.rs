//! Probe: sparse KLU-style MNA factorization vs. the dense LU baseline
//! over a row-width sweep (DESIGN.md §14).
//!
//! Builds the full-row MAC readout netlist at widths from a single cell
//! up to a VGG-scale 512, DC-solves each through both
//! [`ferrocim_spice::SolverConfig`] backends, and reports wall clock,
//! the dense-to-sparse speedup, and the max-norm node-voltage parity.
//! The dense path is skipped above [`DENSE_LIMIT`] cells where its
//! cubic cost stops being worth timing.
//!
//! Up to [`TRANSIENT_LIMIT`] cells the probe also times the steady
//! state of the transient MAC readout — the workload the `Auto`
//! selection serves in practice — as wall clock per Newton iteration
//! on each backend, with the two backends' repetitions interleaved.
//! The narrowest width from which sparse wins (ratio at most
//! [`WIN_RATIO`]) at every wider timed width is the measured crossover
//! that [`SolverConfig::AUTO_SPARSE_THRESHOLD`] is set from, and the probe
//! fails unless sparse costs at most [`ITER_RATIO_BOUND`] of dense per
//! iteration at the paper's 8-cell row. Only that same-run ratio is
//! gated; absolute times are reported.
//!
//! The sweep tops out with a sparse-only 512-cell row plus one
//! end-to-end 512-cell transient MAC whose factor counters demonstrate
//! the single symbolic analysis being reused across every Newton
//! iteration; that transient is the only traced section. Dumps
//! `results/probe_sparse.json`.

use ferrocim_bench::schema::{LargeRowMac, SparseProbe, SparseWidthPoint};
use ferrocim_bench::{dump_json, print_table};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray, MacRequest};
use ferrocim_spice::{Circuit, DcAnalysis, NodeId, SolverConfig, Workspace};
use ferrocim_telemetry::{Aggregator, Telemetry};
use ferrocim_units::Farad;
use std::sync::Arc;
use std::time::Instant;

/// Row widths swept, from a single cell through the paper's 8-cell
/// array to a VGG-scale layer row.
const WIDTHS: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// The paper's row width, where the per-iteration ratio is gated.
const PAPER_CELLS: usize = 8;

/// Widest row whose transient readout is timed per Newton iteration.
const TRANSIENT_LIMIT: usize = 32;

/// Timed transient readouts per backend at each width, interleaved.
const TRANSIENT_REPS: usize = 15;

/// Largest tolerated sparse/dense per-iteration wall-clock ratio at the
/// paper's 8-cell row.
const ITER_RATIO_BOUND: f64 = 0.8;

/// Per-iteration ratio at or below which a width counts as a sparse
/// win for the crossover; a closer result is a tie, and a tie stays
/// dense (it has no symbolic analysis to pay).
const WIN_RATIO: f64 = 0.9;

/// Widest row the dense backend is timed at; past this its cubic
/// factorization dominates the probe's runtime without adding signal.
const DENSE_LIMIT: usize = 256;

/// Max-norm node-voltage disagreement tolerated between the backends.
const PARITY_BOUND: f64 = 1e-10;

/// A row array scaled to `cells` columns: `C_acc` grows with the row
/// (≈1 fF per cell, as the shared capacitor would in layout) and the
/// timestep stays at the paper default.
fn scaled_array(cells: usize) -> Result<CimArray<TwoTransistorOneFefet>, ferrocim_cim::CimError> {
    let base = ArrayConfig::paper_default();
    let config = ArrayConfig {
        cells_per_row: cells,
        c_acc: Farad(cells as f64 * base.c_o.value()),
        ..base
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config)
}

/// Every distinct node referenced by the circuit's elements (ground
/// excluded), for the parity comparison.
fn circuit_nodes(ckt: &Circuit) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = ckt
        .elements()
        .iter()
        .flat_map(|el| el.nodes())
        .filter(|n| !n.is_ground())
        .collect();
    nodes.sort();
    nodes.dedup();
    nodes
}

/// MNA unknowns of the netlist: non-ground nodes plus one branch
/// current per voltage source.
fn unknown_count(ckt: &Circuit) -> usize {
    let sources = ckt
        .elements()
        .iter()
        .filter(|el| matches!(el, ferrocim_spice::Element::VoltageSource { .. }))
        .count();
    ckt.node_count() - 1 + sources
}

/// Times the full DC Newton solve under one backend, returning the
/// best-of-`reps` wall clock and the converged operating point.
fn time_dc(
    ckt: &Circuit,
    config: SolverConfig,
    reps: usize,
) -> Result<(f64, ferrocim_spice::OperatingPoint), ferrocim_spice::SpiceError> {
    let mut best = f64::INFINITY;
    let mut op = None;
    for _ in 0..reps {
        // A fresh workspace per rep so each timing includes the
        // backend's full symbolic + numeric cost, not a warm rerun.
        let mut ws = Workspace::with_solver(config);
        let start = Instant::now();
        let solved = DcAnalysis::new(ckt).solve_in(&mut ws)?;
        best = best.min(start.elapsed().as_secs_f64());
        op = Some(solved);
    }
    Ok((best * 1e6, op.expect("reps > 0")))
}

/// The median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Steady-state wall clock per Newton iteration of the `cells`-wide
/// transient MAC readout on the dense and the sparse backend, in
/// microseconds (medians over [`TRANSIENT_REPS`]). Each backend keeps
/// one warm workspace: an untimed run pays the allocation and symbolic
/// analysis, a second untimed run counts the Newton iterations through
/// an aggregator, then the timed runs alternate dense and sparse so
/// machine-load drift lands on both sides.
fn time_transient_iterations(cells: usize) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
    let request = MacRequest::new(&inputs).weights(&weights);
    let array = scaled_array(cells)?;
    let mut workspaces = [
        Workspace::with_solver(SolverConfig::dense()),
        Workspace::with_solver(SolverConfig::sparse()),
    ];
    let mut iterations = [0u64; 2];
    for (ws, iters) in workspaces.iter_mut().zip(&mut iterations) {
        array.run_in(&request, ws)?;
        let agg = Arc::new(Aggregator::new());
        scaled_array(cells)?
            .with_recorder(Telemetry::new(agg.clone()))
            .run_in(&request, ws)?;
        *iters = agg.counts().newton_iters;
    }
    let mut per_iter_us = [Vec::new(), Vec::new()];
    for _ in 0..TRANSIENT_REPS {
        for b in 0..2 {
            let start = Instant::now();
            array.run_in(&request, &mut workspaces[b])?;
            let wall_us = start.elapsed().as_secs_f64() * 1e6;
            per_iter_us[b].push(wall_us / iterations[b] as f64);
        }
    }
    let [dense, sparse] = per_iter_us;
    Ok((median(dense), median(sparse)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    println!("# Probe — sparse vs. dense MNA factorization over row width\n");

    let mut widths = Vec::with_capacity(WIDTHS.len());
    let mut parity_ok = true;
    let mut rows = Vec::new();
    for &cells in WIDTHS {
        let array = scaled_array(cells)?;
        let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
        let (ckt, _acc, _t_stop) = array.readout_circuit(&weights, &inputs)?;
        let unknowns = unknown_count(&ckt);
        let reps = if cells <= 64 { 3 } else { 1 };
        let (sparse_us, sparse_op) = time_dc(&ckt, SolverConfig::sparse(), reps)?;
        let (dense_us, max_delta_v) = if cells <= DENSE_LIMIT {
            let (us, dense_op) = time_dc(&ckt, SolverConfig::dense(), reps)?;
            let delta = circuit_nodes(&ckt)
                .iter()
                .map(|&n| (dense_op.voltage(n).value() - sparse_op.voltage(n).value()).abs())
                .fold(0.0f64, f64::max);
            parity_ok &= delta <= PARITY_BOUND;
            (Some(us), Some(delta))
        } else {
            (None, None)
        };
        let speedup = dense_us.map(|d| d / sparse_us);
        let iter_us = if cells <= TRANSIENT_LIMIT {
            Some(time_transient_iterations(cells)?)
        } else {
            None
        };
        let iter_ratio = iter_us.map(|(dense, sparse)| sparse / dense);
        let opt = |v: Option<f64>, f: &dyn Fn(f64) -> String| v.map_or("-".into(), f);
        rows.push(vec![
            cells.to_string(),
            unknowns.to_string(),
            opt(dense_us, &|u| format!("{u:.1}")),
            format!("{sparse_us:.1}"),
            opt(speedup, &|s| format!("{s:.2}x")),
            opt(max_delta_v, &|d| format!("{d:.2e}")),
            opt(iter_us.map(|i| i.0), &|u| format!("{u:.2}")),
            opt(iter_us.map(|i| i.1), &|u| format!("{u:.2}")),
            opt(iter_ratio, &|r| format!("{r:.2}")),
        ]);
        widths.push(SparseWidthPoint {
            cells_per_row: cells,
            unknowns,
            dense_wall_us: dense_us,
            sparse_wall_us: sparse_us,
            speedup,
            max_delta_v,
            dense_iter_us: iter_us.map(|i| i.0),
            sparse_iter_us: iter_us.map(|i| i.1),
            iter_ratio,
        });
    }
    print_table(
        &[
            "cells",
            "unknowns",
            "DC dense [us]",
            "DC sparse [us]",
            "DC speedup",
            "max |dV|",
            "dense [us/iter]",
            "sparse [us/iter]",
            "sparse/dense",
        ],
        &rows,
    );
    println!(
        "\nparity bound {PARITY_BOUND:.0e}: {}",
        if parity_ok { "ok" } else { "VIOLATED" }
    );
    // The crossover: the narrowest timed width from which sparse wins
    // per transient Newton iteration at every wider timed width.
    let timed: Vec<&SparseWidthPoint> = widths.iter().filter(|w| w.iter_ratio.is_some()).collect();
    let first_sparse_win = timed
        .iter()
        .rposition(|w| w.iter_ratio.is_some_and(|r| r > WIN_RATIO))
        .map_or(0, |last_non_win| last_non_win + 1);
    let crossover_unknowns = timed.get(first_sparse_win).map(|w| w.unknowns);
    let paper_ratio = widths
        .iter()
        .find(|w| w.cells_per_row == PAPER_CELLS)
        .and_then(|w| w.iter_ratio)
        .expect("the paper row is transient-timed");
    let iter_ratio_ok = paper_ratio <= ITER_RATIO_BOUND;
    println!(
        "transient per-iteration crossover: sparse wins from {} unknowns \
         (Auto threshold {}); {PAPER_CELLS}-cell sparse/dense = {paper_ratio:.2} \
         (bound {ITER_RATIO_BOUND}): {}",
        crossover_unknowns.map_or("-".into(), |u| u.to_string()),
        SolverConfig::AUTO_SPARSE_THRESHOLD,
        if iter_ratio_ok { "ok" } else { "VIOLATED" }
    );

    // End-to-end: one VGG-scale row simulated as a single transient
    // MAC through the sparse backend. The factor counters prove the
    // symbolic analysis is reused across every Newton iteration and
    // step: one analysis (the `t = 0` DC solve already stamps the
    // capacitor entries as structural zeros, so the transient keeps its
    // pattern) against a thousand numeric refactorizations.
    let cells = *WIDTHS.last().expect("widths non-empty");
    let array = scaled_array(cells)?.with_recorder(trace.telemetry());
    let (weights, inputs) = mac_operands(cells, cells / 2 + 1);
    let request = MacRequest::new(&inputs).weights(&weights);
    let mut ws = Workspace::with_solver(SolverConfig::sparse());
    let start = Instant::now();
    let out = array.run_in(&request, &mut ws)?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (symbolic, numeric) = ws
        .sparse_factor_counts()
        .expect("the sparse backend was selected");
    println!(
        "\n{cells}-cell transient MAC: V_acc = {:.3} mV (expected count {}), \
         {wall_ms:.1} ms, {symbolic} symbolic / {numeric} numeric factorizations",
        out.v_acc.value() * 1e3,
        out.expected,
    );

    let probe = SparseProbe {
        widths,
        parity_bound: PARITY_BOUND,
        parity_ok,
        crossover_unknowns,
        auto_sparse_threshold: SolverConfig::AUTO_SPARSE_THRESHOLD,
        iter_ratio_bound: ITER_RATIO_BOUND,
        iter_ratio_ok,
        large_row: LargeRowMac {
            cells_per_row: cells,
            v_acc_mv: out.v_acc.value() * 1e3,
            expected: out.expected,
            wall_ms,
            symbolic_analyses: symbolic,
            numeric_factorizations: numeric,
        },
    };
    let path = dump_json("probe_sparse", &probe)?;
    println!("wrote {}", path.display());
    trace.finish()?;
    if !iter_ratio_ok {
        return Err(format!(
            "sparse/dense per-iteration ratio {paper_ratio:.2} at {PAPER_CELLS} cells \
             exceeds {ITER_RATIO_BOUND}"
        )
        .into());
    }
    Ok(())
}
