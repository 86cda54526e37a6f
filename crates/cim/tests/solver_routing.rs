//! Which linear-solver backend the automatic selection gives CIM
//! circuits, and what the choice does to the readout: the paper's
//! 8-cell row (37 MNA unknowns) runs on the sparse backend and reads
//! the same as on the dense one; single-cell circuits stay dense.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::Adc;
use ferrocim_cim::{mac_operands, ArrayConfig, CimArray, MacPath, MacRequest};
use ferrocim_spice::{SolverConfig, Workspace};
use ferrocim_telemetry::SolverBackend;
use ferrocim_units::{Celsius, Volt};

/// Largest tolerated `|v_acc(sparse) − v_acc(dense)|`, volts — the
/// sparse≡dense parity bound of the solver tests.
const PARITY_BOUND: f64 = 1e-10;

fn array(cells_per_row: usize) -> CimArray<TwoTransistorOneFefet> {
    let config = ArrayConfig {
        cells_per_row,
        ..ArrayConfig::paper_default()
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
}

fn request(cells: usize, level: usize, temp_c: f64) -> (Vec<bool>, Vec<bool>, Celsius) {
    let (weights, inputs) = mac_operands(cells, level);
    (weights, inputs, Celsius(temp_c))
}

#[test]
fn the_paper_row_runs_sparse_by_default() {
    let (w, x, temp) = request(8, 5, 27.0);
    let mut ws = Workspace::new();
    array(8)
        .run_in(&MacRequest::new(&x).weights(&w).at(temp), &mut ws)
        .unwrap();
    assert_eq!(ws.solver_backend(), SolverBackend::Sparse);
    // One symbolic analysis serves the DC start and every step.
    assert_eq!(ws.sparse_factor_counts().map(|c| c.0), Some(1));
}

#[test]
fn sparse_readout_matches_dense_at_every_level_and_temperature() {
    let array = array(8);
    let mut auto_ws = Workspace::new();
    let mut dense_ws = Workspace::with_solver(SolverConfig::dense());
    let mut readouts = Vec::new();
    for temp_c in [0.0, 27.0, 85.0] {
        for level in 0..=8 {
            let (w, x, temp) = request(8, level, temp_c);
            let req = MacRequest::new(&x).weights(&w).at(temp);
            let auto = array.run_in(&req, &mut auto_ws).unwrap().v_acc;
            let dense = array.run_in(&req, &mut dense_ws).unwrap().v_acc;
            let dv = (auto.value() - dense.value()).abs();
            assert!(
                dv <= PARITY_BOUND,
                "level {level} at {temp_c} C: |dV| = {dv:e} V"
            );
            readouts.push((temp_c, auto, dense));
        }
    }
    assert_eq!(auto_ws.solver_backend(), SolverBackend::Sparse);
    assert_eq!(dense_ws.solver_backend(), SolverBackend::Dense);
    // An ADC with midpoint thresholds between the 27 C dense levels
    // gives every readout the same code on both backends.
    let levels: Vec<Volt> = readouts
        .iter()
        .filter(|(t, _, _)| *t == 27.0)
        .map(|&(_, _, dense)| dense)
        .collect();
    let adc = Adc::from_levels(levels);
    for (temp_c, auto, dense) in readouts {
        assert_eq!(
            adc.quantize(auto),
            adc.quantize(dense),
            "code differs at {temp_c} C: {auto:?} vs {dense:?}"
        );
    }
}

#[test]
fn single_cell_circuits_stay_dense() {
    // A one-cell row (9 unknowns).
    let (w, x, temp) = request(1, 1, 27.0);
    let mut ws = Workspace::new();
    array(1)
        .run_in(&MacRequest::new(&x).weights(&w).at(temp), &mut ws)
        .unwrap();
    assert_eq!(ws.solver_backend(), SolverBackend::Dense);
    // The analytic path's per-cell transients on the paper row.
    let (w, x, temp) = request(8, 3, 27.0);
    let mut ws = Workspace::new();
    array(8)
        .run_in(
            &MacRequest::new(&x)
                .weights(&w)
                .at(temp)
                .path(MacPath::Analytic),
            &mut ws,
        )
        .unwrap();
    assert_eq!(ws.solver_backend(), SolverBackend::Dense);
}
