//! Budget and cancellation behaviour of the batched CIM executors, and
//! the array's solve environment reaching its row transients.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray, CimError, Crossbar, MacRequest};
use ferrocim_spice::{
    Budget, CancelToken, FailurePolicy, FanOutError, HealthPolicy, JobError, SpiceError, Workspace,
};
use ferrocim_units::{Celsius, Second};

const ROOM: Celsius = Celsius(27.0);

fn small_array() -> CimArray<TwoTransistorOneFefet> {
    let config = ArrayConfig {
        cells_per_row: 4,
        dt: Second(50e-12),
        ..ArrayConfig::paper_default()
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
}

#[test]
fn cancelled_token_aborts_a_mac_batch() {
    let array = small_array();
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    let token = CancelToken::new();
    token.cancel();
    let engine = engine.with_budget(Budget::unlimited().with_cancel_token(&token));
    let err = engine
        .mac_batch(&[vec![true; 4], vec![false; 4]], ROOM)
        .unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
}

#[test]
fn step_budget_bounds_a_mac_batch() {
    let array = small_array();
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    // One MAC fits (the job charge plus its transient steps), a batch
    // of distinct inputs does not.
    let engine = engine.with_budget(Budget::unlimited().with_max_steps(1));
    let inputs: Vec<Vec<bool>> = (0..3).map(|k| (0..4).map(|i| i < k).collect()).collect();
    let err = engine.mac_batch(&inputs, ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::BudgetExceeded { .. })),
        "{err}"
    );
}

#[test]
fn try_mac_batch_reports_budget_failures_per_policy() {
    let array = small_array();
    let token = CancelToken::new();
    token.cancel();
    let engine = ArrayEngine::new(&array, &[true; 4])
        .unwrap()
        .sequential()
        .with_budget(Budget::unlimited().with_cancel_token(&token));
    // Under SkipAndReport a cancelled batch surfaces per-job typed
    // failures rather than panicking or hanging.
    let report = engine
        .try_mac_batch(
            &[vec![true; 4]],
            ROOM,
            &FailurePolicy::SkipAndReport {
                max_failures: usize::MAX,
            },
        )
        .unwrap();
    assert_eq!(report.failures, 1);
    assert!(matches!(
        report.results[0],
        Err(JobError::Failed(CimError::Spice(SpiceError::Cancelled)))
    ));
    // FailFast turns the same failure into a batch error.
    let err = engine
        .try_mac_batch(&[vec![true; 4]], ROOM, &FailurePolicy::FailFast)
        .unwrap_err();
    assert!(matches!(err, FanOutError::Job { .. }));
}

#[test]
fn cancelled_token_aborts_a_crossbar_matvec() {
    let config = ArrayConfig {
        dt: Second(50e-12),
        ..ArrayConfig::paper_default()
    };
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
    let xbar = Crossbar::new(array, 2).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let xbar = xbar.with_budget(Budget::unlimited().with_cancel_token(&token));
    let err = xbar.matvec(&[true; 8], ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
    let err = xbar.matvec_batch(&[vec![true; 8]], ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
}

#[test]
fn unlimited_budget_leaves_batch_results_unchanged() {
    let array = small_array();
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
    let inputs: Vec<Vec<bool>> = (0..3).map(|k| (0..4).map(|i| i < k).collect()).collect();
    let plain = engine.mac_batch(&inputs, ROOM).unwrap();
    let governed = engine
        .clone()
        .with_budget(Budget::unlimited())
        .mac_batch(&inputs, ROOM)
        .unwrap();
    assert_eq!(plain, governed);
}

#[test]
fn health_policy_reaches_the_row_transient() {
    let req = MacRequest::new(&[true; 4]).weights(&[true, false, true, false]);
    let mut ws = Workspace::new();
    small_array().run_in(&req, &mut ws).unwrap();
    assert!(
        ws.last_solve_quality().is_some(),
        "default policy certifies"
    );
    let mut ws = Workspace::new();
    small_array()
        .with_health(HealthPolicy::off())
        .run_in(&req, &mut ws)
        .unwrap();
    assert_eq!(ws.last_solve_quality(), None, "certification off");
}
