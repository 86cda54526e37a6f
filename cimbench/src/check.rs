//! Output checks against the recorded references in `reference/`.
//!
//! Every op a workload can issue comes from a finite table, and the
//! reference holds the output of each table entry as recorded on the
//! benchmark's parent code (`--record`). Digital outputs must match
//! exactly; analog outputs within the parity bounds below. An op whose
//! output deviates counts as failed. A readout that differs from the true
//! MAC count is *not* a failure when the reference reads the same: it is
//! the modelled design's error, reported as `readout_errors`.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;

/// Largest tolerated `|v_acc − v_acc_ref|` in mV (50 µV: under 1 % of
/// the 8-cell row's ≈6.6 mV level spacing).
pub const V_ACC_BOUND_MV: f64 = 0.05;

/// Largest tolerated relative energy deviation (1 %, which also bounds
/// TOPS/W, its reciprocal up to a constant).
pub const ENERGY_REL_BOUND: f64 = 1e-2;

/// The outputs of one MAC readout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The digital ground truth `Σ wᵢ·xᵢ`.
    pub expected: usize,
    /// The ADC count, where the workload quantizes.
    pub readout: Option<usize>,
    /// Accumulated output voltage, mV.
    pub v_acc_mv: f64,
    /// Energy of the operation, fJ.
    pub energy_fj: f64,
}

impl Reading {
    /// Exact on the digital fields, within the parity bounds on the
    /// analog ones.
    pub fn matches(&self, reference: &Reading) -> bool {
        self.expected == reference.expected
            && self.readout == reference.readout
            && (self.v_acc_mv - reference.v_acc_mv).abs() <= V_ACC_BOUND_MV
            && (self.energy_fj - reference.energy_fj).abs()
                <= ENERGY_REL_BOUND * reference.energy_fj.abs()
    }

    /// The ADC count differs from the true MAC count.
    pub fn misread(&self) -> bool {
        self.readout.is_some_and(|r| r != self.expected)
    }
}

/// One recorded MAC op: its name in the workload's op table, and its
/// output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacEntry {
    /// The op, as the workload's table names it.
    pub op: String,
    /// The recorded output.
    pub out: Reading,
}

/// The reference of a MAC workload (`readout`, `wide_row`, `serve_mac`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacReference {
    /// Analog outputs of the set-up: the ADC thresholds in mV, when the
    /// workload calibrates one.
    pub setup_mv: Vec<f64>,
    /// One entry per op-table row, in table order.
    pub ops: Vec<MacEntry>,
}

impl MacReference {
    /// The recorded op names, in table order.
    pub fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|e| e.op.clone()).collect()
    }
}

/// One recorded image classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VggEntry {
    /// The op, as the workload's table names it.
    pub op: String,
    /// The predicted class.
    pub class: usize,
}

/// The reference of `vgg_cim`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VggReference {
    /// The transfer model's confusion matrix `P[true][read]`, a digital
    /// output (Monte-Carlo counts over the sample size).
    pub confusion: Vec<Vec<f64>>,
    /// One entry per pool image, in table order.
    pub ops: Vec<VggEntry>,
}

impl VggReference {
    /// The recorded op names, in table order.
    pub fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|e| e.op.clone()).collect()
    }
}

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Loads a workload's reference.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load<T: Deserialize>(workload: &str) -> Result<T, String> {
    let path = path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading reference {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing reference {}: {e}", path.display()))
}

/// Checks that a reference was recorded for the workload's current op
/// table.
///
/// # Errors
///
/// Names the workload whose reference must be re-recorded.
pub fn same_table(workload: &str, recorded: &[String], ops: &[String]) -> Result<(), String> {
    if recorded == ops {
        Ok(())
    } else {
        Err(format!(
            "the {workload} reference was recorded for another op table; re-record it with --record"
        ))
    }
}

/// Writes a workload's reference: a JSON object with one array element
/// per line, so a re-recording diffs op by op.
///
/// # Errors
///
/// I/O errors.
pub fn save<T: Serialize>(workload: &str, reference: &T) -> Result<PathBuf, String> {
    let compact = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    let Value::Object(fields) = serde_json::to_value(reference) else {
        return Err("a reference must serialize to a JSON object".to_string());
    };
    let mut lines = Vec::with_capacity(fields.len());
    for (key, value) in &fields {
        let rendered = match value {
            Value::Array(items) if !items.is_empty() => {
                let items = items.iter().map(compact).collect::<Result<Vec<_>, _>>()?;
                format!("[\n{}\n]", items.join(",\n"))
            }
            other => compact(other)?,
        };
        lines.push(format!("\"{key}\": {rendered}"));
    }
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    let path = path(workload);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Analog set-up outputs (mV) agree within [`V_ACC_BOUND_MV`].
pub fn setup_matches(observed: &[f64], reference: &[f64]) -> bool {
    observed.len() == reference.len()
        && observed
            .iter()
            .zip(reference)
            .all(|(a, b)| (a - b).abs() <= V_ACC_BOUND_MV)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading() -> Reading {
        Reading {
            expected: 3,
            readout: Some(4),
            v_acc_mv: 26.032,
            energy_fj: 19.2,
        }
    }

    #[test]
    fn identical_outputs_match_and_a_recorded_misread_is_not_a_failure() {
        let r = reading();
        assert!(r.matches(&r.clone()));
        assert!(r.misread());
    }

    #[test]
    fn a_perturbed_readout_is_flagged() {
        let reference = reading();
        let mut off_by_one = reference.clone();
        off_by_one.readout = Some(3);
        assert!(!off_by_one.matches(&reference));
        let mut drifted = reference.clone();
        drifted.v_acc_mv += 2.0 * V_ACC_BOUND_MV;
        assert!(!drifted.matches(&reference));
        let mut within = reference.clone();
        within.v_acc_mv += 0.5 * V_ACC_BOUND_MV;
        within.energy_fj *= 1.0 + 0.5 * ENERGY_REL_BOUND;
        assert!(within.matches(&reference));
        let mut costly = reference.clone();
        costly.energy_fj *= 1.0 + 2.0 * ENERGY_REL_BOUND;
        assert!(!costly.matches(&reference));
    }

    #[test]
    fn setup_outputs_compare_within_the_analog_bound() {
        assert!(setup_matches(&[10.0, 20.0], &[10.001, 20.0]));
        assert!(!setup_matches(&[10.0, 20.0], &[11.0, 20.0]));
        assert!(!setup_matches(&[10.0], &[10.0, 20.0]));
    }
}
