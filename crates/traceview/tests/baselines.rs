//! The checked-in counter baselines under `baselines/` must carry
//! exactly the counter table's gated rows. A gated row added (or
//! ungated) without `scripts/bench_gate.sh --update` fails here rather
//! than as a `MissingCounter`/`UnknownCounter` warning in the gate.

use ferrocim_telemetry::Counts;
use ferrocim_traceview::metrics_from_json;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The probes `scripts/bench_gate.sh` trace-diffs against a baseline.
const COUNTER_BASELINES: &[&str] = &[
    "probe_adaptive",
    "probe_array",
    "probe_faults",
    "probe_health",
    "probe_sparse",
];

#[test]
fn counter_baselines_hold_exactly_the_gated_rows() {
    let gated: BTreeSet<&str> = Counts::SPECS
        .iter()
        .filter(|spec| spec.gated)
        .map(|spec| spec.key)
        .collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    for name in COUNTER_BASELINES {
        let path = dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let doc = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()));
        let metrics = metrics_from_json(&doc)
            .unwrap_or_else(|e| panic!("{} is not a metrics baseline: {e}", path.display()));
        let keys: BTreeSet<&str> = metrics.iter().map(|&(key, _)| key).collect();
        assert_eq!(
            keys, gated,
            "{name}: baseline keys differ from the gated counter rows — \
             regenerate with scripts/bench_gate.sh --update"
        );
    }
}
