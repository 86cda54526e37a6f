//! End-to-end tests of the `trace` binary: summary, diff exit codes,
//! and Chrome export on real JSONL traces written by `JsonlSink`.

use ferrocim_telemetry::{DegradeStageKind, Event, JsonlSink, Recorder as _, SolverBackend};
use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ferrocim-trace-cli-{name}-{}", std::process::id()))
}

fn write_trace(name: &str, newton_iters: u64) -> PathBuf {
    let path = temp_path(name);
    let sink = JsonlSink::create(&path).expect("create");
    sink.record(&Event::SpanBegin {
        id: 1,
        parent: 0,
        tid: 1,
        name: "nn.forward".into(),
        ts: 0.0,
    });
    sink.record(&Event::SpanBegin {
        id: 2,
        parent: 1,
        tid: 1,
        name: "cim.mac_batch".into(),
        ts: 1.0,
    });
    for i in 1..=newton_iters {
        sink.record(&Event::NewtonIter { iteration: i });
    }
    sink.record(&Event::NewtonConverged {
        iterations: newton_iters,
    });
    sink.record(&Event::SpanEnd { id: 2, micros: 8.0 });
    sink.record(&Event::SpanEnd {
        id: 1,
        micros: 10.0,
    });
    sink.finish().expect("finish");
    path
}

fn trace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace"))
}

#[test]
fn summary_reports_counts_and_tree() {
    let path = write_trace("summary", 4);
    let out = trace_bin()
        .args(["summary", path.to_str().expect("utf8"), "--tree"])
        .output()
        .expect("run trace");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("newton_iters          4"));
    assert!(stdout.contains("nn.forward"));
    assert!(stdout.contains("  cim.mac_batch"), "tree is indented");
}

#[test]
fn summary_reports_solver_counters() {
    let path = temp_path("summary-solver");
    let sink = JsonlSink::create(&path).expect("create");
    for symbolic in [true, false, false] {
        sink.record(&Event::SolverSolved {
            backend: SolverBackend::Sparse,
            symbolic,
        });
    }
    sink.record(&Event::SolveRefined {
        passes: 1,
        residual: 1e-12,
    });
    sink.record(&Event::SolveDegraded {
        stage: DegradeStageKind::FreshSymbolic,
        residual: 1e-3,
    });
    sink.finish().expect("finish");
    let out = trace_bin()
        .args(["summary", path.to_str().expect("utf8")])
        .output()
        .expect("run trace");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("solver_solves         3"), "got: {stdout}");
    assert!(stdout.contains("solver_symbolic       1"), "got: {stdout}");
    assert!(stdout.contains("solves_refined        1"), "got: {stdout}");
    assert!(stdout.contains("solves_degraded       1"), "got: {stdout}");
}

#[test]
fn diff_is_zero_on_identical_and_nonzero_on_regression() {
    let base = write_trace("diff-base", 10);
    let same = write_trace("diff-same", 10);
    let worse = write_trace("diff-worse", 12); // +20% > 10% default
    let ok = trace_bin()
        .args([
            "diff",
            base.to_str().expect("utf8"),
            same.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    assert!(ok.status.success(), "identical traces must pass the gate");
    let bad = trace_bin()
        .args([
            "diff",
            base.to_str().expect("utf8"),
            worse.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    assert_eq!(bad.status.code(), Some(1), "regression exits 1");
    let stdout = String::from_utf8(bad.stdout).expect("utf8");
    assert!(stdout.contains("REGRESSED"));
    // A generous threshold lets the same pair pass.
    let lenient = trace_bin()
        .args([
            "diff",
            base.to_str().expect("utf8"),
            worse.to_str().expect("utf8"),
            "--threshold",
            "50",
        ])
        .output()
        .expect("run trace");
    assert!(lenient.status.success());
    for p in [base, same, worse] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn diff_accepts_a_metrics_baseline_on_either_side() {
    let base_trace = write_trace("metrics-base", 10);
    let baseline = temp_path("metrics-base.json");
    let out = trace_bin()
        .args([
            "metrics",
            base_trace.to_str().expect("utf8"),
            "-o",
            baseline.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.contains("\"newton_iters\": 10"));

    // Metrics baseline vs the trace it came from: clean.
    let same = trace_bin()
        .args([
            "diff",
            baseline.to_str().expect("utf8"),
            base_trace.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    assert!(same.status.success(), "self-diff must pass the gate");
    // Metrics baseline vs a regressed trace: gate trips.
    let worse = write_trace("metrics-worse", 12);
    let bad = trace_bin()
        .args([
            "diff",
            baseline.to_str().expect("utf8"),
            worse.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    assert_eq!(bad.status.code(), Some(1), "regression exits 1");
    for p in [base_trace, baseline, worse] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn diff_rejects_mixed_version_traces() {
    let base = write_trace("mixed-base", 5);
    let forged = temp_path("mixed-forged");
    let mut raw = std::fs::read_to_string(&base).expect("read base");
    raw.push_str("{\"format\":\"ferrocim-trace-v2\"}\n");
    std::fs::write(&forged, raw).expect("write forged");
    let out = trace_bin()
        .args([
            "diff",
            base.to_str().expect("utf8"),
            forged.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&forged);
    assert_eq!(out.status.code(), Some(2), "trace errors exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("mixed-version"),
        "typed mixed-version message, got: {stderr}"
    );
}

#[test]
fn export_chrome_writes_loadable_trace_event_json() {
    let path = write_trace("chrome", 3);
    let out_json = temp_path("chrome-out.json");
    let out = trace_bin()
        .args([
            "export",
            "--chrome",
            path.to_str().expect("utf8"),
            "-o",
            out_json.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trace");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = std::fs::read_to_string(&out_json).expect("chrome json written");
    let _ = std::fs::remove_file(&out_json);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let serde_json::Value::Array(events) = doc.get("traceEvents").expect("traceEvents").clone()
    else {
        panic!("traceEvents is an array");
    };
    assert_eq!(events.len(), 2);
    assert_eq!(
        events[0].get("ph"),
        Some(&serde_json::Value::String("X".to_string()))
    );
}
