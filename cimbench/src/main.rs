//! `cimbench`: the ferrocim benchmark (see `README.md`).
//!
//! ```text
//! cimbench --workload <readout|vgg_cim|serve_mac|wide_row> --seed <n>
//!          --seconds <s> --trace <0|1>
//! cimbench --workload <name> --record
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics in an untraced run and the per-layer metrics in a traced one.
//! The line before it is the full report, provenance included.

mod check;
mod harness;
mod host;
mod layers;
mod row;
mod serve;
mod stats;
mod trace;
mod vgg;

use harness::{Opts, Outcome, Samples, Timing};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// The workloads of `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["readout", "vgg_cim", "serve_mac"];

/// Workloads that run by hand but are left out of `BENCHMARK.json`:
/// on a shared host their runs spread past the bounds (see `README.md`).
const UNBENCHMARKED: [&str; 1] = ["wide_row"];

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
const PER_LAYER: [(&str, &str); 34] = [
    ("bench.op_ms_mean", "ms"),
    ("spice.transient_ms_per_op", "ms"),
    ("spice.transient_share", "ratio"),
    ("spice.newton_iters_per_op", "count"),
    ("spice.us_per_newton_iter", "us"),
    ("spice.steps_accepted_per_op", "count"),
    ("spice.steps_rejected_per_op", "count"),
    ("spice.lu_numeric_per_op", "count"),
    ("spice.lu_symbolic_per_op", "count"),
    ("spice.solves_refined", "count"),
    ("spice.solves_degraded", "count"),
    ("spice.rescue_attempts", "count"),
    ("cim.self_ms_per_op", "ms"),
    ("cim.transfer_measure_s", "s"),
    ("cim.mc_samples", "count"),
    ("cim.ms_per_mc_sample", "ms"),
    ("surrogate.hit_ratio", "ratio"),
    ("surrogate.calibrations", "count"),
    ("surrogate.ms_per_calibration", "ms"),
    ("surrogate.check_failures", "count"),
    ("nn.row_reads_per_image", "count"),
    ("nn.oracle_ms_per_image", "ms"),
    ("nn.decompose_ms_per_image", "ms"),
    ("serve.server_ms_mean", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.live_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("serve.deadline", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("check.readout_errors", "count"),
    ("check.readout_error_ops", "count"),
    ("check.failed_ops_frac", "ratio"),
];

struct Args {
    workload: &'static str,
    opts: Opts,
    record: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .chain(&UNBENCHMARKED)
                        .find(|w| *w == value)
                        .ok_or_else(|| {
                            bad(&format!("not one of {WORKLOADS:?} or {UNBENCHMARKED:?}"))
                        })?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts,
        record,
    })
}

fn record(workload: &str) -> Result<PathBuf, String> {
    match workload {
        "readout" => check::save(workload, &row::record(&row::READOUT)?),
        "wide_row" => check::save(workload, &row::record(&row::WIDE_ROW)?),
        "vgg_cim" => check::save(workload, &vgg::record()?),
        _ => check::save(workload, &serve::record()?),
    }
}

/// Throughput, median and tail of `timing`'s ops.
fn timing_summary(samples: &Samples, timing: Timing) -> Value {
    let timed = samples.timed(timing);
    let latencies = &timed.latencies_ms;
    let tail = stats::tail(latencies);
    json!({
        "throughput_ops_s": (timed.throughput),
        "latency_p50_ms": (stats::median(latencies)),
        "latency_tail": {
            "ms": (tail.map(|t| t.value)),
            "percentile": (tail.map(|t| t.percentile)),
            "beyond": (tail.map(|t| t.beyond)),
            "samples": (latencies.len())
        }
    })
}

/// A loop's counts, its whole-run timings, and the timings the metrics
/// are taken from.
fn summary(samples: &Samples, timing: Timing) -> Value {
    json!({
        "ops": (samples.attempted()),
        "failed": (samples.failed),
        "failed_ops_frac": (layers::ratio(samples.failed as f64, samples.attempted() as f64)),
        "readout_errors": (samples.misreads),
        "readout_error_ops": (samples.misread_ops.len()),
        "elapsed_s": (samples.elapsed_s),
        "whole_run": (timing_summary(samples, Timing::WholeRun)),
        "timed": (timing_summary(samples, timing))
    })
}

/// A reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// The result line's metrics, attempted ops and failed ops.
fn metrics(outcome: &Outcome) -> Result<(Vec<Metric>, u64, u64), String> {
    let measured = &outcome.measured;
    let timed = measured.timed(outcome.timing);
    let Some(traced) = &outcome.traced else {
        let latencies = &timed.latencies_ms;
        let tail = stats::tail(latencies).ok_or("no op completed")?;
        let rss = host::peak_rss_mb().ok_or("cannot read the peak resident set")?;
        let values = [
            timed.throughput,
            stats::median(latencies),
            tail.value,
            stats::median(&outcome.setup_s),
            rss,
        ];
        let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v));
        return Ok((metrics.collect(), measured.attempted(), measured.failed));
    };
    let attempted = measured.attempted() + traced.samples.attempted();
    let failed = measured.failed + traced.samples.failed;
    let mut layers = traced.layers.clone();
    layers.insert(
        "telemetry.trace_overhead_pct",
        100.0 * (1.0 - traced.samples.timed(outcome.timing).throughput / timed.throughput),
    );
    layers.insert(
        "check.readout_errors",
        (measured.misreads + traced.samples.misreads) as f64,
    );
    layers.insert(
        "check.readout_error_ops",
        measured
            .misread_ops
            .union(&traced.samples.misread_ops)
            .count() as f64,
    );
    layers.insert(
        "check.failed_ops_frac",
        layers::ratio(failed as f64, attempted as f64),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)));
    Ok((metrics.collect(), attempted, failed))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv)?;
    if args.record {
        println!("recorded {}", record(args.workload)?.display());
        return Ok(());
    }
    let opts = &args.opts;
    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, opts.seed));
    let mut tracer = if opts.trace {
        let tracer = trace::Tracer::create(&trace_path, argv.to_vec())
            .map_err(|e| format!("opening {}: {e}", trace_path.display()))?;
        Some(tracer)
    } else {
        None
    };
    let outcome = match args.workload {
        "readout" => row::run(&row::READOUT, opts, tracer.as_mut()),
        "wide_row" => row::run(&row::WIDE_ROW, opts, tracer.as_mut()),
        "vgg_cim" => vgg::run(opts, tracer.as_mut()),
        _ => serve::run(opts, tracer.as_mut()),
    }?;
    let trace_file = match &tracer {
        Some(t) => Some(t.finish().map_err(|e| format!("closing the trace: {e}"))?),
        None => None,
    };
    let (metrics, attempted, failed) = metrics(&outcome)?;
    let report = json!({
        "workload": (args.workload),
        "seed": (opts.seed),
        "seconds": (opts.seconds),
        "trace": (opts.trace),
        "provenance": (host::provenance()),
        "params": (outcome.params.clone()),
        "setup_s": (outcome.setup_s.clone()),
        "setup_ok": (outcome.setup_ok),
        "timing": (format!("{:?}", outcome.timing)),
        "measured": (summary(&outcome.measured, outcome.timing)),
        "traced": (outcome.traced.as_ref().map(|t| summary(&t.samples, outcome.timing))),
        "trace_file": (trace_file.map(|p| p.display().to_string()))
    });
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| (name.to_string(), json!({"value": (value), "unit": (unit)})))
        .collect();
    let result = json!({
        "correct": (outcome.setup_ok && failed == 0),
        "attempted": (attempted),
        "failed": (failed),
        "metrics": (Value::Object(metrics))
    });
    let render = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    println!("{}", render(&json!({"report": (report)}))?);
    println!("{}", render(&result)?);
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("cimbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_the_metrics_and_workloads_this_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let pairs = |key: &str, field: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| match m.get(k) {
                            Some(Value::String(s)) => s.clone(),
                            _ => String::new(),
                        };
                        (s("name"), s(field))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = pairs("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok =
            parse(&argv("--workload readout --seed 7 --seconds 2.5 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload, ok.opts.seed, ok.opts.seconds, ok.opts.trace),
            ("readout", 7, 2.5, true)
        );
        for bad in [
            "--workload nope",
            "--workload readout --seconds 0",
            "--workload readout --trace 2",
            "--workload readout --seed",
            "--seed 3",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
