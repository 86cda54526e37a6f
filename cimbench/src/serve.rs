//! `serve_mac`: an in-process `ferrocim-serve` on loopback, driven by
//! two client threads in a closed loop, one request per connection.
//!
//! Nine requests in ten ask for the analytic path on one of eight weight
//! patterns whose surrogate curves the set-up pre-warms, so they are
//! surrogate hits; every tenth asks for a live transient solve. Patterns,
//! inputs and the 5 °C temperature grid form a finite op table, so every
//! answer has a recorded reference. The run seed picks the order.

use crate::check::{self, MacEntry, MacReference, Reading};
use crate::harness::{
    alternating, closed_loop, timed_setups, Op, Opts, Outcome, Passes, Samples, Timing, Traced,
};
use crate::layers::{self, ratio};
use crate::trace::Tracer;
use ferrocim_serve::{http_request, CimBackend, ServeConfig, Server};
use ferrocim_telemetry::{Aggregator, Telemetry};
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "serve_mac";
/// Stored weights of the eight pre-warmed rows (bit `i` = cell `i`).
const PATTERNS: [u8; 8] = [0xB6, 0x7D, 0xCB, 0x57, 0xEE, 0x3F, 0xD5, 0xAB];
/// Word-line inputs, from all cells active to one.
const INPUTS: [u8; 4] = [0xFF, 0xB3, 0x4C, 0x01];
/// The temperature grid: 0 to 85 °C in 5 °C steps.
const TEMPS: usize = 18;
const TEMP_STEP_C: f64 = 5.0;
/// Analytic (surrogate) keys; the same keys again on the transient path
/// follow in the op table.
const KEYS: usize = PATTERNS.len() * INPUTS.len() * TEMPS;
/// Every `TRANSIENT_EVERY`-th request of a client is a live solve.
const TRANSIENT_EVERY: u64 = 10;
const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// Surrogate check mode: about one surrogate answer in this many is
/// re-solved live and compared with its certified envelope.
const CHECK_EVERY: usize = 50;
const SETUP_REPS: usize = 3;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn bits(mask: u8) -> Vec<bool> {
    (0..8).map(|i| (mask >> i) & 1 == 1).collect()
}

/// `(pattern, inputs, temperature, transient)` of op-table entry `index`.
fn op(index: usize) -> (u8, u8, f64, bool) {
    let key = index % KEYS;
    let temp = key % TEMPS;
    let input = key / TEMPS % INPUTS.len();
    let pattern = key / TEMPS / INPUTS.len();
    (
        PATTERNS[pattern],
        INPUTS[input],
        temp as f64 * TEMP_STEP_C,
        index >= KEYS,
    )
}

fn op_names() -> Vec<String> {
    (0..2 * KEYS)
        .map(|i| {
            let (weights, inputs, temp_c, transient) = op(i);
            let path = if transient { "transient" } else { "analytic" };
            format!("w={weights:02x} x={inputs:02x} t={temp_c} {path}")
        })
        .collect()
}

fn body(index: usize) -> Vec<u8> {
    let (weights, inputs, temp_c, transient) = op(index);
    let request = json!({
        "tenant": "bench",
        "inputs": (bits(inputs)),
        "weights": (bits(weights)),
        "temp_c": (temp_c),
        "path": (if transient { "transient" } else { "analytic" })
    });
    serde_json::to_string(&request)
        .expect("JSON rendering cannot fail")
        .into_bytes()
}

/// The op-table indices one client requests, in order.
fn requests(seed: u64, client: u64) -> impl Iterator<Item = usize> {
    let mut analytic = Passes::new(KEYS, seed, 2 * client);
    let mut transient = Passes::new(KEYS, seed, 2 * client + 1);
    (1u64..).map(move |n| {
        if n % TRANSIENT_EVERY == 0 {
            KEYS + transient.next().expect("passes never end")
        } else {
            analytic.next().expect("passes never end")
        }
    })
}

struct Service {
    server: Server,
    backend: Arc<CimBackend>,
}

/// Backend start (paper array, 27 °C ADC, the all-ones surrogate curve),
/// server start, and one request per pattern, each a surrogate miss
/// that calibrates its curve.
fn setup(telemetry: &Telemetry, aggregator: Arc<Aggregator>) -> Result<Service, String> {
    let backend =
        Arc::new(CimBackend::new(telemetry.clone(), CHECK_EVERY).map_err(|e| e.to_string())?);
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::start(config, backend.clone(), telemetry.clone(), aggregator)
        .map_err(|e| e.to_string())?;
    let service = Service { server, backend };
    for pattern in 0..PATTERNS.len() {
        let index = pattern * INPUTS.len() * TEMPS;
        if let Err(e) = call(service.server.addr(), index, &Telemetry::off()).1 {
            service.server.shutdown();
            return Err(format!("pre-warming pattern {pattern}: {e}"));
        }
    }
    Ok(service)
}

/// One timed `POST /v1/mac`, parsed into a reading.
fn call(addr: SocketAddr, index: usize, telemetry: &Telemetry) -> (f64, Result<Reading, String>) {
    let payload = body(index);
    let span = telemetry.span("bench.http_request");
    let start = Instant::now();
    let response = http_request(addr, "POST", "/v1/mac", &payload, CLIENT_TIMEOUT);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(span);
    let transient = op(index).3;
    let reading = response.map_err(|e| e.to_string()).and_then(|r| {
        let doc = r.json().ok_or("non-JSON response")?;
        let field = |name: &str| doc.get(name).cloned().unwrap_or(Value::Null);
        let number = |name: &str| match field(name) {
            Value::Number(x) => Ok(x),
            other => Err(format!("{name}: {other:?}")),
        };
        // The answer must come from the tier the path selects: the
        // surrogate for analytic requests, a live solve for transient.
        let routed = field("surrogate") == Value::Bool(!transient)
            && field("degraded") == Value::Bool(false);
        if r.status != 200 || !routed {
            return Err(format!("status {}: {doc:?}", r.status));
        }
        Ok(Reading {
            expected: number("expected")? as usize,
            readout: Some(number("readout")? as usize),
            v_acc_mv: number("v_acc")? * 1e3,
            energy_fj: number("energy_j")? * 1e15,
        })
    });
    (latency_ms, reading)
}

/// Both client threads, each in a closed loop on the `untraced` service,
/// or, given a `traced` one, alternating between the two. Returns
/// `[untraced, traced]`.
fn measure(
    untraced: SocketAddr,
    traced: Option<(SocketAddr, &Telemetry)>,
    reference: &MacReference,
    opts: &Opts,
) -> [Samples; 2] {
    let off = Telemetry::off();
    let per_client = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let off = &off;
                scope.spawn(move || {
                    let mut streams = [0, 1].map(|_| requests(opts.seed, client));
                    let mut issue = |t: bool| {
                        let index = streams[usize::from(t)].next();
                        let index = index.expect("requests never end");
                        let (addr, telemetry) = match traced {
                            Some(service) if t => service,
                            _ => (untraced, off),
                        };
                        let (latency_ms, reading) = call(addr, index, telemetry);
                        let reference = &reference.ops[index].out;
                        // Live solves and surrogate answers are timed
                        // apart; the keys within each cost alike.
                        Op {
                            group: usize::from(op(index).3),
                            ..Op::checked(latency_ms, reading, reference, index)
                        }
                    };
                    match traced {
                        None => [
                            closed_loop(opts.seconds, || issue(false)),
                            Samples::default(),
                        ],
                        Some(_) => alternating(opts.seconds, issue),
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut merged = [Samples::default(), Samples::default()];
    for loops in per_client {
        for (total, samples) in merged.iter_mut().zip(loops) {
            total.merge(samples);
        }
    }
    merged
}

/// Mean calibration time of the nine curves the set-up calibrated.
fn ms_per_calibration(backend: &CimBackend) -> f64 {
    let surrogate = backend.mac_surrogate();
    let times: Vec<f64> = PATTERNS
        .iter()
        .map(|&p| bits(p))
        .chain([vec![true; 8]])
        .filter_map(|w| surrogate.key_for(&w).ok())
        .filter_map(|key| surrogate.store().get(key))
        .map(|curve| curve.calibration_s() * 1e3)
        .collect();
    ratio(times.iter().sum(), times.len() as f64)
}

/// Runs `serve_mac`.
///
/// # Errors
///
/// A missing or stale reference, or a failed set-up.
pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let reference: MacReference = check::load(NAME)?;
    check::same_table(NAME, &reference.op_names(), &op_names())?;
    let params = json!({
        "clients": (CLIENTS),
        "loop": "closed, one request per connection",
        "workers": (WORKERS),
        "patterns": (PATTERNS.len()),
        "transient_share": (1.0 / TRANSIENT_EVERY as f64),
        "temps_c": "0-85 in 5 C steps",
        "surrogate_check_every": (CHECK_EVERY),
        "setup_reps": (SETUP_REPS)
    });
    let off = Telemetry::off();
    let untraced = || setup(&off, Arc::new(Aggregator::new()));
    let Some(tracer) = tracer else {
        let (service, setup_s) = timed_setups(SETUP_REPS, untraced, |s| s.server.shutdown())?;
        let [measured, _] = measure(service.server.addr(), None, &reference, opts);
        service.server.shutdown();
        return Ok(Outcome {
            setup_s,
            setup_ok: true,
            measured,
            timing: Timing::Fastest {
                clients: CLIENTS as u32,
            },
            traced: None,
            params,
        });
    };
    let plain = untraced()?;
    let telemetry = tracer.telemetry();
    let start = Instant::now();
    let service = match setup(&telemetry, tracer.aggregator()) {
        Ok(service) => service,
        Err(e) => {
            plain.server.shutdown();
            return Err(e);
        }
    };
    let setup_s = vec![start.elapsed().as_secs_f64()];
    let setup_phase = tracer.phase();
    let traced = Some((service.server.addr(), &telemetry));
    let [measured, samples] = measure(plain.server.addr(), traced, &reference, opts);
    plain.server.shutdown();
    service.server.shutdown();
    let phase = tracer.phase();
    let mut layers = layers::derive(&setup_phase, &phase, &samples, "bench.http_request");
    layers.insert(
        "surrogate.ms_per_calibration",
        ms_per_calibration(&service.backend),
    );
    Ok(Outcome {
        setup_s,
        setup_ok: true,
        measured,
        timing: Timing::Fastest {
            clients: CLIENTS as u32,
        },
        traced: Some(Traced { samples, layers }),
        params,
    })
}

/// Records the reference: every op of the table once, in table order,
/// from one client.
///
/// # Errors
///
/// A failed set-up or request.
pub fn record() -> Result<MacReference, String> {
    let service = setup(&Telemetry::off(), Arc::new(Aggregator::new()))?;
    let ops = op_names()
        .into_iter()
        .enumerate()
        .map(|(index, op)| {
            let out = call(service.server.addr(), index, &Telemetry::off()).1?;
            Ok(MacEntry { op, out })
        })
        .collect::<Result<_, String>>();
    service.server.shutdown();
    Ok(MacReference {
        setup_mv: Vec::new(),
        ops: ops?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_follow_the_seed_and_mix_one_transient_in_ten() {
        let take = |seed, client| requests(seed, client).take(500).collect::<Vec<_>>();
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        assert_ne!(take(5, 0), take(5, 1));
        let transient = take(5, 0).iter().filter(|&&i| op(i).3).count();
        assert_eq!(transient, 50);
    }

    #[test]
    fn the_op_table_names_each_key_once_per_path() {
        let names = op_names();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!((names.len(), unique.len()), (2 * KEYS, 2 * KEYS));
        assert_eq!(op(KEYS - 1), (0xAB, 0x01, 85.0, false));
    }
}
