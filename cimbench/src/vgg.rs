//! `vgg_cim`: VGG-nano classifying synthetic CIFAR-10 images one at a
//! time, every inner product decomposed into 8-cell row reads answered
//! by the paper row's transfer model at 85 °C.
//!
//! The network (untrained, seeded weights) and the 32-image pool are
//! fixed so that every image's predicted class can be recorded; the run
//! seed picks the order in which the pool is classified. Image `i` is
//! always read out with RNG seed `i`. The pool is small enough that a
//! run classifies each image about five times, so each image's fastest
//! time can be taken.

use crate::check::{self, VggEntry, VggReference};
use crate::harness::{
    alternating, closed_loop, timed_setups, Op, Opts, Outcome, Passes, Timing, Traced,
};
use crate::host::CoreRotation;
use crate::layers::{self, ratio};
use crate::trace::Tracer;
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::{TransferConfig, TransferModel};
use ferrocim_cim::{ArrayConfig, CimArray};
use ferrocim_nn::cim_exec::{CimMapping, CimNetwork, MacOracle};
use ferrocim_nn::data::{Dataset, Generator};
use ferrocim_nn::vgg::vgg_nano;
use ferrocim_telemetry::Telemetry;
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const NAME: &str = "vgg_cim";
const POOL: usize = 32;
const POOL_SEED: u64 = 0xC1FA_0011;
const NETWORK_SEED: u64 = 0x0766_0011;
const TEMP_C: f64 = 85.0;
const SETUP_REPS: usize = 3;

/// A [`MacOracle`] that counts and times the row reads it forwards.
/// It consumes RNG draws exactly as the wrapped oracle does, so seeded
/// predictions are unchanged.
#[derive(Debug)]
pub struct CountingOracle<'a, O> {
    inner: &'a O,
    reads: AtomicU64,
    nanos: AtomicU64,
}

impl<'a, O> CountingOracle<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        CountingOracle {
            inner,
            reads: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Row reads forwarded so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Milliseconds spent inside the wrapped oracle so far.
    pub fn busy_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn charge(&self, reads: usize, start: Instant) {
        self.reads.fetch_add(reads as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<O: MacOracle> MacOracle for CountingOracle<'_, O> {
    fn read(&self, true_count: usize, rng: &mut StdRng) -> usize {
        let start = Instant::now();
        let read = self.inner.read(true_count, rng);
        self.charge(1, start);
        read
    }

    fn read_batch(&self, true_counts: &[usize], out: &mut Vec<usize>, rng: &mut StdRng) {
        let start = Instant::now();
        self.inner.read_batch(true_counts, out, rng);
        self.charge(true_counts.len(), start);
    }

    fn cells_per_row(&self) -> usize {
        self.inner.cells_per_row()
    }
}

struct Vgg {
    model: TransferModel,
    network: CimNetwork,
}

/// `TransferModel::measure` (analytic cell transients plus Monte-Carlo
/// fan-out) and the network's quantization and mapping.
fn setup(telemetry: &Telemetry) -> Result<Vgg, String> {
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )
    .map_err(|e| e.to_string())?
    .with_recorder(telemetry.clone());
    let model = TransferModel::measure(&array, &TransferConfig::paper_default(Celsius(TEMP_C)))
        .map_err(|e| e.to_string())?;
    let network = vgg_nano(&mut StdRng::seed_from_u64(NETWORK_SEED));
    let network = CimNetwork::map(&network, CimMapping::default()).with_recorder(telemetry.clone());
    Ok(Vgg { model, network })
}

fn pool() -> Dataset {
    Generator::new(POOL_SEED).generate(POOL)
}

fn op_names() -> Vec<String> {
    (0..POOL).map(|i| format!("image={i}")).collect()
}

/// One timed `CimNetwork::predict`.
fn classify<O: MacOracle>(
    network: &CimNetwork,
    oracle: &O,
    pool: &Dataset,
    index: usize,
    telemetry: &Telemetry,
) -> (f64, usize) {
    let span = telemetry.span("bench.predict");
    let start = Instant::now();
    let class = network.predict(&pool.images[index], oracle, index as u64);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(span);
    (latency_ms, class)
}

/// Pool image `index`, classified and checked against its reference.
fn op<O: MacOracle>(
    network: &CimNetwork,
    oracle: &O,
    telemetry: &Telemetry,
    pool: &Dataset,
    reference: &VggReference,
    index: usize,
) -> Op {
    let (latency_ms, class) = classify(network, oracle, pool, index, telemetry);
    Op {
        group: index,
        latency_ms,
        ok: class == reference.ops[index].class,
        misread: None,
    }
}

/// Runs `vgg_cim`.
///
/// # Errors
///
/// A missing or stale reference, or a failed set-up.
pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let reference: VggReference = check::load(NAME)?;
    check::same_table(NAME, &reference.op_names(), &op_names())?;
    let pool = pool();
    let params = json!({
        "network": "vgg_nano, untrained",
        "images": (POOL),
        "transfer_temp_c": (TEMP_C),
        "samples_per_level": (TransferConfig::paper_default(Celsius(TEMP_C)).samples_per_level),
        "setup_reps": (SETUP_REPS)
    });
    let setup_matches = |vgg: &Vgg| vgg.model.confusion() == reference.confusion.as_slice();
    let off = Telemetry::off();
    let Some(tracer) = tracer else {
        let mut setup_ok = true;
        let (vgg, setup_s) = timed_setups(
            SETUP_REPS,
            || setup(&off),
            |vgg| setup_ok &= setup_matches(&vgg),
        )?;
        setup_ok &= setup_matches(&vgg);
        let mut order = Passes::new(POOL, opts.seed, 0);
        let mut cores = CoreRotation::start();
        let measured = closed_loop(opts.seconds, || {
            cores.tick();
            let index = order.next().expect("passes never end");
            op(&vgg.network, &vgg.model, &off, &pool, &reference, index)
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
    let telemetry = tracer.telemetry();
    let start = Instant::now();
    let vgg = setup(&telemetry)?;
    let setup_s = vec![start.elapsed().as_secs_f64()];
    let setup_ok = setup_matches(&vgg);
    let setup_phase = tracer.phase();
    let untraced = vgg.network.clone().with_recorder(off.clone());
    let oracle = CountingOracle::new(&vgg.model);
    let mut orders = [0, 1].map(|_| Passes::new(POOL, opts.seed, 0));
    let [measured, samples] = alternating(opts.seconds, |traced| {
        let index = orders[usize::from(traced)]
            .next()
            .expect("passes never end");
        if traced {
            op(&vgg.network, &oracle, &telemetry, &pool, &reference, index)
        } else {
            op(&untraced, &vgg.model, &off, &pool, &reference, index)
        }
    });
    let phase = tracer.phase();
    let mut layers = layers::derive(&setup_phase, &phase, &samples, "bench.predict");
    let images = samples.attempted() as f64;
    let predict_ms = phase.span_ms("bench.predict");
    layers.insert(
        "nn.row_reads_per_image",
        ratio(oracle.reads() as f64, images),
    );
    layers.insert("nn.oracle_ms_per_image", ratio(oracle.busy_ms(), images));
    layers.insert(
        "nn.decompose_ms_per_image",
        ratio(predict_ms - oracle.busy_ms(), images),
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

/// Records the reference: the transfer model and every pool image's
/// class.
///
/// # Errors
///
/// A failed set-up.
pub fn record() -> Result<VggReference, String> {
    let vgg = setup(&Telemetry::off())?;
    let pool = pool();
    let off = Telemetry::off();
    let ops = op_names()
        .into_iter()
        .enumerate()
        .map(|(index, op)| VggEntry {
            op,
            class: classify(&vgg.network, &vgg.model, &pool, index, &off).1,
        })
        .collect();
    Ok(VggReference {
        confusion: vgg.model.confusion().to_vec(),
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counting_oracle_leaves_seeded_predictions_bit_identical() {
        let array = CimArray::new(
            TwoTransistorOneFefet::paper_default(),
            ArrayConfig::paper_default(),
        )
        .expect("paper array");
        // A coarse model keeps the test fast; it is still stochastic,
        // which is what exercises the RNG order.
        let config = TransferConfig {
            samples_per_level: 8,
            ..TransferConfig::paper_default(Celsius(TEMP_C))
        };
        let model = TransferModel::measure(&array, &config).expect("transfer model");
        let network = vgg_nano(&mut StdRng::seed_from_u64(NETWORK_SEED));
        let network = CimNetwork::map(&network, CimMapping::default());
        let images = Generator::new(POOL_SEED).generate(3);
        let counting = CountingOracle::new(&model);
        for (i, image) in images.images.iter().enumerate() {
            let plain = network.forward(image, &model, i as u64);
            let counted = network.forward(image, &counting, i as u64);
            let bits =
                |t: &ferrocim_nn::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&counted), "image {i}");
        }
        assert!(counting.reads() > 0);
    }

    #[test]
    fn the_pool_is_fixed_and_the_seed_orders_it() {
        let a = pool();
        let b = pool();
        assert_eq!(a.labels, b.labels);
        assert!(a
            .images
            .iter()
            .zip(&b.images)
            .all(|(x, y)| x.data() == y.data()));
        let order = |seed| Passes::new(POOL, seed, 0).take(POOL).collect::<Vec<_>>();
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }
}
