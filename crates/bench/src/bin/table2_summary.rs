//! **E11+E12 / Table II** — the cross-design performance summary, with
//! the "This work" row measured live from the simulated array, plus the
//! paper's energy-ratio call-outs. With `--accuracy`, also trains
//! VGG-nano on the synthetic dataset and evaluates it through the CIM
//! transfer model at 27 °C (the Sec. IV-B experiment; several minutes).

use ferrocim_bench::{dump_json, print_table};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::compare::{comparison_table, energy_ratios, ComparisonEntry, EnergyFigure};
use ferrocim_cim::transfer::{TransferConfig, TransferModel};
use ferrocim_cim::{ArrayConfig, CimArray};
use ferrocim_nn::cim_exec::{CimMapping, CimNetwork};
use ferrocim_nn::data::Generator;
use ferrocim_nn::vgg::vgg_nano;
use ferrocim_nn::{try_train_recorded, Telemetry, TrainConfig};
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn energy_cell(e: &EnergyFigure) -> String {
    match e {
        EnergyFigure::PerOperation(j) => format!("{j} (/op)"),
        EnergyFigure::PerInference(j) => format!("{j} (/inference)"),
        EnergyFigure::Unreported => "NA".into(),
    }
}

fn measure_accuracy(tele: &Telemetry) -> Result<f64, Box<dyn std::error::Error>> {
    eprintln!("training VGG-nano on the synthetic dataset (noise-aware)...");
    let train_set = Generator::new(1).generate(1500);
    let test_set = Generator::new(999).generate(400);
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = vgg_nano(&mut rng);
    let stats = try_train_recorded(
        &mut net,
        &train_set.images,
        &train_set.labels,
        &TrainConfig {
            epochs: 24,
            learning_rate: 0.01,
            ..TrainConfig::default()
        },
        tele,
    )?;
    eprintln!(
        "clean train accuracy after {} epochs: {:.3}",
        stats.len(),
        stats.last().map(|s| s.train_accuracy).unwrap_or(0.0)
    );
    let clean = net.accuracy(&test_set.images, &test_set.labels);
    eprintln!("clean test accuracy: {clean:.4}");
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?
    .with_recorder(tele.clone());
    let cim = CimNetwork::map(&net, CimMapping::default()).with_recorder(tele.clone());
    // The paper's headline number is at nominal conditions; the
    // temperature corners demonstrate the resilience claim.
    let mut acc_27 = 0.0;
    for temp_c in [0.0, 27.0, 85.0] {
        let model =
            TransferModel::measure(&array, &TransferConfig::paper_default(Celsius(temp_c)))?;
        let acc = cim.accuracy(&test_set.images, &test_set.labels, &model, 13);
        eprintln!("CIM accuracy at {temp_c} C: {acc:.4}");
        if temp_c == 27.0 {
            acc_27 = acc;
        }
    }
    Ok(acc_27)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = ferrocim_bench::Trace::from_args()?;
    let with_accuracy = std::env::args().any(|a| a == "--accuracy");
    let accuracy = if with_accuracy {
        Some(measure_accuracy(&trace.telemetry())?)
    } else {
        None
    };
    println!("# Table II — performance summary\n");
    let rows = comparison_table(Celsius(27.0), accuracy)?;
    print_table(
        &[
            "Related Work",
            "Device",
            "Process",
            "Cell",
            "Dataset",
            "Network",
            "Accuracy",
            "Energy",
            "TOPS/W",
        ],
        &rows
            .iter()
            .map(|r: &ComparisonEntry| {
                vec![
                    r.work.clone(),
                    r.device.into(),
                    r.process.into(),
                    r.cell.into(),
                    r.dataset.unwrap_or("/").into(),
                    r.network.unwrap_or("/").into(),
                    r.accuracy
                        .map(|a| format!("{:.2} %", a * 100.0))
                        .unwrap_or_else(|| "/".into()),
                    energy_cell(&r.energy),
                    r.tops_per_watt
                        .map(|t| format!("{t:.0}"))
                        .unwrap_or_else(|| "NA".into()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let this_work = rows.last().expect("this-work row");
    if let EnergyFigure::PerOperation(e) = this_work.energy {
        // The paper's ratios divide the competitors' per-op figures by
        // the 3.14 fJ per-MAC energy directly (1.4 pJ / 3.14 fJ = 445.9).
        let (reram, mtj) = energy_ratios(e);
        println!("\nenergy ratios vs this work (paper: ReRAM 64.6x, MTJ 445.9x):");
        println!("  ReRAM [14]: {reram:.1}x more energy per op");
        println!("  MTJ   [36]: {mtj:.1}x more energy per op");
    }
    let path = dump_json("table2_summary", &rows)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    Ok(())
}
