//! Serving and training benchmark for desh.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_tcp|storm_push|train_m1 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is the separate traced run that times each layer's public calls.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics. See `perfbench/README.md`.

mod e2e;
mod geometry;
mod host;
mod layers;
mod openloop;
mod oracle;
mod serve;
mod spans;
mod stats;

use desh::checkpoint::encode_checkpoint;
use desh::core::{config_hash, Desh, TrainedDesh};
use desh::loggen::{generate, Dataset, SystemProfile};
use geometry::{Workload, MODEL_SEED, TRAIN_SHARE};
use serve::{Input, Wire};
use std::fmt::Write as _;
use std::path::Path;

/// Where run records and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| bad("fleet_tcp|storm_push|train_m1"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("positive seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run prints.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line: those `BENCHMARK.json` names.
    metrics: Vec<(String, f64, &'static str)>,
    /// Measured and recorded, but too host-sensitive to gate on.
    ungated: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<38} {value:>16.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    pub fn ungated(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<38} {value:>16.4} {unit} (not gated)");
        self.ungated.push((name, value, unit));
    }

    /// Mark the run incorrect and say why.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        println!("FAILED: {}", why.as_ref());
        self.correct = false;
    }

    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to a String");
    }
    format!("{{{m}}}")
}

/// The M1 log the served model learns from, split 30/70 by time.
pub fn m1_split() -> (Dataset, Dataset) {
    generate(&SystemProfile::m1(), MODEL_SEED).split_by_time(TRAIN_SHARE)
}

/// The pipeline `desh-cli train` runs (default configuration).
pub fn pipeline() -> Desh {
    Desh::new(desh::core::DeshConfig::default(), MODEL_SEED)
}

/// The checkpoint bytes `desh-cli train` would write for this model.
pub fn checkpoint_of(desh: &Desh, t: &TrainedDesh) -> Vec<u8> {
    encode_checkpoint(
        &t.lead_model,
        &t.parsed_train.vocab,
        &t.phase1.chains,
        "",
        config_hash(&desh.cfg),
    )
}

/// The served stream for a workload, generated from the run's seed.
pub fn served_input(w: Workload, seed: u64) -> Input {
    let native = generate(&w.profile(), seed).records;
    let wire = w.over_tcp().then(|| Wire::render(&native));
    Input { native, wire }
}

fn write_record(args: &Args, report: &Report) -> std::io::Result<()> {
    let mut body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (k, v) in host::provenance() {
        write!(body, ", \"{k}\": \"{v}\"").expect("write to a String");
    }
    write!(
        body,
        ", \"result\": {}, \"ungated\": {}}}",
        report.json(),
        metrics_json(&report.ungated)
    )
    .expect("write to a String");
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let t = if args.trace { 1 } else { 0 };
    std::fs::write(
        dir.join(format!(
            "{}-seed{}-trace{t}.json",
            args.workload.name(),
            args.seed
        )),
        body + "\n",
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload fleet_tcp|storm_push|train_m1 --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} for {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (k, v) in host::provenance() {
        println!("  {k:<16} {v}");
    }
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if args.trace {
        layers::run(&args, &mut report, Path::new(OUT_DIR));
    } else {
        e2e::run(&args, &mut report);
    }
    if let Err(e) = write_record(&args, &report) {
        eprintln!("perfbench: cannot write the run record under {OUT_DIR}: {e}");
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_line_flags() {
        let argv = "--workload storm_push --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from);
        let a = parse_args(argv).expect("valid flags");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::StormPush, 7, 3.0, true)
        );
        assert!(parse_args(["--workload", "nope"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--seed", "1"].into_iter().map(String::from)).is_err());
    }

    /// Every end-to-end run repeats this at M1 scale with the default
    /// configuration and fails when the checkpoints differ.
    #[test]
    fn two_trainings_in_one_process_give_identical_checkpoints() {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let (head, _) = generate(&p, 7).split_by_time(TRAIN_SHARE);
        let desh = Desh::new(desh::core::DeshConfig::fast(), 7);
        let first = checkpoint_of(&desh, &desh.train(&head));
        let second = checkpoint_of(&desh, &desh.train(&head));
        assert_eq!(first, second);
    }
}
