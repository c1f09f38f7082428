//! The end-to-end run (tracing off): set-up, saturation capacity,
//! open-loop verdict latency at the frozen loads, and every warning
//! checked against the sequential reference.

use crate::geometry::{Workload, LATENCY_PASS_S, MAX_GENERATOR_LATE_P99_US, TRAININGS};
use crate::host::peak_rss_mib;
use crate::openloop::OpenLoop;
use crate::oracle::{self, WarnKey};
use crate::serve::Input;
use crate::serve::{self, Closed};
use crate::stats::{median, percentile, sorted, tail};
use crate::{checkpoint_of, m1_split, pipeline, served_input, Args, Report};
use desh::checkpoint::decode_checkpoint;
use desh::core::{Desh, TrainedDesh};
use desh::loggen::{Dataset, LogRecord};
use std::time::{Duration, Instant};

/// Generation-only set-ups (`train_m1`) are repeated this often and the
/// median kept.
const SETUP_REPS: usize = 5;
/// Rounds of passes a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Saturation passes per round.
const SATURATION_PASSES_PER_ROUND: usize = 2;
/// Open-loop passes per load that must keep to schedule. A load is offered
/// in each round until it has them, and rounds go on past the deadline
/// until every load does; later rounds are saturation passes only.
/// Capacity is gated, the open-loop latency is not, so capacity gets the
/// rest of the run.
const VALID_PASSES: usize = 2;

/// One offered load and what its valid passes measured.
struct Load {
    name: &'static str,
    rate: f64,
    /// Lines per pass: the first `rate × LATENCY_PASS_S`, or all.
    lines: usize,
    /// Per valid pass: the generator's p99 lateness and the median verdict
    /// latency, µs.
    passes: Vec<(f64, f64)>,
    /// Ticks and generator lateness of every valid pass, pooled.
    pooled: Vec<f64>,
    late: Vec<f64>,
    attempts: usize,
}

impl Load {
    fn new(name: &'static str, rate: f64, n: usize) -> Load {
        let lines = n.min((rate * LATENCY_PASS_S).round() as usize);
        Load {
            name,
            rate,
            lines,
            passes: Vec::new(),
            pooled: Vec::new(),
            late: Vec::new(),
            attempts: 0,
        }
    }

    /// Pool a pass's ticks unless its generator fell behind or some of
    /// its ticks never got their verdicts.
    fn add(&mut self, ol: OpenLoop) {
        self.attempts += 1;
        let late_p99 = percentile(&sorted(ol.late_us.clone()), 99.0);
        if late_p99 > MAX_GENERATOR_LATE_P99_US || ol.unfinished > 0 {
            println!(
                "  {} pass {} invalid: generator late p99 {late_p99:.0} us, {} of {} ticks never verdicted",
                self.name, self.attempts, ol.unfinished, ol.ticks
            );
            return;
        }
        let lat = sorted(ol.latency_us);
        match tail(&lat, 50.0) {
            Some((_, p50)) => self.passes.push((late_p99, p50)),
            None => panic!("a {}-tick pass is too short for a median", lat.len()),
        }
        self.pooled.extend(lat);
        self.late.extend(ol.late_us);
    }
}

/// Line and warning accounting over every pass of a run.
#[derive(Default)]
struct Ledger {
    sent: u64,
    verdicted: u64,
    /// Each pass's line count and warnings, compared with the reference
    /// once it exists.
    warnings: Vec<(usize, Vec<WarnKey>)>,
    /// Per-pass server set-up: decode, detectors, intake, connect.
    setup_s: Vec<f64>,
}

impl Ledger {
    fn add(&mut self, n: usize, setup_s: f64, closed: Closed) {
        self.sent += n as u64;
        self.verdicted += closed.processed;
        self.warnings.push((n, closed.warnings));
        self.setup_s.push(setup_s);
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let w = args.workload;
    // ---- set-up: generation, training, checkpoint.
    let t = Instant::now();
    let (mut head, mut tail_split) = m1_split();
    let mut input = served_input(w, args.seed);
    let mut gen_s = vec![t.elapsed().as_secs_f64()];
    if w == Workload::TrainM1 {
        for _ in 1..SETUP_REPS {
            let t = Instant::now();
            (head, tail_split) = m1_split();
            input = served_input(w, args.seed);
            gen_s.push(t.elapsed().as_secs_f64());
        }
    }
    let n = input.len();
    println!(
        "served stream: {n} lines, {}",
        if w.over_tcp() {
            "raw lines over one TCP connection"
        } else {
            "native records via push_records"
        }
    );

    // The first of the `TRAININGS` trainings is set-up, as an operator
    // trains once; the rest follow the timed phase, so that a passing
    // slowdown of the host seldom touches every one.
    let desh = pipeline();
    let (first_s, trained, checkpoint, encode_s) = train(&desh, &head, 1);
    let mut train_s = vec![first_s];

    // ---- timed phase: rounds of saturation passes, each with one
    // open-loop pass per load until that load has its passes.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut ledger = Ledger::default();
    let mut secs = Vec::new();
    let mut loads: Vec<Load> = w
        .loads()
        .into_iter()
        .map(|(name, rate)| Load::new(name, rate, n))
        .collect();
    // Rounds continue past the deadline, for at most as long again, while
    // a load has too few passes that kept to schedule.
    let overtime = deadline + Duration::from_secs_f64(args.seconds);
    let short = |loads: &[Load]| loads.iter().any(|l| l.passes.len() < VALID_PASSES);
    while secs.len() < MIN_ROUNDS * SATURATION_PASSES_PER_ROUND
        || Instant::now() < deadline
        || (short(&loads) && Instant::now() < overtime)
    {
        for _ in 0..SATURATION_PASSES_PER_ROUND {
            let (setup_s, s, closed) = serve::saturate(&checkpoint, &input, None);
            secs.push(s);
            ledger.add(n, setup_s, closed);
        }
        for load in loads.iter_mut().filter(|l| l.passes.len() < VALID_PASSES) {
            let (setup_s, ol, closed) = serve::offer(&checkpoint, &input, load.rate, load.lines);
            ledger.add(load.lines, setup_s, closed);
            load.add(ol);
        }
    }
    let capacity = n as f64 / median(&secs);
    println!(
        "capacity: {} saturation passes of {n} lines, seconds per pass {:?}",
        secs.len(),
        secs.iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let peak_rss = peak_rss_mib();

    for i in 2..=TRAININGS {
        let (s, _, bytes, _) = train(&desh, &head, i);
        train_s.push(s);
        if bytes != checkpoint {
            report.fail(format!(
                "training {i} is not bitwise identical to training 1"
            ));
        }
    }
    let fastest_train_s = train_s.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_once = median(&gen_s)
        + if w == Workload::TrainM1 {
            0.0
        } else {
            fastest_train_s + encode_s
        };

    // ---- correctness: the sequential reference over the identical input.
    let reference_input = reference_records(&input);
    let mut det =
        oracle::detector(decode_checkpoint(checkpoint.clone()).expect("checkpoint decodes"));
    let reference = oracle::reference(&mut det, &reference_input);
    let (mut symdiff, mut expected, mut first) = (0, 0, None);
    for (lines, got) in &ledger.warnings {
        let want = oracle::prefix(&reference, *lines);
        let d = oracle::compare(&want, got);
        symdiff += d.symdiff;
        expected += want.len();
        first = first.or(d.first);
    }
    let compared = ledger.warnings.len();
    let mismatch = oracle::mismatch_share(symdiff, expected);
    let lines_failed = ledger.sent - ledger.verdicted;
    let report_quality = desh.evaluate(&trained, &tail_split);

    // ---- report.
    println!(
        "reference: {} warnings from a sequential OnlineDetector over {} parsed records",
        reference.len(),
        reference_input.len()
    );
    println!(
        "warnings: {symdiff} of {expected} expected over {compared} passes differ from the reference \
         (warning_mismatch_share {mismatch:.6})"
    );
    if let Some(((node, at, bits), in_reference)) = first {
        println!(
            "  first differing warning: node {node} at {} lead {:.3} s, {}",
            at.0,
            f64::from_bits(bits),
            if in_reference {
                "in the reference only"
            } else {
                "from the intake only"
            }
        );
    }
    println!(
        "lines: {} sent, {} verdicted (lines_failed_share {:.6})",
        ledger.sent,
        ledger.verdicted,
        lines_failed as f64 / ledger.sent as f64
    );
    report.attempted = ledger.sent;
    report.failed = lines_failed;
    if lines_failed > 0 && w.mismatch_fails() {
        report.fail(format!("{lines_failed} lines were never verdicted"));
    }
    if symdiff > 0 && w.mismatch_fails() {
        report.fail(format!(
            "{symdiff} warnings differ from the sequential reference"
        ));
    }

    println!("metrics:");
    report.metric("capacity_ev_s", capacity, "events/s");
    for load in &mut loads {
        let (name, valid) = (load.name, load.passes.len());
        println!(
            "{name}: {:.0} ev/s offered, first {} lines per pass, {valid} of {} passes valid",
            load.rate, load.lines, load.attempts
        );
        if valid == 0 {
            println!("  no pass kept to schedule: no latency for {name}");
            continue;
        }
        load.pooled.sort_by(f64::total_cmp);
        load.late.sort_by(f64::total_cmp);
        let ticks = load.pooled.len() as f64;
        println!(
            "  per pass p50 {:?} us",
            load.passes.iter().map(|p| p.1).collect::<Vec<_>>()
        );
        report.ungated(
            format!("verdict_p50_us.{name}"),
            calm_median(&load.passes),
            "us",
        );
        report.ungated(
            format!("verdict_p90_us.{name}"),
            percentile(&load.pooled, 90.0),
            "us",
        );
        match tail(&load.pooled, 99.0) {
            Some((99.0, p99)) => report.ungated(format!("verdict_p99_us.{name}"), p99, "us"),
            _ => println!("  {ticks} ticks are too few for a p99"),
        }
        report.ungated(format!("bench.ticks.{name}"), ticks, "count");
        report.ungated(
            format!("bench.generator_late_p99_us.{name}"),
            percentile(&load.late, 99.0),
            "us",
        );
    }
    report.metric(
        "lines_verdicted_share",
        ledger.verdicted as f64 / ledger.sent as f64,
        "ratio",
    );
    report.metric("warning_match_share", (1.0 - mismatch).max(0.0), "ratio");
    report.metric("setup_s", setup_once + median(&ledger.setup_s), "s");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("train_s", fastest_train_s, "s");
    report.metric("recall", report_quality.confusion.recall(), "ratio");
    report.metric("precision", report_quality.confusion.precision(), "ratio");
}

/// Training `i` of the run: its wall time, the model, its checkpoint and
/// the time taken to encode it.
fn train(desh: &Desh, head: &Dataset, i: usize) -> (f64, TrainedDesh, Vec<u8>, f64) {
    let t = Instant::now();
    let trained = desh.train(head);
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bytes = checkpoint_of(desh, &trained);
    let encode_s = t.elapsed().as_secs_f64();
    println!(
        "training {i}: {train_s:.3} s, {} chains, checkpoint {} bytes",
        trained.phase1.chains.len(),
        bytes.len()
    );
    (train_s, trained, bytes, encode_s)
}

/// What the intake should end up holding: the lines as the server parses
/// them (the clock wraps at midnight), or the pushed records themselves.
fn reference_records(input: &Input) -> Vec<LogRecord> {
    match &input.wire {
        Some(wire) => wire
            .lines()
            .map(|l| l.parse().expect("rendered lines parse"))
            .collect(),
        None => input.native.clone(),
    }
}

/// Median verdict latency over the calmer half of the passes: those whose
/// generator ran least late. Host stalls delay the generator and the
/// intake alike, so this keeps a passing disturbance of the host out of a
/// number that describes the intake.
fn calm_median(passes: &[(f64, f64)]) -> f64 {
    let mut by_lateness = passes.to_vec();
    by_lateness.sort_by(|a, b| a.0.total_cmp(&b.0));
    let calm: Vec<f64> = by_lateness[..passes.len().div_ceil(2)]
        .iter()
        .map(|p| p.1)
        .collect();
    median(&calm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_median_keeps_the_passes_whose_generator_ran_least_late() {
        // (generator late p99 µs, pass median µs): the two disturbed
        // passes are left out; the median of the calm three is kept.
        let passes = [
            (90.0, 510.0),
            (8_000.0, 1_400.0),
            (120.0, 500.0),
            (60.0, 490.0),
            (5_000.0, 990.0),
        ];
        assert_eq!(calm_median(&passes), 500.0);
        assert_eq!(calm_median(&passes[..1]), 510.0);
    }
}
