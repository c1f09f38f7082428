//! Fleet-intake throughput check.
//!
//! The single-stream detector sustains ~520k events/s on this hardware
//! (`results/BENCH_fig10.json`): enough headroom for one system, but a
//! fleet intake multiplexing many nodes wants more. This experiment
//! pushes a full test split through the sharded streaming intake — the
//! same path `desh-cli serve` runs — where same-tick cell steps from
//! different nodes fuse into multi-row batches, and compares sustained
//! throughput against (a) a sequential single-detector replay re-measured
//! in this same process and (b) the recorded fig10 single-stream figure.
//!
//! Flags:
//! * `--smoke` — tiny profile + fast config, for CI gating.
//! * `--shards <n>` / `--slots <n>` — intake geometry (default 8 × 256).
//! * `--min-ratio <f>` — exit non-zero unless batched-intake throughput
//!   is at least `f`× the in-process sequential baseline (the
//!   perf-regression tripwire; the fig10 ratio is recorded alongside).
//! * `--json <path>` — write measurements (defaults to
//!   `results/BENCH_serve.json` in full runs; off in smoke runs).

use desh_bench::{experiment_config, EXPERIMENT_SEED};
use desh_core::{Desh, DeshConfig, IntakeConfig, IntakeServer, OnlineDetector};
use desh_loggen::{generate, SystemProfile};
use desh_obs::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Single-stream detector throughput recorded in BENCH_fig10.json on this
/// hardware (M1 profile, f32). The fleet-intake acceptance bar is 2× this.
const FIG10_SINGLE_STREAM_EV_S: f64 = 519_341.6;

struct Args {
    smoke: bool,
    shards: usize,
    slots: usize,
    min_ratio: Option<f64>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        shards: 8,
        slots: 256,
        min_ratio: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--shards" => {
                let v = it.next().expect("--shards needs a value");
                args.shards = v.parse().expect("--shards must be an integer");
            }
            "--slots" => {
                let v = it.next().expect("--slots needs a value");
                args.slots = v.parse().expect("--slots must be an integer");
            }
            "--min-ratio" => {
                let v = it.next().expect("--min-ratio needs a value");
                args.min_ratio = Some(v.parse().expect("--min-ratio must be a number"));
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.json.is_none() && !args.smoke {
        args.json = Some("results/BENCH_serve.json".to_string());
    }
    args
}

fn main() {
    let args = parse_args();
    let (profile, cfg) = if args.smoke {
        (SystemProfile::tiny(), DeshConfig::fast())
    } else {
        (SystemProfile::m1(), experiment_config())
    };
    let dataset = generate(&profile, EXPERIMENT_SEED);
    let (train, test) = dataset.split_by_time(0.3);
    let desh = Desh::new(cfg, EXPERIMENT_SEED);
    println!("training...");
    let trained = desh.train(&train);
    let model = trained.lead_model.clone();
    let vocab = &trained.parsed_train.vocab;
    let kernel_backend = desh_nn::kernel_backend_name();
    println!("scoring path: {kernel_backend} kernels, f32 weights");
    let events = test.records.len() as f64;
    let passes = if args.smoke { 2 } else { 3 };

    // Sequential baseline, re-measured in this process so the ratio is
    // apples-to-apples on this exact host/build. Warm-up pass untimed,
    // then best of `passes`.
    let run_sequential = || {
        let mut det = OnlineDetector::new(model.clone(), Arc::clone(vocab), desh.cfg.clone());
        det.attach_chains(&trained.phase1.chains);
        let t0 = Instant::now();
        let mut warnings = 0usize;
        for r in &test.records {
            if det.ingest(r).is_some() {
                warnings += 1;
            }
        }
        (t0.elapsed().as_secs_f64(), warnings)
    };
    run_sequential();
    let mut seq_best = f64::INFINITY;
    let mut seq_warnings = 0usize;
    for _ in 0..passes {
        let (dt, w) = run_sequential();
        seq_best = seq_best.min(dt);
        seq_warnings = w;
    }
    let seq_tput = events / seq_best;
    println!("\nsequential single-stream: {seq_tput:.0} events/s ({seq_warnings} warnings)");

    // Sharded batched intake: pre-parsed records through push_record →
    // bounded queues → shard workers → wave-batched GEMM scoring. The
    // timed window spans first push to drain (all records fully scored).
    let run_intake = || {
        let telemetry = Telemetry::enabled();
        let detectors: Vec<OnlineDetector> = (0..args.shards)
            .map(|_| {
                let mut d = OnlineDetector::with_telemetry(
                    model.clone(),
                    Arc::clone(vocab),
                    desh.cfg.clone(),
                    args.slots,
                    &telemetry,
                );
                d.attach_chains(&trained.phase1.chains);
                d
            })
            .collect();
        let server = IntakeServer::start(detectors, IntakeConfig::default(), &telemetry);
        let mut feed = test.records.to_vec();
        let t0 = Instant::now();
        while !feed.is_empty() {
            let take = feed.len().min(4096);
            server.push_records(feed.drain(..take));
        }
        server.drain();
        let dt = t0.elapsed().as_secs_f64();
        let warnings = server.take_warnings().len();
        assert_eq!(server.records_dropped(), 0, "Block backpressure dropped");
        let snap = telemetry.snapshot().expect("telemetry enabled");
        let waves = snap.histogram("ingest.batch_size").expect("waves recorded");
        let mean_wave = waves.sum() as f64 / waves.count().max(1) as f64;
        // Worst shard's enqueue→drain wait p99: the queueing component of
        // end-to-end serve latency, next to the scoring-side budget that
        // realtime_check gates.
        let queue_wait_p99 = (0..args.shards)
            .filter_map(|s| snap.histogram(&format!("ingest.queue_wait_us[shard={s}]")))
            .map(|h| h.quantile(0.99))
            .fold(0.0f64, f64::max);
        server.stop();
        (dt, warnings, mean_wave, queue_wait_p99)
    };
    run_intake();
    let mut intake_best = f64::INFINITY;
    let mut intake_warnings = 0usize;
    let mut mean_wave = 0.0f64;
    let mut queue_wait_p99 = 0.0f64;
    for _ in 0..passes {
        let (dt, w, mw, qw) = run_intake();
        if dt < intake_best {
            intake_best = dt;
            mean_wave = mw;
            queue_wait_p99 = qw;
        }
        intake_warnings = w;
    }
    let intake_tput = events / intake_best;
    let ratio_vs_seq = intake_tput / seq_tput;
    let ratio_vs_fig10 = intake_tput / FIG10_SINGLE_STREAM_EV_S;

    assert_eq!(
        intake_warnings, seq_warnings,
        "sharded intake and sequential replay disagree on warning count"
    );
    println!(
        "\nFleet intake ({} shards x {} slots, system {})",
        args.shards, args.slots, profile.name
    );
    println!(
        "  events per pass     : {events:.0}  ({intake_warnings} warnings, matching sequential)"
    );
    println!("  batched throughput  : {intake_tput:.0} events/s");
    println!("  mean wave occupancy : {mean_wave:.1} rows");
    println!("  queue wait p99      : {queue_wait_p99:.0} us (worst shard)");
    println!("  vs in-process seq   : {ratio_vs_seq:.2}x");
    println!("  vs fig10 single-stream ({FIG10_SINGLE_STREAM_EV_S:.0} ev/s): {ratio_vs_fig10:.2}x");

    if let Some(path) = &args.json {
        let body = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"serve_fleet_intake\",\n",
                "  \"profile\": \"{}\",\n",
                "  \"smoke\": {},\n",
                "  \"kernel_backend\": \"{}\",\n",
                "  \"shards\": {},\n",
                "  \"slots\": {},\n",
                "  \"events\": {},\n",
                "  \"warnings\": {},\n",
                "  \"sequential_events_per_s\": {:.1},\n",
                "  \"batched_events_per_s\": {:.1},\n",
                "  \"mean_wave_rows\": {:.1},\n",
                "  \"queue_wait_p99_us\": {:.1},\n",
                "  \"ratio_vs_sequential\": {:.2},\n",
                "  \"fig10_single_stream_events_per_s\": {:.1},\n",
                "  \"ratio_vs_fig10\": {:.2},\n",
                "  \"dropped\": 0\n",
                "}}\n"
            ),
            profile.name,
            args.smoke,
            kernel_backend,
            args.shards,
            args.slots,
            events as u64,
            intake_warnings,
            seq_tput,
            intake_tput,
            mean_wave,
            queue_wait_p99,
            ratio_vs_seq,
            FIG10_SINGLE_STREAM_EV_S,
            ratio_vs_fig10,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, body).expect("write bench json");
        println!("wrote {path}");
    }

    if let Some(floor) = args.min_ratio {
        if ratio_vs_seq < floor {
            eprintln!(
                "FAIL: batched intake {ratio_vs_seq:.2}x sequential is below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("batched intake {ratio_vs_seq:.2}x sequential meets the {floor:.2}x floor");
    }
}
