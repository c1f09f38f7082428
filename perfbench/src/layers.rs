//! The traced run: times each layer's public calls from the benchmark's
//! own code, records them as spans, and derives the per-layer metrics,
//! the tracing overhead and the coverage check from them.

use crate::geometry::{LATENCY_PASS_S, SHARDS, SLOTS};
use crate::serve::{self, Wire};
use crate::spans::Spans;
use crate::stats::median;
use crate::{checkpoint_of, m1_split, pipeline, served_input, Args, Report};
use desh::checkpoint::decode_checkpoint;
use desh::core::{
    run_phase1_telemetry, run_phase2_telemetry, shard_of, BatchDetector, DeshConfig, IntakeConfig,
    LeadTimeModel, TrainedDesh,
};
use desh::loggen::{Label, LogRecord};
use desh::logparse::{
    extract_template, is_failure_terminal, label_template, parse_records_telemetry, Vocab,
};
use desh::nn::stacked::StackedScratch;
use desh::nn::{LstmState, Mat};
use desh::obs::{FlightRecorder, Telemetry, WarningLog};
use desh::util::Xoshiro256pp;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Saturation passes per side (untraced, traced) for the overhead.
const OVERHEAD_PASSES: usize = 3;
/// The coverage check holds when the layer costs explain this share of
/// the time spent in `ingest_chunk`.
const COVERAGE_TOLERANCE: (f64, f64) = (0.5, 1.5);
/// Each kernel timing runs for about this long.
const KERNEL_NS: f64 = 20e6;

pub fn run(args: &Args, report: &mut Report, out: &Path) {
    let w = args.workload;
    let mut sp = Spans::default();
    let root = sp.open("bench.run");

    // ---- set-up, with training split into its public phases.
    let (head, tail) = sp.time("bench.generate", |_| m1_split());
    let input = sp.time("bench.generate", |_| served_input(w, args.seed));
    let desh = pipeline();
    let trained = sp.time("bench.train", |sp| {
        let tel = Telemetry::disabled();
        let mut rng = Xoshiro256pp::seed_from_u64(desh.seed);
        let parsed_train = sp.time("logparse.parse_records", |_| {
            parse_records_telemetry(&head.records, Arc::new(Vocab::new()), &tel)
        });
        let phase1 = sp.time("core.phase1", |_| {
            run_phase1_telemetry(&parsed_train, &desh.cfg, &mut rng, &tel)
        });
        let lead_model = sp.time("core.phase2", |_| {
            run_phase2_telemetry(
                &phase1.chains,
                parsed_train.vocab_size(),
                &desh.cfg.phase2,
                &mut rng,
                &tel,
            )
        });
        TrainedDesh {
            phase1,
            lead_model,
            parsed_train,
        }
    });
    let checkpoint = sp.time("checkpoint.encode", |_| checkpoint_of(&desh, &trained));
    for _ in 0..5 {
        sp.time("checkpoint.decode", |_| {
            decode_checkpoint(checkpoint.clone()).expect("checkpoint decodes")
        });
    }
    let model = &trained.lead_model;

    // ---- serving: untraced and traced saturation passes, interleaved.
    let n = input.len();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PASSES {
        plain.push(serve::saturate(&checkpoint, &input, None).1);
        traced.push(serve::saturate(&checkpoint, &input, Some(&mut sp)).1);
    }
    let (cap_plain, cap_traced) = (n as f64 / median(&plain), n as f64 / median(&traced));
    let overhead_pct = 100.0 * (cap_plain - cap_traced) / cap_plain;

    // Queue wait under the heavier offered load, worst shard.
    let rate = w.loads()[1].1;
    let lines = n.min((rate * LATENCY_PASS_S).round() as usize);
    let (_, _, closed) = sp.time("bench.offer.load50", |_| {
        serve::offer(&checkpoint, &input, rate, lines)
    });
    let (mut wait_p50, mut wait_p99) = (0.0f64, 0.0f64);
    for s in 0..SHARDS {
        if let Some(h) = closed
            .snapshot
            .histogram(&format!("ingest.queue_wait_us[shard={s}]"))
        {
            wait_p50 = wait_p50.max(h.quantile(0.5));
            wait_p99 = wait_p99.max(h.quantile(0.99));
        }
    }

    // ---- loggen::record: the connection thread's line parse. For TCP
    // the parsed lines are the records the intake holds; pushed streams
    // are rendered just for this measurement.
    let rendered;
    let wire = match &input.wire {
        Some(wire) => wire,
        None => {
            rendered = Wire::render(&input.native);
            &rendered
        }
    };
    let parsed: Vec<LogRecord> = sp.time("loggen.parse", |_| {
        wire.lines()
            .map(|l| l.parse::<LogRecord>().expect("rendered lines parse"))
            .collect()
    });
    let records = match input.wire {
        Some(_) => parsed,
        None => input.native.clone(),
    };

    // ---- logparse: template, label, intern, and the batch parse.
    let templates: Vec<String> = sp.time("logparse.template", |_| {
        records.iter().map(|r| extract_template(&r.text)).collect()
    });
    let labels: Vec<Label> = sp.time("logparse.label", |_| {
        templates.iter().map(|t| label_template(t)).collect()
    });
    let train_vocab = decode_checkpoint(checkpoint.clone())
        .expect("checkpoint decodes")
        .vocab;
    let known = train_vocab.len();
    let nonsafe: Vec<&String> = templates
        .iter()
        .zip(&labels)
        .filter(|(_, l)| **l != Label::Safe)
        .map(|(t, _)| t)
        .collect();
    let ids: Vec<u32> = sp.time("logparse.intern", |_| {
        nonsafe.iter().map(|t| train_vocab.intern(t)).collect()
    });
    let unseen: HashSet<u32> = ids
        .iter()
        .copied()
        .filter(|&id| id as usize >= known)
        .collect();
    let terminals = nonsafe.iter().filter(|t| is_failure_terminal(t)).count();
    let fresh = decode_checkpoint(checkpoint.clone())
        .expect("checkpoint decodes")
        .vocab;
    sp.time("logparse.parse_records", |_| {
        black_box(parse_records_telemetry(
            &records,
            fresh,
            &Telemetry::disabled(),
        ))
    });
    let parse_records_s = sp
        .durations_ns("logparse.parse_records")
        .last()
        .copied()
        .unwrap_or(0.0)
        / 1e9;

    // ---- nn: gate GEMVs, fused rows, and the cell step per wave width.
    let kernels = nn_kernels(model, &mut sp);

    // ---- core::online: the sequential reference, single-threaded.
    let mut online =
        crate::oracle::detector(decode_checkpoint(checkpoint.clone()).expect("checkpoint decodes"));
    let online_warnings = sp
        .time("core.online.ingest", |_| {
            crate::oracle::reference(&mut online, &records)
        })
        .len();
    let online_ns = sp.total_ns("core.online.ingest") as f64;

    // ---- core::router + core::batch: each shard's substream in batch_max chunks.
    let shard: Vec<usize> = sp.time("core.router.shard_of", |_| {
        records.iter().map(|r| shard_of(r.node, SHARDS)).collect()
    });
    let mut substreams: Vec<Vec<LogRecord>> = vec![Vec::new(); SHARDS];
    for (r, &s) in records.iter().zip(&shard) {
        substreams[s].push(r.clone());
    }
    let tel = Telemetry::enabled();
    let ck = decode_checkpoint(checkpoint.clone()).expect("checkpoint decodes");
    let (mut scored, mut evicted, mut resident, mut batch_warnings) = (0u64, 0u64, 0u64, 0usize);
    let batch_max = IntakeConfig::default().batch_max;
    for sub in &substreams {
        let mut d = BatchDetector::with_telemetry(
            ck.model.clone(),
            Arc::clone(&ck.vocab),
            DeshConfig::default(),
            SLOTS,
            &tel,
        );
        d.attach_chains(&ck.chains);
        d.attach_tracing(
            Arc::new(FlightRecorder::new()),
            Arc::new(WarningLog::new(1024)),
        );
        let mut warnings = Vec::new();
        for chunk in sub.chunks(batch_max) {
            sp.time("core.batch.ingest_chunk", |_| {
                d.ingest_chunk(chunk, &mut warnings)
            });
        }
        scored += d.events_seen();
        evicted += d.evicted_nodes();
        resident += d.resident_nodes() as u64;
        batch_warnings += warnings.len();
    }
    let batch_ns = sp.total_ns("core.batch.ingest_chunk") as f64;
    let waves = tel
        .snapshot()
        .and_then(|s| {
            s.histogram("ingest.batch_size")
                .map(|h| h.sum() as f64 / h.count().max(1) as f64)
        })
        .unwrap_or(0.0);
    let sizes: Vec<f64> = substreams.iter().map(|s| s.len() as f64).collect();
    let skew = sizes.iter().cloned().fold(0.0, f64::max) / (n as f64 / SHARDS as f64);
    drop(substreams);

    // ---- core::intake: push_records (time blocked) and drain, in process.
    let intake = serve::open(&checkpoint, false);
    let push_span = sp.open("core.intake.push_pass");
    for chunk in records.chunks(4096) {
        let chunk = chunk.to_vec();
        sp.time("core.intake.push_records", |_| {
            intake.server.push_records(chunk)
        });
    }
    sp.time("core.intake.drain", |_| intake.server.drain());
    sp.close(push_span);
    let pushed = intake.close();
    let push_block_us = median(&sp.durations_ns("core.intake.push_records")) / 1e3;

    // ---- phase 3 on the tail split.
    sp.time("core.phase3", |_| black_box(desh.evaluate(&trained, &tail)));
    sp.close(root);

    // ---- coverage: layer costs against the time spent in ingest_chunk.
    // Per record the batch detector extracts a template and, for non-Safe
    // records, steps the model; label and intern run once per distinct
    // template and shard (the detector memoises them).
    let per = |name: &str, count: usize| sp.total_ns(name) as f64 / count.max(1) as f64;
    let (template_ns, label_ns, intern_ns) = (
        per("logparse.template", n),
        per("logparse.label", n),
        per("logparse.intern", nonsafe.len()),
    );
    let distinct: HashSet<&String> = templates.iter().collect();
    let distinct_nonsafe: HashSet<&&String> = nonsafe.iter().collect();
    let wave_width = [1usize, 2, 4]
        .into_iter()
        .min_by(|a, b| {
            (*a as f64 - waves)
                .abs()
                .total_cmp(&(*b as f64 - waves).abs())
        })
        .expect("non-empty ladder");
    let step_ns = kernels.step_ns[[1, 2, 4]
        .iter()
        .position(|&x| x == wave_width)
        .expect("on the ladder")];
    let parts = [
        ("template", template_ns * n as f64),
        ("label", label_ns * (SHARDS * distinct.len()) as f64),
        (
            "intern",
            intern_ns * (SHARDS * distinct_nonsafe.len()) as f64,
        ),
        ("step", step_ns * scored as f64),
    ];
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    let coverage = explained / batch_ns;

    println!("traced run: {n} records, {} non-Safe ({terminals} terminal), {} warnings online / {} batched / {} pushed",
        nonsafe.len(), online_warnings, batch_warnings, pushed.warnings.len());
    println!("  capacity untraced {cap_plain:.0} ev/s, traced {cap_traced:.0} ev/s");
    println!("  kernel shapes: {}", kernels.shapes);
    let within = (COVERAGE_TOLERANCE.0..=COVERAGE_TOLERANCE.1).contains(&coverage);
    println!(
        "  coverage: {} = {:.1} ms of {:.1} ms in ingest_chunk (step at w={wave_width}, {scored} scored) -> {coverage:.3}, {} tolerance {}..{}",
        parts.iter().map(|(k, v)| format!("{k} {:.1} ms", v / 1e6)).collect::<Vec<_>>().join(" + "),
        explained / 1e6,
        batch_ns / 1e6,
        if within { "within" } else { "OUTSIDE" },
        COVERAGE_TOLERANCE.0,
        COVERAGE_TOLERANCE.1
    );
    if pushed.processed != n as u64 {
        report.fail(format!(
            "push pass verdicted {} of {n} records",
            pushed.processed
        ));
    }
    report.attempted = n as u64;
    report.failed = n as u64 - pushed.processed.min(n as u64);

    println!("metrics:");
    report.metric("loggen.parse.ns_per_line", per("loggen.parse", n), "ns");
    report.metric("logparse.template.ns_per_record", template_ns, "ns");
    report.metric("logparse.label.ns_per_record", label_ns, "ns");
    report.metric("logparse.intern.ns_per_record", intern_ns, "ns");
    report.metric(
        "logparse.safe_share",
        1.0 - nonsafe.len() as f64 / n as f64,
        "ratio",
    );
    report.metric("logparse.unseen_templates", unseen.len() as f64, "count");
    report.metric("logparse.parse_records_s", parse_records_s, "s");
    for (name, v) in &kernels.gemv {
        report.metric(format!("nn.gemv.ns.{name}"), *v, "ns");
    }
    report.metric("nn.gemv_rows.ns_per_row.rows2", kernels.rows_ns[0], "ns");
    report.metric("nn.gemv_rows.ns_per_row.rows4", kernels.rows_ns[1], "ns");
    for (i, w) in [1, 2, 4].into_iter().enumerate() {
        report.metric(format!("nn.step.ns_per_row.w{w}"), kernels.step_ns[i], "ns");
    }
    report.metric("core.online.ev_s", n as f64 / (online_ns / 1e9), "events/s");
    report.metric(
        "core.online.scored_share",
        online.events_seen() as f64 / n as f64,
        "ratio",
    );
    report.metric("core.batch.ev_s", n as f64 / (batch_ns / 1e9), "events/s");
    report.metric("core.batch.mean_wave_rows", waves, "rows");
    report.metric("core.batch.evicted_nodes", evicted as f64, "count");
    report.metric("core.batch.resident_nodes", resident as f64, "count");
    report.metric(
        "core.router.ns_per_record",
        per("core.router.shard_of", n),
        "ns",
    );
    report.metric("core.intake.push_block_us", push_block_us, "us");
    report.metric(
        "core.intake.drain_ms",
        sp.total_ns("core.intake.drain") as f64 / 1e6,
        "ms",
    );
    report.metric("core.intake.queue_wait_p50_us", wait_p50, "us");
    report.metric("core.intake.queue_wait_p99_us", wait_p99, "us");
    report.metric("core.intake.shard_skew", skew, "ratio");
    report.metric(
        "core.phase1_s",
        sp.total_ns("core.phase1") as f64 / 1e9,
        "s",
    );
    report.metric(
        "core.phase2_s",
        sp.total_ns("core.phase2") as f64 / 1e9,
        "s",
    );
    report.metric(
        "core.phase3_s",
        sp.total_ns("core.phase3") as f64 / 1e9,
        "s",
    );
    report.metric(
        "checkpoint.decode_ms",
        median(&sp.durations_ns("checkpoint.decode")) / 1e6,
        "ms",
    );
    report.metric("checkpoint.bytes", checkpoint.len() as f64, "bytes");
    report.metric("trace.overhead_pct", overhead_pct, "%");
    report.metric("trace.coverage", coverage, "ratio");

    std::fs::create_dir_all(out).ok();
    let path = out.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    match sp.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

struct Kernels {
    shapes: String,
    gemv: Vec<(&'static str, f64)>,
    /// ns per row for 2 and 4 fused rows at the recurrent gate shape.
    rows_ns: [f64; 2],
    /// ns per row of a full cell step (every layer plus head) at wave
    /// widths 1, 2 and 4.
    step_ns: [f64; 3],
}

/// Time `f` for about `KERNEL_NS`, returning ns per call.
fn per_call(sp: &mut Spans, name: &str, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calibrate = 0usize;
    while t.elapsed().as_nanos() < 1_000_000 {
        f();
        calibrate += 1;
    }
    let reps = ((KERNEL_NS / 1e6) * calibrate as f64).max(1.0) as usize;
    sp.time(name, |_| {
        for _ in 0..reps {
            f();
        }
    });
    sp.durations_ns(name).last().copied().unwrap_or(0.0) / reps as f64
}

fn nn_kernels(model: &LeadTimeModel, sp: &mut Spans) -> Kernels {
    let net = &model
        .net
        .f32()
        .expect("served checkpoints hold the f32 network")
        .net;
    let wx0 = &net.layers[0].wx.w;
    let wh = &net.layers[0].wh.w;
    let head = &net.head.w.w;
    let (dim, gates, hidden) = (wx0.rows(), wx0.cols(), wh.rows());
    let sample = model.vectorize(30.0, 3);
    let x0 = Mat::from_vec(1, dim, sample.clone());
    let h = Mat::from_fn(1, hidden, |_, c| ((c as f32) * 0.37).sin() * 0.5);
    let h4 = Mat::from_fn(4, hidden, |r, c| ((c as f32 + r as f32) * 0.37).sin() * 0.5);
    let mut out = Mat::zeros(1, gates);
    let mut out_head = Mat::zeros(1, head.cols());
    let mut out4 = Mat::zeros(4, gates);
    let gemv = vec![
        (
            "gate_x0",
            per_call(sp, "nn.gemv.gate_x0", || {
                x0.matmul_into(black_box(wx0), &mut out)
            }),
        ),
        (
            "gate_h",
            per_call(sp, "nn.gemv.gate_h", || {
                h.matmul_into(black_box(wh), &mut out)
            }),
        ),
        (
            "head",
            per_call(sp, "nn.gemv.head", || {
                h.matmul_into(black_box(head), &mut out_head)
            }),
        ),
    ];
    let rows_ns = [
        per_call(sp, "nn.gemv_rows.rows2", || {
            h4.matmul_rows_into(&[0, 1], black_box(wh), &mut out4)
        }) / 2.0,
        per_call(sp, "nn.gemv_rows.rows4", || {
            h4.matmul_rows_into(&[0, 1, 2, 3], black_box(wh), &mut out4)
        }) / 4.0,
    ];
    let x = Mat::from_fn(4, dim, |_, c| sample[c]);
    let mut states: Vec<LstmState> = (0..net.layers.len())
        .map(|_| LstmState::zeros(4, hidden))
        .collect();
    let mut ws = StackedScratch::new();
    let rows = [0usize, 1, 2, 3];
    let mut step_ns = [0.0; 3];
    for (i, w) in [1usize, 2, 4].into_iter().enumerate() {
        step_ns[i] = per_call(sp, &format!("nn.step.w{w}"), || {
            black_box(net.step_infer_rows_ws(&x, &rows[..w], &mut states, &mut ws));
        }) / w as f64;
    }
    Kernels {
        shapes: format!(
            "gate_x0 k={dim} n={gates}, gate_h k={hidden} n={gates}, head k={hidden} n={}, {} layers",
            head.cols(),
            net.layers.len()
        ),
        gemv,
        rows_ns,
        step_ns,
    }
}
