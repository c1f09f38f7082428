//! End-to-end incident capsules: seal a capture during a live replay,
//! then re-execute the incident from the `.dcap` artifact alone and
//! prove bit-exact agreement — or, when the environment deliberately
//! differs, a structured diff naming the first divergent event.

use desh::checkpoint::decode_checkpoint;
use desh::core::{render_report, replay_capsule, OnlineDetector, ReplayOptions};
use desh::obs::{Capsule, CapsuleContext, CapsuleRecorder, CaptureTap};
use desh::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desh-capsule-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Train a tiny model (fixed dataset, per-test training seed), stream the
/// held-out split through a capture-armed detector, and seal one capsule
/// spanning the whole stream. Returns the capsule plus the checkpoint
/// bytes sealed *before* streaming — live interning grows the shared
/// vocabulary, and replay must start from the pristine one, exactly as a
/// `.dshm` on disk would.
fn capture_fixture(train_seed: u64, dir: &Path) -> (Capsule, Vec<u8>) {
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d = generate(&p, 777);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), train_seed);
    let trained = desh.train(&train);
    let ckpt = desh::checkpoint::encode_checkpoint(
        &trained.lead_model,
        &trained.parsed_train.vocab,
        &trained.phase1.chains,
        "e2e-run",
        0xde5,
    );

    let model = trained.lead_model.clone();
    let vocab = trained.parsed_train.vocab.clone();
    let mut det = OnlineDetector::new(model, Arc::clone(&vocab), desh.cfg.clone());
    det.attach_chains(&trained.phase1.chains);
    let tap = Arc::new(CaptureTap::with_ring(test.records.len() + 8));
    det.attach_capture(Arc::clone(&tap));
    let ctx = CapsuleContext {
        checkpoint: String::new(),
        run_id: "e2e-run".into(),
        config_hash: 0xde5,
        backend: desh::nn::kernel_backend_name().to_string(),
        precision: "f32".into(),
        shards: String::new(),
        vocab_len: vocab.len() as u64,
        chains: trained.phase1.chains.len() as u64,
        session_gap_secs: desh.cfg.episodes.session_gap_secs,
        mse_threshold: desh.cfg.phase3.mse_threshold,
        min_evidence: desh.cfg.phase3.min_evidence as u64,
        score_scale: desh.cfg.phase3.score_scale,
    };
    let rec = CapsuleRecorder::new(tap, ctx, dir.to_path_buf()).unwrap();

    let mut fired = 0usize;
    let mut last = 0u64;
    for r in &test.records {
        last = r.time.0;
        if det.ingest(r).is_some() {
            fired += 1;
        }
    }
    assert!(fired > 0, "test split fired no warnings");
    let path = rec
        .capture("manual", None, last)
        .unwrap()
        .expect("stream produced nothing to capture");
    (Capsule::read(&path).unwrap(), ckpt)
}

#[test]
fn capsule_captured_under_batching_replays_bit_exactly() {
    // The fleet intake scores through the wave-batched detector. A
    // capsule sealed from that path must replay bit-exactly through the
    // *sequential* replayer: same capture order (the deferred in-order
    // walk), same trace words (row-wise kernels + shared decision code).
    let dir = temp_dir("batched");
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d = generate(&p, 777);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), 777);
    let trained = desh.train(&train);
    let ckpt = desh::checkpoint::encode_checkpoint(
        &trained.lead_model,
        &trained.parsed_train.vocab,
        &trained.phase1.chains,
        "e2e-batched",
        0xba7c,
    );

    let vocab = trained.parsed_train.vocab.clone();
    let mut det = OnlineDetector::with_telemetry(
        trained.lead_model.clone(),
        Arc::clone(&vocab),
        desh.cfg.clone(),
        64,
        &Telemetry::disabled(),
    );
    det.attach_chains(&trained.phase1.chains);
    let tap = Arc::new(CaptureTap::with_ring(test.records.len() + 8));
    det.attach_capture(Arc::clone(&tap));
    let ctx = CapsuleContext {
        checkpoint: String::new(),
        run_id: "e2e-batched".into(),
        config_hash: 0xba7c,
        backend: desh::nn::kernel_backend_name().to_string(),
        precision: "f32".into(),
        shards: String::new(),
        vocab_len: vocab.len() as u64,
        chains: trained.phase1.chains.len() as u64,
        session_gap_secs: desh.cfg.episodes.session_gap_secs,
        mse_threshold: desh.cfg.phase3.mse_threshold,
        min_evidence: desh.cfg.phase3.min_evidence as u64,
        score_scale: desh.cfg.phase3.score_scale,
    };
    let rec = CapsuleRecorder::new(tap, ctx, dir.to_path_buf()).unwrap();

    let mut warnings = Vec::new();
    for chunk in test.records.chunks(128) {
        det.ingest_chunk(chunk, &mut warnings);
    }
    assert!(!warnings.is_empty(), "batched stream fired no warnings");
    let last = test.records.last().unwrap().time.0;
    let path = rec
        .capture("manual", None, last)
        .unwrap()
        .expect("batched stream produced nothing to capture");
    let capsule = Capsule::read(&path).unwrap();
    assert!(capsule.traced_events() > 0, "no decision traces captured");
    assert!(!capsule.warnings.is_empty(), "no warnings captured");

    let ck = decode_checkpoint(ckpt).unwrap();
    let report = replay_capsule(
        &capsule,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions::default(),
    )
    .unwrap();
    assert!(
        report.bit_exact(),
        "batched capture diverged from sequential replay:\n{}",
        render_report(&report)
    );
    assert_eq!(report.warnings_replayed, report.warnings_captured);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_is_bit_exact_on_the_same_backend() {
    let dir = temp_dir("exact");
    let (capsule, ckpt) = capture_fixture(777, &dir);
    assert!(capsule.meta.clean_start, "full-stream ring must be clean");
    assert!(capsule.traced_events() > 0, "no decision traces captured");
    assert!(!capsule.warnings.is_empty(), "no warnings captured");

    let ck = decode_checkpoint(ckpt).unwrap();
    let report = replay_capsule(
        &capsule,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions::default(),
    )
    .unwrap();
    assert!(report.bit_exact(), "diverged:\n{}", render_report(&report));
    assert_eq!(report.events, capsule.events.len());
    assert_eq!(report.traces_replayed, report.traces_captured);
    assert_eq!(report.warnings_replayed, report.warnings_captured);
    assert!(render_report(&report).contains("BIT-EXACT"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_pinpoints_first_divergent_event_under_a_different_checkpoint() {
    // Same dataset, different training seed: same vocabulary and event
    // stream, different weights. Replay must diverge at the first scored
    // event, and the diff must name it with per-field bit-level deltas.
    let dir_a = temp_dir("diff-a");
    let dir_b = temp_dir("diff-b");
    let (capsule, _) = capture_fixture(777, &dir_a);
    let (_, other_ckpt) = capture_fixture(901, &dir_b);

    let ck = decode_checkpoint(other_ckpt).unwrap();
    let report = replay_capsule(
        &capsule,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions::default(),
    )
    .unwrap();
    let div = report
        .divergence
        .as_ref()
        .expect("different weights must diverge");
    assert_eq!(div.kind, "trace", "{div:?}");
    assert!(div.index < capsule.events.len());
    assert_eq!(div.node, capsule.events[div.index].node);
    assert!(
        div.deltas
            .iter()
            .any(|d| d.field == "step_mse" || d.field == "mean_mse"),
        "first divergence should surface an MSE delta: {:?}",
        div.deltas
    );
    for d in &div.deltas {
        assert_ne!(d.captured, d.replayed, "{d:?}");
    }
    let text = render_report(&report);
    assert!(text.contains("DIVERGED"), "{text}");
    assert!(text.contains(&format!("index {}", div.index)), "{text}");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn backend_and_precision_pinning_refuse_mismatched_replays() {
    let dir = temp_dir("pin");
    let (capsule, ckpt) = capture_fixture(777, &dir);

    // A capsule captured under a backend this host does not dispatch.
    let mut forged = capsule.clone();
    forged.meta.backend = "some-other-isa".into();
    let ck = decode_checkpoint(ckpt.clone()).unwrap();
    let err = replay_capsule(
        &forged,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions::default(),
    )
    .unwrap_err();
    assert!(err.contains("backend mismatch"), "{err}");
    assert!(err.contains("some-other-isa"), "{err}");
    assert!(err.contains("--allow-backend-mismatch"), "{err}");

    // Overridden, the comparison proceeds — and still agrees here, since
    // the actual kernels are the captured ones.
    let ck = decode_checkpoint(ckpt.clone()).unwrap();
    let report = replay_capsule(
        &forged,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions {
            allow_backend_mismatch: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.bit_exact());

    // A capsule sealed on the removed int8 scoring path is refused.
    let mut forged = capsule.clone();
    forged.meta.precision = "int8".into();
    let ck = decode_checkpoint(ckpt).unwrap();
    let err = replay_capsule(
        &forged,
        ck.model,
        ck.vocab,
        &ck.chains,
        &ReplayOptions::default(),
    )
    .unwrap_err();
    assert!(err.contains("precision mismatch"), "{err}");
    assert!(err.contains("int8 scoring was removed"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
