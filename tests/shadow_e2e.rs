//! End-to-end shadow scoring: run a candidate checkpoint beside the
//! primary, seal the divergence into a shadow ledger, and render the
//! promotion-gate verdict from the ledger alone — the full
//! `predict --shadow` → `shadow report` path, minus the process
//! boundary. Pins the two load-bearing guarantees: a model shadowed
//! against itself agrees with itself perfectly (and leaves the primary's
//! decision stream bit-identical), and two independently trained models
//! populate the confusion counters and flip the verdict when thresholds
//! tighten.

use desh::core::{Desh, DeshConfig, OnlineDetector, ShadowScorer};
use desh::obs::{
    evaluate_gates, load_shadow_ledger, render_shadow_report_json, render_shadow_report_table,
    ShadowIdentity, ShadowLedger, ShadowMonitor, ShadowThresholds, DEFAULT_SHADOW_SLACK_SECS,
};
use desh::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn ledger_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desh-shadow-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.jsonl"))
}

fn trained(seed: u64) -> (OnlineDetector, Dataset) {
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d = generate(&p, seed);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), seed);
    let t = desh.train(&train);
    let det = OnlineDetector::new(
        t.lead_model.clone(),
        t.parsed_train.vocab.clone(),
        desh.cfg.clone(),
    );
    (det, test)
}

fn identity(tag: &str, hash: u64) -> ShadowIdentity {
    ShadowIdentity {
        path: format!("{tag}.dshm"),
        run_id: Some(format!("run-{tag}")),
        config_hash: Some(hash),
        precision: Some("f32".into()),
    }
}

/// Run `candidate_seed` as a shadow behind `primary_seed` over the
/// primary's held-out split, sealing a ledger at `path`. Returns the
/// primary's warning stream as comparison keys.
fn run_shadowed(
    primary_seed: u64,
    candidate_seed: u64,
    path: &PathBuf,
) -> Vec<(NodeId, Micros, u64, u64)> {
    let (mut det, test) = trained(primary_seed);
    let (candidate, _) = trained(candidate_seed);
    let telemetry = Telemetry::enabled();
    let monitor = Arc::new(ShadowMonitor::new(&telemetry, DEFAULT_SHADOW_SLACK_SECS));
    let ledger = ShadowLedger::create(
        path,
        DEFAULT_SHADOW_SLACK_SECS,
        &identity("primary", 0xaaaa),
        &identity("candidate", 0xbbbb),
    )
    .unwrap();
    monitor.attach_ledger(ledger);
    det.attach_shadow(ShadowScorer::new(candidate, Arc::clone(&monitor)));
    let mut fired = Vec::new();
    for r in &test.records {
        if let Some(w) = det.ingest(r) {
            fired.push((
                w.node,
                w.at,
                w.score.to_bits(),
                w.predicted_lead_secs.to_bits(),
            ));
        }
    }
    det.shadow().unwrap().finish();
    monitor.write_summary(&monitor.summary()).unwrap();
    fired
}

#[test]
fn self_shadow_seals_a_perfect_agreement_ledger() {
    // Baseline: the same checkpoint replayed with no shadow attached.
    let (mut baseline, test) = trained(1201);
    let mut expected = Vec::new();
    for r in &test.records {
        if let Some(w) = baseline.ingest(r) {
            expected.push((
                w.node,
                w.at,
                w.score.to_bits(),
                w.predicted_lead_secs.to_bits(),
            ));
        }
    }
    assert!(!expected.is_empty(), "fixture fired no warnings");

    let path = ledger_path("self");
    let fired = run_shadowed(1201, 1201, &path);
    // Attaching a shadow must not move a single bit of the primary's
    // decision stream.
    assert_eq!(expected, fired);

    let doc = load_shadow_ledger(&path).unwrap();
    // Header pins both checkpoints' identities.
    let head = &doc.header;
    for (side, run, hash) in [
        ("primary", "run-primary", "000000000000aaaa"),
        ("candidate", "run-candidate", "000000000000bbbb"),
    ] {
        let id = head.get(side).unwrap();
        assert_eq!(id.get("run_id").and_then(|j| j.as_str()), Some(run));
        assert_eq!(id.get("config_hash").and_then(|j| j.as_str()), Some(hash));
    }
    // Every warning line resolved as a two-sided match, and the summary
    // reads back 100% agreement with zero score drift.
    assert!(!doc.warnings.is_empty());
    for w in &doc.warnings {
        assert_eq!(w.get("match").and_then(|j| j.as_str()), Some("both"));
    }
    let summary = doc.summary.expect("summary line sealed");
    assert_eq!(summary.agree_both, expected.len() as u64);
    assert_eq!(summary.primary_only + summary.candidate_only, 0);
    assert_eq!(summary.agreement(), Some(1.0));
    assert!(summary.score_drift.abs() < 1e-12);

    // The promotion gate passes on default thresholds: nothing regressed.
    let report = evaluate_gates(&summary, &ShadowThresholds::default());
    assert!(report.pass, "{}", render_shadow_report_table(&report));
    assert!(report.gates.iter().all(|g| g.pass));
}

#[test]
fn diverging_seeds_populate_confusion_and_tightened_thresholds_flip_the_verdict() {
    let path = ledger_path("diverge");
    let fired = run_shadowed(1202, 1203, &path);
    assert!(!fired.is_empty(), "fixture fired no warnings");

    let doc = load_shadow_ledger(&path).unwrap();
    let summary = doc.summary.expect("summary line sealed");
    // Two independently trained models diverge: the score EWMA must have
    // moved, and the warning streams must not match perfectly.
    assert!(summary.score_samples > 0);
    assert!(summary.score_drift > 0.0, "score EWMA never moved");
    assert!(
        summary.primary_only + summary.candidate_only > 0,
        "different seeds produced identical warning streams"
    );
    assert!(
        doc.warnings
            .iter()
            .any(|w| w.get("match").and_then(|j| j.as_str()) != Some("both")),
        "ledger recorded no one-sided warnings"
    );

    // Loose thresholds pass...
    let loose = ShadowThresholds {
        max_warning_delta_pct: 1000.0,
        max_pr_regression: 1.0,
        max_lead_p50_regression_buckets: 1e9,
    };
    let report = evaluate_gates(&summary, &loose);
    assert!(report.pass, "{}", render_shadow_report_table(&report));
    assert!(render_shadow_report_json(&report).contains("\"verdict\":\"PASS\""));

    // ...and tightening the warning-volume gate below what the run
    // produced flips the same ledger to FAIL.
    let tight = ShadowThresholds {
        max_warning_delta_pct: -1.0,
        ..loose
    };
    let report = evaluate_gates(&summary, &tight);
    assert!(!report.pass, "tightened thresholds still passed");
    assert!(render_shadow_report_json(&report).contains("\"verdict\":\"FAIL\""));
    let failed: Vec<&str> = report
        .gates
        .iter()
        .filter(|g| !g.pass)
        .map(|g| g.name)
        .collect();
    assert_eq!(failed, ["warning_volume_delta_pct"]);
}
