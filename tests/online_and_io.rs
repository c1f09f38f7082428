//! Integration tests for the streaming detector and the file-based
//! workflow, cross-checking them against the batch pipeline.

use desh::core::OnlineDetector;
use desh::prelude::*;

fn fixture() -> (Desh, desh::core::TrainedDesh, Dataset) {
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d = generate(&p, 601);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), 601);
    let trained = desh.train(&train);
    (desh, trained, test)
}

#[test]
fn online_and_batch_agree_on_most_failures() {
    let (desh, trained, test) = fixture();

    // Batch verdicts.
    let batch = desh.evaluate(&trained, &test);
    let batch_caught: std::collections::HashSet<_> = batch
        .verdicts
        .iter()
        .filter(|v| v.flagged && v.is_failure)
        .map(|v| (v.node, v.end))
        .collect();

    // Online warnings.
    let mut det = OnlineDetector::new(
        trained.lead_model.clone(),
        trained.parsed_train.vocab.clone(),
        desh.cfg.clone(),
    );
    let mut online_caught = std::collections::HashSet::new();
    for r in &test.records {
        if let Some(w) = det.ingest(r) {
            // Attribute the warning to the next failure on that node.
            if let Some(f) = test
                .failures
                .iter()
                .find(|f| f.node == w.node && f.time >= w.at)
            {
                online_caught.insert((f.node, f.time));
            }
        }
    }

    // The two modes must agree on a solid majority of caught failures.
    let overlap = batch_caught.intersection(&online_caught).count();
    assert!(
        overlap * 3 >= batch_caught.len().max(1) * 2,
        "batch caught {}, online agreed on only {overlap}",
        batch_caught.len()
    );
}

#[test]
fn file_round_trip_preserves_pipeline_results() {
    let (desh, trained, test) = fixture();
    let direct = desh.evaluate(&trained, &test);

    // Write the test split to a log file, read it back, re-evaluate.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("desh-int-{}.log", std::process::id()));
    desh::loggen::io::write_log_file(&path, &test).unwrap();
    let (records, bad) = desh::loggen::io::read_log_file(&path).unwrap();
    assert!(bad.is_empty());

    // Clock wrap: Micros round trip is modulo 24h, but the tiny profile
    // spans 6h so times survive intact.
    let reread = Dataset {
        system: test.system.clone(),
        nodes: test.nodes,
        duration: test.duration,
        records,
        failures: test.failures.clone(),
    };
    let via_file = desh.evaluate(&trained, &reread);
    assert_eq!(direct.confusion, via_file.confusion);
}

#[test]
fn calibration_transfers_to_unseen_data() {
    // Calibrate the operating point on one dataset, verify the budget
    // approximately holds on a *fresh* dataset from the same profile.
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d1 = generate(&p, 602);
    let (train, val) = d1.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), 602);
    let trained = desh.train(&train);
    let parsed_val =
        parse_records_with_vocab(&val.records, trained.parsed_train.vocab.clone());
    let cal = desh::core::calibrate(
        &trained.lead_model,
        &parsed_val,
        &val.failures,
        &desh.cfg,
        0.35,
        0.5,
    );
    let Some(point) = cal.chosen else {
        // Nothing feasible on this seed: acceptable, nothing to transfer.
        return;
    };
    let mut cfg = desh.cfg.clone();
    desh::core::tuning::apply(&mut cfg, &point);

    let d2 = generate(&p, 603);
    let (_, test2) = d2.split_by_time(0.3);
    let parsed2 = parse_records_with_vocab(&test2.records, trained.parsed_train.vocab.clone());
    let out = desh::core::run_phase3(&trained.lead_model, &parsed2, &test2.failures, &cfg);
    // Generalisation slack: double the budget.
    assert!(
        out.confusion.fp_rate() <= 0.35 * 2.0 + 0.05,
        "calibrated FP {:.2} blew the transferred budget",
        out.confusion.fp_rate()
    );
}
