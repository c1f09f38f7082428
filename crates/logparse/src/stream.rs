//! Parsing raw log lines into per-node, time-sorted phrase-id streams.
//!
//! This is the boundary between unstructured text and everything the LSTM
//! pipeline consumes: records are parsed (in parallel), templated,
//! interned into a shared [`Vocab`], labelled, and grouped per node sorted
//! by timestamp — "the phrases with timestamps pertaining to specific nodes
//! are separated" (§3.1).

use crate::label::label_template;
use crate::template::extract_template;
use crate::vocab::Vocab;
use desh_loggen::{Label, LogRecord, NodeId};
use desh_obs::Telemetry;
use desh_util::Micros;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One parsed event: when, and which phrase template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event time.
    pub time: Micros,
    /// Phrase id in the shared vocabulary.
    pub phrase: u32,
}

/// A fully parsed dataset: shared vocabulary, per-phrase labels, and
/// per-node event streams.
#[derive(Debug)]
pub struct ParsedLog {
    /// Interned templates.
    pub vocab: Arc<Vocab>,
    /// Label per phrase id (indexed by id).
    pub labels: Vec<Label>,
    /// Per-node events, time-sorted. BTreeMap for deterministic iteration.
    pub per_node: BTreeMap<NodeId, Vec<Event>>,
}

impl ParsedLog {
    /// Label of a phrase id.
    pub fn label(&self, phrase: u32) -> Label {
        self.labels
            .get(phrase as usize)
            .copied()
            .unwrap_or(Label::Unknown)
    }

    /// Template text of a phrase id.
    pub fn template(&self, phrase: u32) -> String {
        self.vocab.text(phrase).unwrap_or_default()
    }

    /// Per-node phrase-id sequences (the phase-1 training representation:
    /// "logs from each node are concatenated and fed to the same LSTM").
    pub fn node_sequences(&self) -> Vec<(NodeId, Vec<u32>)> {
        self.per_node
            .iter()
            .map(|(n, evs)| (*n, evs.iter().map(|e| e.phrase).collect()))
            .collect()
    }

    /// Total parsed events.
    pub fn event_count(&self) -> usize {
        self.per_node.values().map(Vec::len).sum()
    }

    /// Number of distinct phrase templates.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }
}

/// Parse pre-structured records (the common path when the generator's
/// records are in hand). Template extraction and interning run in parallel.
pub fn parse_records(records: &[LogRecord]) -> ParsedLog {
    parse_records_with_vocab(records, Arc::new(Vocab::new()))
}

/// Parse records against an existing vocabulary. This is how inference
/// must ingest test data: phrase ids learned during training stay stable,
/// and genuinely new templates extend the vocabulary at fresh ids.
pub fn parse_records_with_vocab(records: &[LogRecord], vocab: Arc<Vocab>) -> ParsedLog {
    parse_records_telemetry(records, vocab, &Telemetry::disabled())
}

/// [`parse_records_with_vocab`] reporting into a telemetry registry:
/// `logparse.records` (events parsed), `logparse.templates_new` (templates
/// the vocabulary did not know before this call), the `logparse.templates`
/// gauge (vocabulary size after), and `logparse.unknown_rate` (fraction of
/// parsed events whose phrase labels Unknown — the paper's untyped middle
/// class between Safe and Error). When parsing against a trained
/// vocabulary, `logparse.template_miss_events` counts events whose
/// template was not in it and the `logparse.template_miss_rate` gauge is
/// their fraction — the batch-side template-drift signal (a deployed
/// vocabulary that no longer covers the stream). Wall time lands in the
/// `parse` span, with nested sub-spans breaking it down by stage:
/// `parse.template` (parallel template extraction + interning),
/// `parse.group` (per-node bucketing and time-sort), and `parse.label`
/// (Safe/Unknown/Error classification of the vocabulary).
pub fn parse_records_telemetry(
    records: &[LogRecord],
    vocab: Arc<Vocab>,
    telemetry: &Telemetry,
) -> ParsedLog {
    let _span = telemetry.span("parse");
    let vocab_before = vocab.len();
    let parsed: Vec<(NodeId, Event)> = telemetry.time("template", || {
        // Extraction (the expensive part) parallelises freely, but
        // interning must stay sequential in record order: ids are
        // assigned first-come, and cross-thread arrival order would make
        // the numbering — and everything trained on it — depend on
        // scheduling. Thread count must never change numerics.
        let templates: Vec<String> = records
            .par_iter()
            .map(|r| extract_template(&r.text))
            .collect();
        records
            .iter()
            .zip(&templates)
            .map(|(r, template)| {
                let id = vocab.intern(template);
                (
                    r.node,
                    Event {
                        time: r.time,
                        phrase: id,
                    },
                )
            })
            .collect()
    });

    let per_node: BTreeMap<NodeId, Vec<Event>> = telemetry.time("group", || {
        let mut per_node: BTreeMap<NodeId, Vec<Event>> = BTreeMap::new();
        for (node, ev) in parsed {
            per_node.entry(node).or_default().push(ev);
        }
        for evs in per_node.values_mut() {
            evs.sort_by_key(|e| e.time);
        }
        per_node
    });
    let labels: Vec<Label> = telemetry.time("label", || {
        vocab.snapshot().iter().map(|t| label_template(t)).collect()
    });
    if telemetry.is_enabled() {
        telemetry.count("logparse.records", records.len() as u64);
        telemetry.count(
            "logparse.templates_new",
            vocab.len().saturating_sub(vocab_before) as u64,
        );
        telemetry.gauge_set("logparse.templates", vocab.len() as f64);
        let unknown: u64 = per_node
            .values()
            .flatten()
            .filter(|e| labels.get(e.phrase as usize) == Some(&Label::Unknown))
            .count() as u64;
        let total: u64 = per_node.values().map(|v| v.len() as u64).sum();
        telemetry.gauge_set(
            "logparse.unknown_rate",
            if total == 0 {
                0.0
            } else {
                unknown as f64 / total as f64
            },
        );
        // Events landing at ids >= the pre-parse vocabulary size hit
        // templates the existing (trained) vocabulary did not cover.
        let misses: u64 = per_node
            .values()
            .flatten()
            .filter(|e| e.phrase as usize >= vocab_before)
            .count() as u64;
        telemetry.count("logparse.template_miss_events", misses);
        telemetry.gauge_set(
            "logparse.template_miss_rate",
            if total == 0 {
                0.0
            } else {
                misses as f64 / total as f64
            },
        );
    }
    ParsedLog {
        vocab,
        labels,
        per_node,
    }
}

/// Parse raw text lines. Lines that fail to parse are returned alongside
/// the result — a production pipeline must not abort on one corrupt line.
pub fn parse_lines(lines: &[String]) -> (ParsedLog, Vec<String>) {
    let mut records = Vec::with_capacity(lines.len());
    let mut bad = Vec::new();
    for l in lines {
        match l.parse::<LogRecord>() {
            Ok(r) => records.push(r),
            Err(_) => bad.push(l.clone()),
        }
    }
    (parse_records(&records), bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::{generate, SystemProfile};

    #[test]
    fn parse_records_round_trip_from_generator() {
        let d = generate(&SystemProfile::tiny(), 1);
        let parsed = parse_records(&d.records);
        assert_eq!(parsed.event_count(), d.records.len());
        // Every node that logged anything has a stream.
        assert!(!parsed.per_node.is_empty());
        // Streams are time-sorted.
        for evs in parsed.per_node.values() {
            for w in evs.windows(2) {
                assert!(w[0].time <= w[1].time);
            }
        }
    }

    #[test]
    fn vocabulary_collapses_dynamic_fields() {
        let d = generate(&SystemProfile::m3(), 2);
        let parsed = parse_records(&d.records);
        // Tens of thousands of records but only ~catalog-many templates.
        assert!(
            parsed.vocab_size() < 100,
            "vocab exploded: {} templates",
            parsed.vocab_size()
        );
        assert!(
            parsed.vocab_size() >= 30,
            "vocab too small: {}",
            parsed.vocab_size()
        );
    }

    #[test]
    fn labels_cover_all_three_classes() {
        let d = generate(&SystemProfile::tiny(), 3);
        let parsed = parse_records(&d.records);
        let has = |l: Label| parsed.labels.contains(&l);
        assert!(has(Label::Safe) && has(Label::Unknown) && has(Label::Error));
    }

    #[test]
    fn parse_lines_reports_corrupt_lines() {
        let d = generate(&SystemProfile::tiny(), 4);
        let mut lines = d.raw_lines();
        lines.insert(3, "garbage line without structure".to_string());
        lines.push(String::new());
        let (parsed, bad) = parse_lines(&lines);
        assert_eq!(bad.len(), 2);
        assert_eq!(parsed.event_count(), lines.len() - 2);
    }

    #[test]
    fn node_sequences_match_per_node_events() {
        let d = generate(&SystemProfile::tiny(), 5);
        let parsed = parse_records(&d.records);
        let seqs = parsed.node_sequences();
        assert_eq!(seqs.len(), parsed.per_node.len());
        for (node, seq) in &seqs {
            assert_eq!(seq.len(), parsed.per_node[node].len());
        }
    }

    #[test]
    fn shared_vocab_keeps_ids_stable_across_splits() {
        let d = generate(&SystemProfile::tiny(), 7);
        let half = d.records.len() / 2;
        let first = parse_records(&d.records[..half]);
        let second = parse_records_with_vocab(&d.records[half..], first.vocab.clone());
        // Every template known to the first parse keeps its id.
        for (id, t) in first.vocab.snapshot().iter().enumerate() {
            assert_eq!(second.vocab.get(t), Some(id as u32));
        }
        assert!(second.vocab.len() >= first.vocab.len());
    }

    #[test]
    fn telemetry_parse_reports_counts() {
        let d = generate(&SystemProfile::tiny(), 8);
        let t = Telemetry::enabled();
        let parsed = parse_records_telemetry(&d.records, Arc::new(Vocab::new()), &t);
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.counter("logparse.records"),
            Some(d.records.len() as u64)
        );
        assert_eq!(
            snap.counter("logparse.templates_new"),
            Some(parsed.vocab_size() as u64),
            "fresh vocab: every template is new"
        );
        assert_eq!(
            snap.gauge("logparse.templates"),
            Some(parsed.vocab_size() as f64)
        );
        let rate = snap.gauge("logparse.unknown_rate").unwrap();
        assert!((0.0..=1.0).contains(&rate), "unknown rate {rate}");
        // Parse wall time was recorded under the span histogram, and each
        // pipeline stage got its own nested sub-span.
        assert_eq!(snap.histogram("span.parse_us").unwrap().count(), 1);
        for sub in ["parse.template", "parse.group", "parse.label"] {
            let h = snap.histogram(&format!("span.{sub}_us"));
            assert_eq!(h.map(|h| h.count()), Some(1), "missing sub-span {sub}");
        }
        // Fresh vocab: every event is a template miss by definition.
        assert_eq!(
            snap.counter("logparse.template_miss_events"),
            Some(d.records.len() as u64)
        );
        assert_eq!(snap.gauge("logparse.template_miss_rate"), Some(1.0));
    }

    #[test]
    fn template_miss_rate_drops_against_trained_vocab() {
        let d = generate(&SystemProfile::tiny(), 9);
        let half = d.records.len() / 2;
        let first = parse_records(&d.records[..half]);
        let t = Telemetry::enabled();
        parse_records_telemetry(&d.records[half..], first.vocab.clone(), &t);
        let snap = t.snapshot().unwrap();
        let rate = snap.gauge("logparse.template_miss_rate").unwrap();
        // The second half re-uses most templates from the first; a trained
        // vocabulary drops the miss rate from 100% to a small residual.
        assert!(rate < 0.2, "template miss rate unexpectedly high: {rate}");
        let misses = snap.counter("logparse.template_miss_events").unwrap();
        assert!((misses as usize) < (d.records.len() - half) / 5);
    }

    #[test]
    fn parallel_parse_is_deterministic_modulo_ids() {
        // Vocab ids may differ between runs (parallel interning order), but
        // the *template text* per event must be identical.
        let d = generate(&SystemProfile::tiny(), 6);
        let a = parse_records(&d.records);
        let b = parse_records(&d.records);
        for (node, evs) in &a.per_node {
            let bevs = &b.per_node[node];
            assert_eq!(evs.len(), bevs.len());
            for (x, y) in evs.iter().zip(bevs) {
                assert_eq!(a.template(x.phrase), b.template(y.phrase));
                assert_eq!(x.time, y.time);
            }
        }
    }
}
