//! Descriptive statistics over a parsed log: template frequencies,
//! per-node event rates, and burst detection. Feeds the `analyze` CLI
//! command and the log_explorer example.

use crate::stream::ParsedLog;
use desh_loggen::{Label, NodeId};
use desh_util::Micros;
use std::collections::HashMap;

/// Frequency of one template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateFreq {
    /// Phrase id.
    pub phrase: u32,
    /// Template text.
    pub template: String,
    /// Label.
    pub label: Label,
    /// Occurrences.
    pub count: u64,
}

/// Template frequency table, most frequent first.
pub fn template_frequencies(parsed: &ParsedLog) -> Vec<TemplateFreq> {
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for events in parsed.per_node.values() {
        for e in events {
            *counts.entry(e.phrase).or_default() += 1;
        }
    }
    let mut out: Vec<TemplateFreq> = counts
        .into_iter()
        .map(|(phrase, count)| TemplateFreq {
            phrase,
            template: parsed.template(phrase),
            label: parsed.label(phrase),
            count,
        })
        .collect();
    out.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.template.cmp(&b.template))
    });
    out
}

/// Per-node event counts and anomaly (non-Safe) counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeActivity {
    /// The node.
    pub node: NodeId,
    /// All events.
    pub events: u64,
    /// Unknown + Error events.
    pub anomalies: u64,
}

/// Activity table, busiest (by anomalies) first — the nodes an operator
/// should look at.
pub fn node_activity(parsed: &ParsedLog) -> Vec<NodeActivity> {
    let mut out: Vec<NodeActivity> = parsed
        .per_node
        .iter()
        .map(|(&node, events)| NodeActivity {
            node,
            events: events.len() as u64,
            anomalies: events
                .iter()
                .filter(|e| parsed.label(e.phrase) != Label::Safe)
                .count() as u64,
        })
        .collect();
    out.sort_by(|a, b| {
        b.anomalies
            .cmp(&a.anomalies)
            .then_with(|| a.node.cmp(&b.node))
    });
    out
}

/// A burst: `count` occurrences of one phrase on one node within `span`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    /// Node where the burst happened.
    pub node: NodeId,
    /// Phrase id.
    pub phrase: u32,
    /// Occurrences in the burst.
    pub count: usize,
    /// Burst start.
    pub start: Micros,
    /// Burst end.
    pub end: Micros,
}

/// Find bursts: >= `min_count` consecutive occurrences of the same phrase
/// on a node with successive gaps <= `max_gap`.
pub fn find_bursts(parsed: &ParsedLog, min_count: usize, max_gap: Micros) -> Vec<Burst> {
    let mut bursts = Vec::new();
    for (&node, events) in &parsed.per_node {
        let mut i = 0;
        while i < events.len() {
            let mut j = i;
            while j + 1 < events.len()
                && events[j + 1].phrase == events[i].phrase
                && events[j + 1].time.saturating_sub(events[j].time) <= max_gap
            {
                j += 1;
            }
            let count = j - i + 1;
            if count >= min_count {
                bursts.push(Burst {
                    node,
                    phrase: events[i].phrase,
                    count,
                    start: events[i].time,
                    end: events[j].time,
                });
            }
            i = j + 1;
        }
    }
    bursts.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.start.cmp(&b.start)));
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_records;
    use desh_loggen::{generate, LogRecord, SystemProfile};

    #[test]
    fn frequencies_sum_to_event_count() {
        let d = generate(&SystemProfile::tiny(), 71);
        let parsed = parse_records(&d.records);
        let freqs = template_frequencies(&parsed);
        let total: u64 = freqs.iter().map(|f| f.count).sum();
        assert_eq!(total as usize, parsed.event_count());
        // Sorted descending.
        for w in freqs.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn activity_counts_anomalies_separately() {
        let d = generate(&SystemProfile::tiny(), 72);
        let parsed = parse_records(&d.records);
        for a in node_activity(&parsed) {
            assert!(a.anomalies <= a.events);
        }
    }

    #[test]
    fn bursts_are_detected() {
        let mut records = Vec::new();
        for i in 0..6 {
            records.push(LogRecord::new(
                Micros::from_secs(i),
                NodeId::from_index(0),
                format!("LNet: Critical H/W error 0x{i:x}"),
            ));
        }
        records.push(LogRecord::new(
            Micros::from_secs(100),
            NodeId::from_index(0),
            "Wait4Boot",
        ));
        let parsed = parse_records(&records);
        let bursts = find_bursts(&parsed, 3, Micros::from_secs(5));
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].count, 6);
        assert_eq!(bursts[0].start, Micros::from_secs(0));
        assert_eq!(bursts[0].end, Micros::from_secs(5));
    }

    #[test]
    fn no_bursts_in_spread_out_traffic() {
        let records: Vec<LogRecord> = (0..5)
            .map(|i| {
                LogRecord::new(
                    Micros::from_secs(i * 1000),
                    NodeId::from_index(0),
                    format!("LNet: Critical H/W error 0x{i:x}"),
                )
            })
            .collect();
        let parsed = parse_records(&records);
        assert!(find_bursts(&parsed, 2, Micros::from_secs(5)).is_empty());
    }
}
