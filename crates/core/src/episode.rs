//! Episode extraction: per-node runs of anomaly-relevant events.
//!
//! After Safe phrases are eliminated (§3.1: "Safe phrases are eliminated
//! now, since our primary interest is in the error and unknown phrases"),
//! each node's remaining Unknown/Error events form temporally coherent
//! runs. A run is split whenever consecutive events are further apart than
//! the session gap. Episodes are what phase 3 scores, and episodes ending
//! in a terminal message within the training split become the phase-1
//! failure chains.

use crate::config::EpisodeConfig;
use desh_loggen::{Label, NodeId};
use desh_logparse::{Event, ParsedLog};
use desh_util::Micros;

/// A per-node run of non-Safe events.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Node the episode belongs to.
    pub node: NodeId,
    /// Non-Safe events, time-sorted.
    pub events: Vec<Event>,
}

impl Episode {
    /// Start time (first event).
    pub fn start(&self) -> Micros {
        self.events.first().expect("non-empty episode").time
    }

    /// End time (last event).
    pub fn end(&self) -> Micros {
        self.events.last().expect("non-empty episode").time
    }

    /// Span in seconds.
    pub fn span_secs(&self) -> f64 {
        (self.end().saturating_sub(self.start())).as_secs_f64()
    }

    /// Index of the first terminal event, if any.
    pub fn terminal_index(&self, parsed: &ParsedLog) -> Option<usize> {
        self.events
            .iter()
            .position(|e| desh_logparse::is_failure_terminal(&parsed.template(e.phrase)))
    }
}

/// Extract episodes from a parsed log: Safe events dropped, runs split at
/// `session_gap_secs`, runs shorter than `min_events` discarded. Runs are
/// also split *after* a terminal message: whatever follows a node death
/// belongs to the next boot, not to the failure that killed it.
pub fn extract_episodes(parsed: &ParsedLog, cfg: &EpisodeConfig) -> Vec<Episode> {
    let gap = Micros::from_secs_f64(cfg.session_gap_secs);
    let mut episodes = Vec::new();
    for (&node, events) in &parsed.per_node {
        let mut current: Vec<Event> = Vec::new();
        let flush = |current: &mut Vec<Event>, episodes: &mut Vec<Episode>| {
            if current.len() >= cfg.min_events {
                episodes.push(Episode {
                    node,
                    events: std::mem::take(current),
                });
            } else {
                current.clear();
            }
        };
        for ev in events {
            if parsed.label(ev.phrase) == Label::Safe {
                continue;
            }
            if let Some(last) = current.last() {
                if ev.time.saturating_sub(last.time) > gap {
                    flush(&mut current, &mut episodes);
                }
            }
            let is_terminal = desh_logparse::is_failure_terminal(&parsed.template(ev.phrase));
            current.push(*ev);
            if is_terminal {
                flush(&mut current, &mut episodes);
            }
        }
        flush(&mut current, &mut episodes);
    }
    // Deterministic order: by node then start time (BTreeMap already gives
    // node order; starts are sorted within a node).
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;

    fn setup() -> (ParsedLog, Vec<desh_loggen::GroundTruthFailure>) {
        let d = generate(&SystemProfile::tiny(), 21);
        let parsed = parse_records(&d.records);
        (parsed, d.failures)
    }

    #[test]
    fn episodes_contain_no_safe_events() {
        let (parsed, _) = setup();
        for ep in extract_episodes(&parsed, &EpisodeConfig::default()) {
            for e in &ep.events {
                assert_ne!(parsed.label(e.phrase), Label::Safe);
            }
        }
    }

    #[test]
    fn episodes_respect_session_gap() {
        let (parsed, _) = setup();
        let cfg = EpisodeConfig::default();
        for ep in extract_episodes(&parsed, &cfg) {
            for w in ep.events.windows(2) {
                let gap = w[1].time.saturating_sub(w[0].time).as_secs_f64();
                assert!(gap <= cfg.session_gap_secs, "gap {gap}s inside episode");
            }
        }
    }

    #[test]
    fn every_injected_failure_yields_a_terminal_episode() {
        let (parsed, failures) = setup();
        let eps = extract_episodes(&parsed, &EpisodeConfig::default());
        for f in &failures {
            let hit = eps.iter().any(|ep| {
                ep.node == f.node
                    && ep.terminal_index(&parsed).is_some()
                    && ep.end().abs_diff(f.time).as_secs_f64() < 5.0
            });
            assert!(hit, "no terminal episode for failure {f:?}");
        }
    }

    #[test]
    fn terminal_splits_episode() {
        let (parsed, _) = setup();
        for ep in extract_episodes(&parsed, &EpisodeConfig::default()) {
            if let Some(idx) = ep.terminal_index(&parsed) {
                assert_eq!(
                    idx,
                    ep.events.len() - 1,
                    "terminal event must end its episode"
                );
            }
        }
    }

    #[test]
    fn short_runs_are_discarded() {
        let (parsed, _) = setup();
        let cfg = EpisodeConfig {
            min_events: 4,
            ..EpisodeConfig::default()
        };
        for ep in extract_episodes(&parsed, &cfg) {
            assert!(ep.events.len() >= 4);
        }
    }
}
