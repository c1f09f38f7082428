//! Failure chains and cumulative ΔT computation (paper §3.2, Table 4).
//!
//! A failure chain is an episode whose last event is a terminal message.
//! The ΔT of each event is the cumulative time difference to the terminal
//! phrase — "the highest timestamped phrase in the sequence is assigned
//! ΔT=0" and every earlier phrase carries its distance to that terminal.

use crate::config::EpisodeConfig;
use crate::episode::{extract_episodes, Episode};
use desh_loggen::NodeId;
use desh_logparse::ParsedLog;
use desh_util::Micros;

/// One event of a failure chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainEvent {
    /// Event time.
    pub time: Micros,
    /// Phrase id.
    pub phrase: u32,
    /// Cumulative time difference to the terminal event, seconds
    /// (0 for the terminal itself).
    pub delta_t: f64,
}

/// A failure chain: U/E events culminating in a terminal message.
#[derive(Debug, Clone)]
pub struct FailureChain {
    /// Failing node.
    pub node: NodeId,
    /// Terminal message time.
    pub terminal_time: Micros,
    /// Events oldest-first; the last is the terminal with `delta_t == 0`.
    pub events: Vec<ChainEvent>,
}

impl FailureChain {
    /// The chain's full lead time: ΔT of its first event.
    pub fn lead_secs(&self) -> f64 {
        self.events.first().map(|e| e.delta_t).unwrap_or(0.0)
    }

    /// Phrase-id sequence (oldest first).
    pub fn phrase_ids(&self) -> Vec<u32> {
        self.events.iter().map(|e| e.phrase).collect()
    }
}

/// Turn a terminal episode into a failure chain, computing cumulative ΔTs
/// and clipping to the configured lookback window.
pub fn chain_from_episode(
    ep: &Episode,
    parsed: &ParsedLog,
    cfg: &EpisodeConfig,
) -> Option<FailureChain> {
    let t_idx = ep.terminal_index(parsed)?;
    let terminal_time = ep.events[t_idx].time;
    let lookback = Micros::from_secs_f64(cfg.chain_lookback_secs);
    let events: Vec<ChainEvent> = ep.events[..=t_idx]
        .iter()
        .filter(|e| terminal_time.saturating_sub(e.time) <= lookback)
        .map(|e| ChainEvent {
            time: e.time,
            phrase: e.phrase,
            delta_t: terminal_time.saturating_sub(e.time).as_secs_f64(),
        })
        .collect();
    if events.len() < 2 {
        return None;
    }
    Some(FailureChain {
        node: ep.node,
        terminal_time,
        events,
    })
}

/// Extract every failure chain in a parsed log.
pub fn extract_chains(parsed: &ParsedLog, cfg: &EpisodeConfig) -> Vec<FailureChain> {
    extract_episodes(parsed, cfg)
        .iter()
        .filter_map(|ep| chain_from_episode(ep, parsed, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::{generate, FailureClass, SystemProfile};
    use desh_logparse::parse_records;

    fn chains_for(
        seed: u64,
    ) -> (
        ParsedLog,
        Vec<FailureChain>,
        Vec<desh_loggen::GroundTruthFailure>,
    ) {
        let d = generate(&SystemProfile::tiny(), seed);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        (parsed, chains, d.failures)
    }

    #[test]
    fn one_chain_per_injected_failure() {
        let (_, chains, failures) = chains_for(31);
        assert_eq!(
            chains.len(),
            failures.len(),
            "chain extraction should recover exactly the injected failures"
        );
    }

    #[test]
    fn delta_t_is_cumulative_and_monotone() {
        let (_, chains, _) = chains_for(32);
        for c in &chains {
            assert_eq!(
                c.events.last().unwrap().delta_t,
                0.0,
                "terminal ΔT must be 0"
            );
            for w in c.events.windows(2) {
                assert!(
                    w[0].delta_t > w[1].delta_t,
                    "ΔTs must strictly decrease toward the terminal: {:?}",
                    c.events.iter().map(|e| e.delta_t).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn chain_lead_times_match_injected_classes() {
        // MCE chains must on average lead panic chains, mirroring Table 7.
        let d = generate(&SystemProfile::m1(), 33);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        let mean_lead_of = |class: FailureClass| -> f64 {
            let leads: Vec<f64> = chains
                .iter()
                .filter(|c| {
                    d.failures
                        .iter()
                        .any(|f| f.node == c.node && f.time == c.terminal_time && f.class == class)
                })
                .map(|c| c.lead_secs())
                .collect();
            leads.iter().sum::<f64>() / leads.len().max(1) as f64
        };
        let mce = mean_lead_of(FailureClass::Mce);
        let panic = mean_lead_of(FailureClass::Panic);
        assert!(
            mce > panic + 30.0,
            "MCE lead {mce:.1}s should exceed Panic {panic:.1}s"
        );
    }

    #[test]
    fn chains_match_ground_truth_nodes_and_times() {
        let (_, chains, failures) = chains_for(34);
        for c in &chains {
            let hit = failures
                .iter()
                .any(|f| f.node == c.node && f.time.abs_diff(c.terminal_time).as_secs_f64() < 2.0);
            assert!(hit, "chain without matching ground truth on {}", c.node);
        }
    }

    #[test]
    fn lookback_clips_long_chains() {
        let (parsed, _, _) = chains_for(35);
        let cfg = EpisodeConfig {
            chain_lookback_secs: 30.0,
            ..EpisodeConfig::default()
        };
        for c in extract_chains(&parsed, &cfg) {
            assert!(c.lead_secs() <= 30.0);
        }
    }
}
