//! Explaining a flagged episode.
//!
//! The paper argues Desh "not only helps in flagging failures to take
//! recovery actions, it also gives insights as to what phrases indicate
//! node failures". This module makes a flag auditable: which trained
//! failure chain is the episode closest to (dynamic-time-warping alignment
//! over the same (ΔT, phrase) vectors phase 3 scores), and which
//! transitions of the episode matched well or poorly.

use crate::chain::FailureChain;
use crate::episode::Episode;
use crate::phase2::{chain_to_vectors, LeadTimeModel};
use desh_logparse::ParsedLog;

/// Squared-distance between two encoded samples.
fn sample_dist(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Dynamic-time-warping distance between two vector sequences, normalised
/// by the alignment path length. Handles the paper's observation that
/// test sequences are "quite similar" but not identical to trained chains
/// (insertions/deletions of optional steps).
pub fn dtw_distance(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let inf = f64::INFINITY;
    // dp[i][j] = cost of aligning a[..i] with b[..j]; path length tracked
    // alongside for normalisation.
    let mut cost = vec![vec![inf; m + 1]; n + 1];
    let mut steps = vec![vec![0u32; m + 1]; n + 1];
    cost[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let d = sample_dist(&a[i - 1], &b[j - 1]);
            let (prev, plen) = [
                (cost[i - 1][j - 1], steps[i - 1][j - 1]),
                (cost[i - 1][j], steps[i - 1][j]),
                (cost[i][j - 1], steps[i][j - 1]),
            ]
            .into_iter()
            .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap())
            .unwrap();
            if prev.is_finite() {
                cost[i][j] = prev + d;
                steps[i][j] = plen + 1;
            }
        }
    }
    if cost[n][m].is_finite() && steps[n][m] > 0 {
        cost[n][m] / steps[n][m] as f64
    } else {
        inf
    }
}

/// Retrieve the nearest chain (by normalised DTW distance) to an encoded
/// episode. `chain_vecs` holds each trained chain already passed through
/// [`chain_to_vectors`] — precompute once and reuse, which is what the
/// online detector does so warnings can name their matched chain without
/// re-encoding the chain set per event. Empty chains are skipped.
pub fn nearest_chain(ep_vecs: &[Vec<f32>], chain_vecs: &[Vec<Vec<f32>>]) -> Option<(usize, f64)> {
    if ep_vecs.is_empty() {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, cv) in chain_vecs.iter().enumerate() {
        if cv.is_empty() {
            continue;
        }
        let d = dtw_distance(ep_vecs, cv);
        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((i, d));
        }
    }
    best
}

/// The explanation for one episode.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Index (into the provided chain slice) of the closest trained chain.
    pub nearest_chain: usize,
    /// Normalised DTW distance to that chain.
    pub distance: f64,
    /// The nearest chain's phrase templates, oldest first.
    pub chain_templates: Vec<String>,
    /// The episode's phrase templates, oldest first.
    pub episode_templates: Vec<String>,
}

/// Explain an episode by retrieving its nearest trained failure chain in
/// the model's own vector encoding.
pub fn explain_episode(
    episode: &Episode,
    chains: &[FailureChain],
    model: &LeadTimeModel,
    parsed: &ParsedLog,
) -> Option<Explanation> {
    if chains.is_empty() || episode.events.is_empty() {
        return None;
    }
    let end = episode.end();
    let ep_vecs: Vec<Vec<f32>> = episode
        .events
        .iter()
        .map(|e| model.vectorize(end.saturating_sub(e.time).as_secs_f64(), e.phrase))
        .collect();

    let chain_vecs: Vec<Vec<Vec<f32>>> = chains
        .iter()
        .map(|c| chain_to_vectors(c, model.dt_scale, model.vocab_size))
        .collect();
    let (nearest_chain, distance) = nearest_chain(&ep_vecs, &chain_vecs)?;
    Some(Explanation {
        nearest_chain,
        distance,
        chain_templates: chains[nearest_chain]
            .events
            .iter()
            .map(|e| parsed.template(e.phrase))
            .collect(),
        episode_templates: episode
            .events
            .iter()
            .map(|e| parsed.template(e.phrase))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::DeshConfig;
    use crate::episode::extract_episodes;
    use crate::phase2::run_phase2;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::{parse_records, parse_records_with_vocab};
    use desh_util::Xoshiro256pp;

    #[test]
    fn dtw_identical_sequences_have_zero_distance() {
        let a = vec![vec![0.1, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        assert_eq!(dtw_distance(&a, &a), 0.0);
    }

    #[test]
    fn dtw_tolerates_insertions() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        // b = a with one duplicated middle element: still much closer to a
        // than a reversed sequence.
        let b = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let reversed = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(dtw_distance(&a, &b) < dtw_distance(&a, &reversed));
    }

    #[test]
    fn dtw_is_symmetric_enough() {
        let a = vec![vec![0.5, 0.0], vec![0.2, 1.0], vec![0.0, 0.3]];
        let b = vec![vec![0.4, 0.1], vec![0.0, 0.9]];
        let ab = dtw_distance(&a, &b);
        let ba = dtw_distance(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn failure_episodes_retrieve_matching_chains() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 701);
        let (train, test) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(701);
        let model = run_phase2(&chains, parsed_train.vocab_size(), &cfg.phase2, &mut rng);
        let parsed_test = parse_records_with_vocab(&test.records, parsed_train.vocab.clone());

        let episodes = extract_episodes(&parsed_test, &cfg.episodes);
        let mut explained = 0;
        for ep in episodes.iter().take(10) {
            let ex = explain_episode(ep, &chains, &model, &parsed_test).expect("chains available");
            assert!(ex.nearest_chain < chains.len());
            assert!(ex.distance.is_finite());
            assert!(!ex.chain_templates.is_empty());
            explained += 1;
        }
        assert!(explained > 0);
    }

    #[test]
    fn nearest_chain_picks_minimum_and_skips_empty() {
        let ep = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let chains = vec![
            vec![],                               // empty: skipped
            vec![vec![0.0, 1.0], vec![1.0, 0.0]], // reversed
            vec![vec![1.0, 0.0], vec![0.0, 1.0]], // identical
        ];
        let (idx, d) = nearest_chain(&ep, &chains).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(d, 0.0);
        assert!(nearest_chain(&[], &chains).is_none());
        assert!(nearest_chain(&ep, &[]).is_none());
        assert!(nearest_chain(&ep, &[vec![], vec![]]).is_none());
    }

    #[test]
    fn explanation_evidence_preserves_event_order() {
        // The explanation's template lists must follow the underlying
        // event order (oldest first) on both sides — operators read them
        // as a timeline.
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 703);
        let cfg = DeshConfig::fast();
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(703);
        let model = run_phase2(&chains, parsed.vocab_size(), &cfg.phase2, &mut rng);
        let episodes = extract_episodes(&parsed, &cfg.episodes);
        let ep = episodes
            .iter()
            .find(|e| e.events.len() >= 2)
            .expect("multi-event episode");
        let ex = explain_episode(ep, &chains, &model, &parsed).unwrap();

        assert_eq!(ex.episode_templates.len(), ep.events.len());
        for (tmpl, ev) in ex.episode_templates.iter().zip(&ep.events) {
            assert_eq!(
                *tmpl,
                parsed.template(ev.phrase),
                "episode evidence out of order"
            );
        }
        let chain = &chains[ex.nearest_chain];
        assert_eq!(ex.chain_templates.len(), chain.events.len());
        for (tmpl, ev) in ex.chain_templates.iter().zip(&chain.events) {
            assert_eq!(
                *tmpl,
                parsed.template(ev.phrase),
                "chain evidence out of order"
            );
        }
        // And the underlying events really are time-ordered, so template
        // order == chronological order.
        assert!(ep.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn failure_episode_is_closer_to_chains_than_random_noise() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 702);
        let cfg = DeshConfig::fast();
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(702);
        let model = run_phase2(&chains, parsed.vocab_size(), &cfg.phase2, &mut rng);

        // A failure episode (one of the chains itself, re-found) should sit
        // near zero distance to its own chain.
        let episodes = extract_episodes(&parsed, &cfg.episodes);
        let failure_ep = episodes
            .iter()
            .find(|ep| {
                d.failures
                    .iter()
                    .any(|f| f.node == ep.node && f.time.abs_diff(ep.end()).as_secs_f64() < 5.0)
            })
            .expect("failure episode exists");
        let ex = explain_episode(failure_ep, &chains, &model, &parsed).unwrap();
        assert!(
            ex.distance < 0.05,
            "self-retrieval distance too large: {}",
            ex.distance
        );
    }
}
