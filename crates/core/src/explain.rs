//! Explaining a flagged episode.
//!
//! The paper argues Desh "not only helps in flagging failures to take
//! recovery actions, it also gives insights as to what phrases indicate
//! node failures". This module makes a flag auditable: which trained
//! failure chain is the episode closest to (dynamic-time-warping alignment
//! over the same (ΔT, phrase) samples phase 3 scores), and which
//! transitions of the episode matched well or poorly.
//!
//! Matching runs on [`Sample`]s rather than their `vocab + 1`-wide one-hot
//! vectors: a DTW cell costs O(1) instead of O(vocab), and the distances
//! are bit-identical to the vector form (test-gated against a dense
//! oracle).

use crate::chain::FailureChain;
use crate::episode::Episode;
use crate::phase2::{LeadTimeModel, Sample};
use desh_logparse::ParsedLog;

/// Squared distance between two samples: exactly the f64 sum of the
/// squared differences of their one-hot vector forms. The ΔT term comes
/// first; every equal one-hot position adds an exact `+0.0`, and two
/// different phrases differ in two positions, each adding `1.0`.
fn sample_dist(a: Sample, b: Sample) -> f64 {
    let d = (a.dt - b.dt) as f64;
    let d = d * d;
    if a.phrase == b.phrase {
        d
    } else {
        (d + 1.0) + 1.0
    }
}

/// Dynamic-time-warping tables, held by the caller and reused across
/// calls: two flat rows of costs and path lengths, grown to the longest
/// sequence aligned so far.
#[derive(Debug, Clone, Default)]
pub struct DtwTables {
    cost: Vec<f64>,
    steps: Vec<u32>,
}

impl DtwTables {
    /// Dynamic-time-warping distance between two sample sequences,
    /// normalised by the alignment path length. Handles the paper's
    /// observation that test sequences are "quite similar" but not
    /// identical to trained chains (insertions/deletions of optional
    /// steps). Of equal-cost predecessors the diagonal wins, then the
    /// cell above, then the cell to the left.
    pub fn distance(&mut self, a: &[Sample], b: &[Sample]) -> f64 {
        assert!(!a.is_empty() && !b.is_empty());
        let inf = f64::INFINITY;
        let w = b.len() + 1;
        // Row i of the (|a|+1) × (|b|+1) table lives at offset (i % 2)·w:
        // cost = cost of aligning a[..i] with b[..j], steps = its path
        // length, for normalisation.
        self.cost.clear();
        self.cost.resize(2 * w, inf);
        self.steps.clear();
        self.steps.resize(2 * w, 0);
        let (cost, steps) = (&mut self.cost[..], &mut self.steps[..]);
        cost[0] = 0.0;
        let (mut prev, mut cur) = (0, w);
        for &x in a {
            cost[cur] = inf;
            steps[cur] = 0;
            for (j, &y) in (1..w).zip(b) {
                let (mut best, mut len) = (cost[prev + j - 1], steps[prev + j - 1]);
                if cost[prev + j] < best {
                    (best, len) = (cost[prev + j], steps[prev + j]);
                }
                if cost[cur + j - 1] < best {
                    (best, len) = (cost[cur + j - 1], steps[cur + j - 1]);
                }
                (cost[cur + j], steps[cur + j]) = if best.is_finite() {
                    (best + sample_dist(x, y), len + 1)
                } else {
                    (inf, 0)
                };
            }
            (prev, cur) = (cur, prev);
        }
        let (total, len) = (cost[prev + w - 1], steps[prev + w - 1]);
        if total.is_finite() && len > 0 {
            total / len as f64
        } else {
            inf
        }
    }
}

/// The trained failure chains in sample form, encoded once, plus the DTW
/// tables every query reuses. The online detector holds one so a warning
/// names its matched chain without re-encoding the chain set or
/// allocating tables.
#[derive(Debug, Clone, Default)]
pub struct ChainMatcher {
    chains: Vec<Vec<Sample>>,
    tables: DtwTables,
}

impl ChainMatcher {
    /// Encode `chains` in `model`'s sample form.
    pub fn new(chains: &[FailureChain], model: &LeadTimeModel) -> Self {
        Self {
            chains: chains
                .iter()
                .map(|c| {
                    c.events
                        .iter()
                        .map(|e| model.sample(e.delta_t, e.phrase))
                        .collect()
                })
                .collect(),
            tables: DtwTables::default(),
        }
    }

    /// The nearest chain to an encoded episode, by normalised DTW
    /// distance: its index and the distance. The first of equally near
    /// chains wins; empty chains are skipped.
    pub fn nearest(&mut self, episode: &[Sample]) -> Option<(usize, f64)> {
        if episode.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                continue;
            }
            let d = self.tables.distance(episode, chain);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }
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
/// the model's own encoding. `matcher` holds `chains` encoded by
/// [`ChainMatcher::new`] for the same `model`; build it once and reuse it
/// across episodes.
pub fn explain_episode(
    episode: &Episode,
    chains: &[FailureChain],
    matcher: &mut ChainMatcher,
    model: &LeadTimeModel,
    parsed: &ParsedLog,
) -> Option<Explanation> {
    assert_eq!(
        chains.len(),
        matcher.chains.len(),
        "matcher built from other chains"
    );
    if chains.is_empty() || episode.events.is_empty() {
        return None;
    }
    let end = episode.end();
    let samples: Vec<Sample> = episode
        .events
        .iter()
        .map(|e| model.sample(end.saturating_sub(e.time).as_secs_f64(), e.phrase))
        .collect();
    let (nearest_chain, distance) = matcher.nearest(&samples)?;
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
pub(crate) mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::DeshConfig;
    use crate::episode::extract_episodes;
    use crate::phase2::run_phase2;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::{parse_records, parse_records_with_vocab};
    use desh_util::Xoshiro256pp;
    use proptest::prelude::*;

    /// The one-hot vector of a raw (ΔT seconds, phrase id) sample, built
    /// independently of [`Sample`]: ΔT ÷ scale clamped at 4.0, then the
    /// phrase's one-hot position clamped into the vocabulary.
    pub(crate) fn oracle_vector(secs: f64, phrase: u32, scale: f32, vocab: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; vocab + 1];
        v[0] = (secs as f32 / scale).min(4.0);
        v[1 + (phrase as usize).min(vocab - 1)] = 1.0;
        v
    }

    /// The dense DTW over one-hot vectors that the sample form replaces:
    /// every cell sums all `vocab + 1` squared terms, and the tables are
    /// allocated per call.
    pub(crate) fn oracle_dtw(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
        let dist = |x: &[f32], y: &[f32]| -> f64 {
            x.iter()
                .zip(y)
                .map(|(&p, &q)| {
                    let d = (p - q) as f64;
                    d * d
                })
                .sum()
        };
        let (n, m) = (a.len(), b.len());
        let inf = f64::INFINITY;
        let mut cost = vec![vec![inf; m + 1]; n + 1];
        let mut steps = vec![vec![0u32; m + 1]; n + 1];
        cost[0][0] = 0.0;
        for i in 1..=n {
            for j in 1..=m {
                let d = dist(&a[i - 1], &b[j - 1]);
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

    /// Nearest chain by [`oracle_dtw`]: first minimum, empty chains skipped.
    pub(crate) fn oracle_nearest(
        ep: &[Vec<f32>],
        chains: &[Vec<Vec<f32>>],
    ) -> Option<(usize, f64)> {
        if ep.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in chains.iter().enumerate() {
            if c.is_empty() {
                continue;
            }
            let d = oracle_dtw(ep, c);
            if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((i, d));
            }
        }
        best
    }

    /// `(index, distance bits)`, the form the bit-identity checks compare.
    pub(crate) fn bits(hit: Option<(usize, f64)>) -> Option<(usize, u64)> {
        hit.map(|(i, d)| (i, d.to_bits()))
    }

    const SCALE: f32 = 300.0;

    /// A random raw sample: ΔT from a few exact values (0, the 4.0 clamp
    /// point, beyond it) or anywhere below the clamp; the phrase inside
    /// the vocabulary or past its end.
    fn raw_sample(rng: &mut Xoshiro256pp, vocab: usize) -> (f64, u32) {
        let secs = match rng.below(5) {
            0 => 0.0,
            1 => 4.0 * SCALE as f64,
            2 => rng.range_f64(4.0 * SCALE as f64, 1e6),
            3 => 30.0 * rng.below(4) as f64,
            _ => rng.range_f64(0.0, 4.0 * SCALE as f64),
        };
        let phrase = if rng.chance(0.2) {
            (vocab + rng.index(4)) as u32
        } else {
            rng.index(vocab) as u32
        };
        (secs, phrase)
    }

    fn raw_seq(rng: &mut Xoshiro256pp, vocab: usize, len: usize) -> Vec<(f64, u32)> {
        (0..len).map(|_| raw_sample(rng, vocab)).collect()
    }

    fn encode(raw: &[(f64, u32)], vocab: usize) -> (Vec<Sample>, Vec<Vec<f32>>) {
        raw.iter()
            .map(|&(t, p)| {
                (
                    Sample::new(t, p, SCALE, vocab),
                    oracle_vector(t, p, SCALE, vocab),
                )
            })
            .unzip()
    }

    proptest! {
        #[test]
        fn sample_dtw_bit_identical_to_dense_oracle(seed in any::<u64>()) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let vocab = 1 + rng.index(40);
            let ep_len = 1 + rng.index(12);
            let (ep, ep_dense) = encode(&raw_seq(&mut rng, vocab, ep_len), vocab);
            let mut raw_chains: Vec<Vec<(f64, u32)>> = Vec::new();
            for _ in 0..1 + rng.index(8) {
                let c = match rng.below(4) {
                    // Empty chains are skipped.
                    0 => Vec::new(),
                    // A repeat of an earlier chain ties with it.
                    1 if !raw_chains.is_empty() => raw_chains[rng.index(raw_chains.len())].clone(),
                    _ => {
                        let len = 1 + rng.index(12);
                        raw_seq(&mut rng, vocab, len)
                    }
                };
                raw_chains.push(c);
            }
            let (chains, dense): (Vec<Vec<Sample>>, Vec<Vec<Vec<f32>>>) =
                raw_chains.iter().map(|c| encode(c, vocab)).unzip();
            let mut matcher = ChainMatcher { chains, tables: DtwTables::default() };
            for (c, d) in matcher.chains.clone().iter().zip(&dense) {
                if !c.is_empty() {
                    let got = matcher.tables.distance(&ep, c);
                    prop_assert_eq!(got.to_bits(), oracle_dtw(&ep_dense, d).to_bits());
                }
            }
            prop_assert_eq!(bits(matcher.nearest(&ep)), bits(oracle_nearest(&ep_dense, &dense)));
        }
    }

    fn sample(dt: f32, phrase: u32) -> Sample {
        Sample { dt, phrase }
    }

    #[test]
    fn dtw_identical_sequences_have_zero_distance() {
        let a = vec![sample(0.1, 0), sample(0.0, 1)];
        assert_eq!(DtwTables::default().distance(&a, &a), 0.0);
    }

    #[test]
    fn dtw_tolerates_insertions() {
        let a = vec![sample(1.0, 0), sample(0.0, 1)];
        // b = a with one duplicated middle element: still much closer to a
        // than a reversed sequence.
        let b = vec![sample(1.0, 0), sample(1.0, 0), sample(0.0, 1)];
        let reversed = vec![sample(0.0, 1), sample(1.0, 0)];
        let mut t = DtwTables::default();
        assert!(t.distance(&a, &b) < t.distance(&a, &reversed));
    }

    #[test]
    fn dtw_is_symmetric_enough() {
        let a = vec![sample(0.5, 0), sample(0.2, 1), sample(0.0, 2)];
        let b = vec![sample(0.4, 0), sample(0.0, 1)];
        let mut t = DtwTables::default();
        let ab = t.distance(&a, &b);
        let ba = t.distance(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn different_phrases_cost_two_one_hot_terms() {
        let mut t = DtwTables::default();
        assert_eq!(t.distance(&[sample(0.5, 3)], &[sample(0.5, 4)]), 2.0);
        assert_eq!(t.distance(&[sample(1.5, 3)], &[sample(0.5, 3)]), 1.0);
        assert_eq!(t.distance(&[sample(1.5, 3)], &[sample(0.5, 4)]), 3.0);
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
        let mut matcher = ChainMatcher::new(&chains, &model);

        let episodes = extract_episodes(&parsed_test, &cfg.episodes);
        let mut explained = 0;
        for ep in episodes.iter().take(10) {
            let ex = explain_episode(ep, &chains, &mut matcher, &model, &parsed_test)
                .expect("chains available");
            assert!(ex.nearest_chain < chains.len());
            assert!(ex.distance.is_finite());
            assert!(!ex.chain_templates.is_empty());
            explained += 1;
        }
        assert!(explained > 0);
    }

    #[test]
    fn nearest_chain_picks_minimum_and_skips_empty() {
        let ep = vec![sample(1.0, 0), sample(0.0, 1)];
        let mut matcher = ChainMatcher {
            chains: vec![
                vec![],                               // empty: skipped
                vec![sample(0.0, 1), sample(1.0, 0)], // reversed
                vec![sample(1.0, 0), sample(0.0, 1)], // identical
                vec![sample(1.0, 0), sample(0.0, 1)], // tie: first wins
            ],
            tables: DtwTables::default(),
        };
        let (idx, d) = matcher.nearest(&ep).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(d, 0.0);
        assert!(matcher.nearest(&[]).is_none());
        assert!(ChainMatcher::default().nearest(&ep).is_none());
        let mut empties = ChainMatcher {
            chains: vec![vec![], vec![]],
            tables: DtwTables::default(),
        };
        assert!(empties.nearest(&ep).is_none());
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
        let mut matcher = ChainMatcher::new(&chains, &model);
        let ex = explain_episode(ep, &chains, &mut matcher, &model, &parsed).unwrap();

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
        let mut matcher = ChainMatcher::new(&chains, &model);
        let ex = explain_episode(failure_ep, &chains, &mut matcher, &model, &parsed).unwrap();
        assert!(
            ex.distance < 0.05,
            "self-retrieval distance too large: {}",
            ex.distance
        );
    }
}
