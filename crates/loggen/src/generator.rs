//! The dataset generator: turns a [`SystemProfile`] into a time-sorted
//! stream of raw log records plus the expert ground truth Desh evaluates
//! against.
//!
//! Composition of a generated dataset:
//!
//! 1. **Failure chains** — per injected failure, a class is drawn from the
//!    profile mix and a [`crate::scenario::sample_chain`] instance is laid
//!    down ending at the terminal time. The ground truth records
//!    (node, terminal time, class).
//! 2. **Near misses** — anomalous episodes that do not fail
//!    (`near_miss_ratio` per failure).
//! 3. **Benign noise** — Poisson background of Safe phrases on every node.
//! 4. **Unknown-phrase background** — extra out-of-chain appearances of
//!    the Table 8 phrases, injected so that each phrase's fraction of
//!    appearances inside failure chains matches the paper's reported
//!    contribution percentages (Figure 9).
//! 5. **Maintenance shutdowns** — cabinet-wide intentional reboots that a
//!    correct pipeline must *not* count as node failures.

use crate::nodeid::{Cluster, NodeId};
use crate::phrases::{Label, Phrase};
use crate::profile::SystemProfile;
use crate::record::LogRecord;
use crate::scenario::{maintenance_sequence, sample_chain, sample_near_miss_with, FailureClass};
use desh_util::{Micros, Xoshiro256pp};
use std::collections::HashMap;

/// Ground truth for one injected anomalous node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruthFailure {
    /// Failing node.
    pub node: NodeId,
    /// Time of the terminal message.
    pub time: Micros,
    /// Injected failure class.
    pub class: FailureClass,
}

/// A generated dataset: records sorted by time plus ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Originating profile name (M1..M4).
    pub system: String,
    /// Cluster size.
    pub nodes: usize,
    /// Dataset span.
    pub duration: Micros,
    /// Time-sorted log records.
    pub records: Vec<LogRecord>,
    /// Injected failures, sorted by time.
    pub failures: Vec<GroundTruthFailure>,
}

impl Dataset {
    /// Split chronologically: the first `train_frac` of the time span (and
    /// its records/failures) becomes the training set, the rest the test
    /// set. The paper uses a 30%/70% split (§4).
    pub fn split_by_time(&self, train_frac: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&train_frac));
        let cut = Micros((self.duration.0 as f64 * train_frac) as u64);
        let part = |keep: &dyn Fn(Micros) -> bool, tag: &str| Dataset {
            system: format!("{}/{tag}", self.system),
            nodes: self.nodes,
            duration: self.duration,
            records: self
                .records
                .iter()
                .filter(|r| keep(r.time))
                .cloned()
                .collect(),
            failures: self
                .failures
                .iter()
                .filter(|f| keep(f.time))
                .copied()
                .collect(),
        };
        (part(&|t| t < cut, "train"), part(&|t| t >= cut, "test"))
    }

    /// All records as raw text lines (what a real deployment would ingest).
    pub fn raw_lines(&self) -> Vec<String> {
        self.records.iter().map(|r| r.to_raw_line()).collect()
    }

    /// Records grouped per node, preserving time order.
    pub fn by_node(&self) -> HashMap<NodeId, Vec<&LogRecord>> {
        let mut map: HashMap<NodeId, Vec<&LogRecord>> = HashMap::new();
        for r in &self.records {
            map.entry(r.node).or_default().push(r);
        }
        map
    }
}

/// Mutate a chain into a *novel* variant: swap one adjacent pre-terminal
/// pair and splice in a foreign Unknown phrase at an interpolated offset.
/// The terminal stays put — it is still a real failure, just one whose
/// pattern training has not seen.
fn mutate_chain(chain: &mut crate::scenario::ChainInstance, rng: &mut Xoshiro256pp) {
    let n = chain.events.len();
    if n >= 3 {
        // Swap the phrases (not the offsets) of an adjacent pre-terminal pair.
        let i = rng.index(n - 2);
        let (pa, pb) = (chain.events[i].1, chain.events[i + 1].1);
        chain.events[i].1 = pb;
        chain.events[i + 1].1 = pa;
    }
    // Cross-class contamination: hardware faults trigger software errors
    // and vice versa (the paper cites Gainaru et al. on exactly this), so a
    // novel chain borrows a phrase from a *different* class's vocabulary.
    // Deliberately none of these appear in the near-miss catalog, so novelty
    // raises false negatives without teaching the model the confounders.
    const FOREIGN: [Phrase; 5] = [
        Phrase::Segfault,
        Phrase::MceNotifyIrq,
        Phrase::LnetCritHw,
        Phrase::HwerrProto,
        Phrase::SlurmAbort,
    ];
    let pos = 1 + rng.index(n.saturating_sub(2).max(1));
    let hi = chain.events[pos - 1].0;
    let lo = chain.events.get(pos).map(|e| e.0).unwrap_or(0.0);
    let offset = lo + (hi - lo) * 0.5;
    chain
        .events
        .insert(pos, (offset, FOREIGN[rng.index(FOREIGN.len())]));
}

/// Deterministically generate a dataset for a profile.
pub fn generate(profile: &SystemProfile, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xDE5B_0001);
    let cluster = Cluster::with_nodes(profile.nodes);
    let span = profile.duration;
    let mut records: Vec<LogRecord> = Vec::new();
    let mut failures: Vec<GroundTruthFailure> = Vec::new();
    // Chain-membership counts for the Table 8 calibration pass.
    let mut in_chain: HashMap<Phrase, usize> = HashMap::new();
    let mut out_chain: HashMap<Phrase, usize> = HashMap::new();

    // --- 1. Failure chains -------------------------------------------------
    let mut last_failure_at: HashMap<NodeId, Micros> = HashMap::new();
    let mut last_cabinet: Option<u8> = None;
    let min_gap = Micros::from_mins(30);
    for _ in 0..profile.failures {
        let class = FailureClass::ALL[rng.weighted(&profile.class_mix)];
        // Pick a node + terminal time with a minimum per-node spacing so
        // chains never interleave on one node. With cabinet correlation,
        // prefer the cabinet of the previous failure.
        let (node, terminal) = loop {
            // Guard on the knob before drawing so profiles with zero
            // correlation keep the exact RNG stream (and thus datasets) of
            // the uncorrelated generator.
            let node = match last_cabinet {
                Some(cab)
                    if profile.cabinet_correlation > 0.0
                        && rng.chance(profile.cabinet_correlation) =>
                {
                    let peers: Vec<NodeId> = cluster
                        .nodes()
                        .iter()
                        .copied()
                        .filter(|n| n.cab_x == cab)
                        .collect();
                    *rng.pick(&peers)
                }
                _ => cluster.node(rng.index(cluster.len())),
            };
            let t = Micros(rng.range_u64(span.0 / 50, span.0 - span.0 / 100));
            let ok = last_failure_at
                .get(&node)
                .map(|prev| t.abs_diff(*prev) > min_gap)
                .unwrap_or(true);
            if ok {
                break (node, t);
            }
        };
        last_failure_at.insert(node, terminal);
        last_cabinet = Some(node.cab_x);
        let mut chain = sample_chain(class, &mut rng);
        if rng.chance(profile.novelty) {
            mutate_chain(&mut chain, &mut rng);
        }
        for (before_secs, phrase) in &chain.events {
            let t = terminal.saturating_sub(Micros::from_secs_f64(*before_secs));
            records.push(LogRecord::new(t, node, phrase.render(&mut rng)));
            if phrase.label() == Label::Unknown {
                *in_chain.entry(*phrase).or_default() += 1;
            }
        }
        failures.push(GroundTruthFailure {
            node,
            time: terminal,
            class,
        });
    }

    // --- 2. Near misses ----------------------------------------------------
    // Out-of-chain appearances of Table 8 phrases are budgeted so that the
    // in-chain fraction matches the paper's contribution percentages; the
    // budget not consumed here is emitted as isolated background (step 4).
    let mut out_budget: HashMap<Phrase, i64> = Phrase::table8()
        .iter()
        .map(|(p, pct)| {
            let n_in = *in_chain.get(p).unwrap_or(&0) as f64;
            (*p, (n_in * (100.0 - pct) / pct).round() as i64)
        })
        .collect();
    let n_near = (profile.failures as f64 * profile.near_miss_ratio).round() as usize;
    for _ in 0..n_near {
        let node = cluster.node(rng.index(cluster.len()));
        let end = Micros(rng.range_u64(span.0 / 50, span.0 - 1));
        let nm = sample_near_miss_with(&mut rng, |p| match out_budget.get_mut(&p) {
            Some(b) if *b <= 0 => false,
            Some(b) => {
                *b -= 1;
                true
            }
            None => true,
        });
        for (before_secs, phrase) in &nm.events {
            let t = end.saturating_sub(Micros::from_secs_f64(*before_secs));
            records.push(LogRecord::new(t, node, phrase.render(&mut rng)));
            if phrase.label() == Label::Unknown {
                *out_chain.entry(*phrase).or_default() += 1;
            }
        }
    }

    // --- 3. Benign noise ---------------------------------------------------
    // Routine traffic is *structured*: each node walks one of the benign
    // routine cycles with occasional out-of-cycle singles. This is what
    // makes next-phrase prediction (phase 1) meaningful, exactly as on
    // real systems whose logs are dominated by periodic health checks.
    let safe_phrases: Vec<Phrase> = Phrase::ALL
        .iter()
        .copied()
        .filter(|p| p.label() == Label::Safe)
        .collect();
    let cycles = crate::scenario::routine_cycles();
    let hours = span.0 as f64 / desh_util::time::MICROS_PER_HOUR as f64;
    let rate_per_us = profile.noise_per_node_hour / desh_util::time::MICROS_PER_HOUR as f64;
    for (idx, node) in cluster.nodes().iter().enumerate() {
        let cycle = cycles[idx % cycles.len()];
        let mut pos = rng.index(cycle.len());
        let _ = hours;
        let mut t = rng.exponential(rate_per_us);
        while (t as u64) < span.0 {
            let phrase = if rng.chance(0.04) {
                // Out-of-cycle single (does not advance the routine).
                *rng.pick(&safe_phrases)
            } else {
                let p = cycle[pos];
                pos = (pos + 1) % cycle.len();
                p
            };
            records.push(LogRecord::new(
                Micros(t as u64),
                *node,
                phrase.render(&mut rng),
            ));
            t += rng.exponential(rate_per_us);
        }
    }

    // --- 4. Table 8 calibration -------------------------------------------
    // For each Table 8 phrase with contribution c%, total out-of-chain
    // appearances should be n_in * (100 - c) / c. Near misses already
    // contributed some; inject the remainder as isolated background events.
    for (phrase, pct) in Phrase::table8() {
        let n_in = *in_chain.get(&phrase).unwrap_or(&0);
        if n_in == 0 {
            continue;
        }
        let target_out = (n_in as f64 * (100.0 - pct) / pct).round() as usize;
        let existing = *out_chain.get(&phrase).unwrap_or(&0);
        for _ in existing..target_out {
            let node = cluster.node(rng.index(cluster.len()));
            let t = Micros(rng.below(span.0));
            records.push(LogRecord::new(t, node, phrase.render(&mut rng)));
        }
    }

    // --- 5. Maintenance ----------------------------------------------------
    for _ in 0..profile.maintenance_events {
        let cab = rng.index(cluster.cabinets()) as u8;
        let end = Micros(rng.range_u64(span.0 / 10, span.0 - 1));
        for node in cluster.nodes().iter().filter(|n| n.cab_x == cab) {
            for (before_secs, phrase) in maintenance_sequence() {
                // Small per-node skew so the mass reboot is not perfectly
                // synchronous (it never is in real logs).
                let skew = rng.f64() * 5.0;
                let t = end.saturating_sub(Micros::from_secs_f64(before_secs + skew));
                records.push(LogRecord::new(t, *node, phrase.render(&mut rng)));
            }
        }
    }

    records.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.node.cmp(&b.node)));
    failures.sort_by_key(|f| f.time);

    Dataset {
        system: profile.name.clone(),
        nodes: profile.nodes,
        duration: span,
        records,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset(seed: u64) -> Dataset {
        generate(&SystemProfile::tiny(), seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset(42);
        let b = tiny_dataset(42);
        assert_eq!(a.records, b.records);
        assert_eq!(a.failures, b.failures);
        let c = tiny_dataset(43);
        assert_ne!(a.records.len(), 0);
        assert!(a.records != c.records, "different seeds must differ");
    }

    #[test]
    fn records_are_time_sorted() {
        let d = tiny_dataset(1);
        for w in d.records.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn ground_truth_failures_have_terminal_records() {
        let d = tiny_dataset(2);
        assert_eq!(d.failures.len(), SystemProfile::tiny().failures);
        for f in &d.failures {
            // A terminal phrase must exist on that node at that time.
            let hit = d.records.iter().any(|r| {
                r.node == f.node
                    && r.time == f.time
                    && (r.text.starts_with("cb_node_unavailable")
                        || r.text.starts_with("WARNING: Node"))
            });
            assert!(hit, "missing terminal record for {f:?}");
        }
    }

    #[test]
    fn every_failure_class_appears_in_big_runs() {
        let d = generate(&SystemProfile::m1(), 7);
        for class in FailureClass::ALL {
            assert!(
                d.failures.iter().any(|f| f.class == class),
                "{class:?} never sampled"
            );
        }
    }

    #[test]
    fn split_respects_time_and_conservation() {
        let d = tiny_dataset(3);
        let (train, test) = d.split_by_time(0.3);
        assert_eq!(train.records.len() + test.records.len(), d.records.len());
        assert_eq!(train.failures.len() + test.failures.len(), d.failures.len());
        let cut = Micros((d.duration.0 as f64 * 0.3) as u64);
        assert!(train.records.iter().all(|r| r.time < cut));
        assert!(test.records.iter().all(|r| r.time >= cut));
    }

    #[test]
    fn maintenance_does_not_create_ground_truth_failures() {
        let mut p = SystemProfile::tiny();
        p.failures = 0;
        p.near_miss_ratio = 0.0;
        p.maintenance_events = 2;
        let d = generate(&p, 4);
        assert!(d.failures.is_empty());
        // Maintenance leaves System: halted lines but no anomalous terminals.
        assert!(d
            .records
            .iter()
            .any(|r| r.text.starts_with("System: halted")));
        assert!(!d
            .records
            .iter()
            .any(|r| r.text.starts_with("cb_node_unavailable")));
    }

    #[test]
    fn benign_noise_dominates_volume() {
        let d = generate(&SystemProfile::m3(), 5);
        let safe = d
            .records
            .iter()
            .filter(|r| {
                Phrase::ALL.iter().any(|p| {
                    p.label() == Label::Safe
                        && r.text.starts_with(
                            &p.spec().template[..p
                                .spec()
                                .template
                                .find("{}")
                                .unwrap_or(p.spec().template.len())],
                        )
                })
            })
            .count();
        assert!(
            safe * 2 > d.records.len(),
            "safe noise should be the majority: {safe}/{}",
            d.records.len()
        );
    }

    #[test]
    fn table8_contributions_roughly_match() {
        // Generate a larger dataset and verify the calibration pass puts
        // each Table 8 phrase's in-chain share near the paper value.
        let d = generate(&SystemProfile::m1(), 11);
        // Count appearances inside chains vs total, by static prefix match.
        let mut in_chain: HashMap<&'static str, usize> = HashMap::new();
        let mut total: HashMap<&'static str, usize> = HashMap::new();
        // Build per-node failure windows.
        let mut windows: HashMap<NodeId, Vec<(Micros, Micros)>> = HashMap::new();
        for f in &d.failures {
            windows
                .entry(f.node)
                .or_default()
                .push((f.time.saturating_sub(Micros::from_mins(6)), f.time));
        }
        for (phrase, _) in Phrase::table8() {
            let tmpl = phrase.spec().template;
            let prefix = &tmpl[..tmpl.find("{}").unwrap_or(tmpl.len())];
            for r in &d.records {
                if r.text.starts_with(prefix) {
                    *total.entry(phrase.spec().name).or_default() += 1;
                    if let Some(ws) = windows.get(&r.node) {
                        if ws.iter().any(|(lo, hi)| r.time >= *lo && r.time <= *hi) {
                            *in_chain.entry(phrase.spec().name).or_default() += 1;
                        }
                    }
                }
            }
        }
        for (phrase, pct) in Phrase::table8() {
            let name = phrase.spec().name;
            let t = *total.get(name).unwrap_or(&0);
            if t < 10 {
                continue; // too rare in this seed to assert a ratio
            }
            let i = *in_chain.get(name).unwrap_or(&0);
            let measured = 100.0 * i as f64 / t as f64;
            assert!(
                (measured - pct).abs() < 18.0,
                "{name}: measured contribution {measured:.1}% vs paper {pct}%"
            );
        }
    }
}

#[cfg(test)]
mod spatial_tests {
    use super::*;

    #[test]
    fn cabinet_correlation_concentrates_failures() {
        let mut p = SystemProfile::m1();
        p.nodes = 576; // 3 cabinets: correlation needs somewhere to go
        p.cabinet_correlation = 0.8;
        let d = generate(&p, 61);
        // Count consecutive failures sharing a cabinet.
        let mut same = 0usize;
        for w in d.failures.windows(2) {
            if w[0].node.cab_x == w[1].node.cab_x {
                same += 1;
            }
        }
        // Failures are sorted by time while correlation is applied in
        // generation order, so the effect shows up as a *concentrated
        // marginal* cabinet distribution. Compare against an uncorrelated
        // control on the same seed.
        let frac = same as f64 / (d.failures.len() - 1) as f64;
        let mut control_profile = p.clone();
        control_profile.cabinet_correlation = 0.0;
        let control = generate(&control_profile, 61);
        let mut control_same = 0usize;
        for w in control.failures.windows(2) {
            if w[0].node.cab_x == w[1].node.cab_x {
                control_same += 1;
            }
        }
        let control_frac = control_same as f64 / (control.failures.len() - 1) as f64;
        assert!(
            frac > control_frac + 0.04,
            "correlated fraction {frac:.2} vs control {control_frac:.2}"
        );
    }

    #[test]
    fn zero_correlation_spreads_failures() {
        let mut p = SystemProfile::m1();
        p.nodes = 576;
        let d = generate(&p, 62);
        let mut cabs = std::collections::HashSet::new();
        for f in &d.failures {
            cabs.insert(f.node.cab_x);
        }
        assert!(cabs.len() > 1, "failures confined to one cabinet");
    }
}
