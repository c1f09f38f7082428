//! Runtime scenario construction.
//!
//! The static [`crate::scenario::SCENARIOS`] catalog mirrors the paper's
//! Table 7, but a downstream user studying their own system will have
//! their own fault cascades. [`ScenarioBuilder`] assembles custom chains
//! (phrases, inclusion probabilities, timing) at runtime, and
//! [`CustomScenario::sample`] produces instances with the same offset
//! semantics as the built-in classes.

use crate::phrases::Phrase;
use crate::scenario::ChainInstance;
use desh_util::Xoshiro256pp;

/// A runtime-defined failure scenario.
#[derive(Debug, Clone)]
pub struct CustomScenario {
    name: String,
    steps: Vec<(Phrase, f64)>,
    terminal: Phrase,
    lead_mean_secs: f64,
    lead_sd_secs: f64,
    gamma: f64,
}

/// Builder for [`CustomScenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    steps: Vec<(Phrase, f64)>,
    terminal: Option<Phrase>,
    lead_mean_secs: f64,
    lead_sd_secs: f64,
    gamma: f64,
}

impl ScenarioBuilder {
    /// Start a scenario with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
            terminal: None,
            lead_mean_secs: 120.0,
            lead_sd_secs: 18.0,
            gamma: 0.9,
        }
    }

    /// Append a chain step with an inclusion probability in [0, 1].
    pub fn step(mut self, phrase: Phrase, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.steps.push((phrase, prob));
        self
    }

    /// Set the terminal message (must be a failure terminal).
    pub fn terminal(mut self, phrase: Phrase) -> Self {
        assert!(
            phrase.is_failure_terminal(),
            "{phrase:?} is not a failure terminal"
        );
        self.terminal = Some(phrase);
        self
    }

    /// Set the lead-time distribution (mean and standard deviation, secs).
    pub fn lead_secs(mut self, mean: f64, sd: f64) -> Self {
        assert!(mean > 0.0 && sd >= 0.0);
        self.lead_mean_secs = mean;
        self.lead_sd_secs = sd;
        self
    }

    /// Set the cascade shape exponent (see `scenario::sample_chain`;
    /// below 1 keeps early events near the chain start).
    pub fn gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.0);
        self.gamma = gamma;
        self
    }

    /// Finish. Requires a terminal and at least two steps.
    pub fn build(self) -> CustomScenario {
        assert!(self.steps.len() >= 2, "a chain needs at least two steps");
        CustomScenario {
            name: self.name,
            steps: self.steps,
            terminal: self.terminal.expect("terminal not set"),
            lead_mean_secs: self.lead_mean_secs,
            lead_sd_secs: self.lead_sd_secs,
            gamma: self.gamma,
        }
    }
}

impl CustomScenario {
    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sample an instance: (seconds-before-terminal, phrase) pairs oldest
    /// first, terminal last at 0.0 — the same contract as
    /// [`crate::scenario::sample_chain`].
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> ChainInstance {
        let mut chosen: Vec<Phrase> = self
            .steps
            .iter()
            .filter(|(_, p)| rng.chance(*p))
            .map(|(ph, _)| *ph)
            .collect();
        if chosen.len() < 2 {
            chosen = self.steps.iter().take(2).map(|(ph, _)| *ph).collect();
        }
        let lead = rng
            .normal_with(self.lead_mean_secs, self.lead_sd_secs)
            .clamp(self.lead_mean_secs * 0.35, self.lead_mean_secs * 1.9);
        let n = chosen.len();
        let mut events: Vec<(f64, Phrase)> = chosen
            .into_iter()
            .enumerate()
            .map(|(k, p)| {
                let frac = 1.0 - (k as f64) / (n as f64);
                let jitter = 1.0 + (rng.f64() - 0.5) * 0.25;
                ((lead * frac.powf(self.gamma) * jitter).max(0.3), p)
            })
            .collect();
        events[0].0 = lead;
        for k in 1..events.len() {
            let max_allowed = events[k - 1].0 - 0.25;
            if events[k].0 >= max_allowed {
                events[k].0 = max_allowed.max(0.3);
            }
        }
        events.push((0.0, self.terminal));
        ChainInstance {
            class: crate::scenario::FailureClass::Panic,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_scenario() -> CustomScenario {
        // A made-up "GPU" cascade assembled from existing phrases.
        ScenarioBuilder::new("gpu_xid")
            .step(Phrase::PcieCorrected, 0.9)
            .step(Phrase::AerMulti, 0.8)
            .step(Phrase::NullDeref, 0.7)
            .step(Phrase::CallTrace, 0.9)
            .terminal(Phrase::CbNodeUnavailable)
            .lead_secs(200.0, 25.0)
            .build()
    }

    #[test]
    fn custom_scenarios_sample_valid_chains() {
        let sc = gpu_scenario();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            let c = sc.sample(&mut rng);
            assert!(c.events.len() >= 3);
            for w in c.events.windows(2) {
                assert!(w[0].0 > w[1].0, "offsets must decrease");
            }
            assert_eq!(c.events.last().unwrap().0, 0.0);
            assert!(c.events.last().unwrap().1.is_failure_terminal());
        }
    }

    #[test]
    fn lead_distribution_matches_spec() {
        let sc = gpu_scenario();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mean: f64 = (0..400)
            .map(|_| sc.sample(&mut rng).lead_secs())
            .sum::<f64>()
            / 400.0;
        assert!((mean - 200.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    #[should_panic]
    fn non_terminal_rejected() {
        ScenarioBuilder::new("bad").terminal(Phrase::Wait4Boot);
    }

    #[test]
    #[should_panic]
    fn too_few_steps_rejected() {
        ScenarioBuilder::new("bad")
            .step(Phrase::CallTrace, 1.0)
            .terminal(Phrase::CbNodeUnavailable)
            .build();
    }
}

/// Assemble a dataset from custom scenarios: injected chains plus benign
/// routine noise. A lighter-weight sibling of [`crate::generate`] for
/// studies of user-defined fault cascades (no near-misses, maintenance, or
/// Table 8 calibration — add confounders as extra scenarios if needed).
pub fn synthesize(
    scenarios: &[(CustomScenario, f64)],
    nodes: usize,
    duration: desh_util::Micros,
    failures: usize,
    noise_per_node_hour: f64,
    seed: u64,
) -> crate::generator::Dataset {
    use crate::generator::GroundTruthFailure;
    use crate::nodeid::Cluster;
    use crate::record::LogRecord;
    use desh_util::Micros;

    assert!(!scenarios.is_empty());
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC057_0001);
    let cluster = Cluster::with_nodes(nodes);
    let weights: Vec<f64> = scenarios.iter().map(|(_, w)| *w).collect();
    let mut records: Vec<LogRecord> = Vec::new();
    let mut truth: Vec<GroundTruthFailure> = Vec::new();

    for _ in 0..failures {
        let (scenario, _) = &scenarios[rng.weighted(&weights)];
        let node = cluster.node(rng.index(cluster.len()));
        let terminal = Micros(rng.range_u64(duration.0 / 50, duration.0 - duration.0 / 100));
        let chain = scenario.sample(&mut rng);
        for (before_secs, phrase) in &chain.events {
            let t = terminal.saturating_sub(Micros::from_secs_f64(*before_secs));
            records.push(LogRecord::new(t, node, phrase.render(&mut rng)));
        }
        truth.push(GroundTruthFailure {
            node,
            time: terminal,
            class: chain.class,
        });
    }

    // Routine noise, same cycles as the main generator.
    let cycles = crate::scenario::routine_cycles();
    let rate_per_us = noise_per_node_hour / desh_util::time::MICROS_PER_HOUR as f64;
    for (idx, node) in cluster.nodes().iter().enumerate() {
        let cycle = cycles[idx % cycles.len()];
        let mut pos = rng.index(cycle.len());
        let mut t = rng.exponential(rate_per_us);
        while (t as u64) < duration.0 {
            let p = cycle[pos];
            pos = (pos + 1) % cycle.len();
            records.push(LogRecord::new(Micros(t as u64), *node, p.render(&mut rng)));
            t += rng.exponential(rate_per_us);
        }
    }

    records.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.node.cmp(&b.node)));
    truth.sort_by_key(|f| f.time);
    crate::generator::Dataset {
        system: "custom".into(),
        nodes,
        duration,
        records,
        failures: truth,
    }
}

#[cfg(test)]
mod synthesize_tests {
    use super::*;
    use desh_util::Micros;

    #[test]
    fn synthesize_produces_sorted_records_and_truth() {
        let sc = ScenarioBuilder::new("custom")
            .step(Phrase::PcieCorrected, 0.9)
            .step(Phrase::NullDeref, 0.9)
            .step(Phrase::CallTrace, 0.9)
            .terminal(Phrase::CbNodeUnavailable)
            .lead_secs(90.0, 10.0)
            .build();
        let d = synthesize(&[(sc, 1.0)], 8, Micros::from_hours(4), 10, 4.0, 5);
        assert_eq!(d.failures.len(), 10);
        for w in d.records.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Every failure has a terminal line.
        for f in &d.failures {
            assert!(d
                .records
                .iter()
                .any(|r| r.node == f.node && r.time == f.time));
        }
    }
}
