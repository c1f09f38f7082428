//! Pipeline configuration, mirroring Table 5 of the paper.
//!
//! | Phase   | Input vector        | #HL | Steps | HS | Loss, Optimizer |
//! |---------|---------------------|-----|-------|----|-----------------|
//! | Phase 1 | (P1, P2, ..)        | 2   | 3     | 8  | SGD, cat. xent  |
//! | Phase 2 | (ΔT1, P1), ..       | 2   | 1     | 5  | MSE, RMSprop    |
//! | Phase 3 | (ΔT4, P4), ..       | 2   | 1     | 5  | MSE, RMSprop    |

use desh_nn::SgnsConfig;

/// Phase-1 (phrase language model) hyper-parameters.
#[derive(Debug, Clone)]
pub struct Phase1Config {
    /// Word-embedding width fed to the LSTM.
    pub embed_dim: usize,
    /// Hidden width per LSTM layer.
    pub hidden: usize,
    /// Number of hidden layers (paper: 2).
    pub layers: usize,
    /// History window size (paper: 8).
    pub history: usize,
    /// Steps of prediction (paper: 3).
    pub steps: usize,
    /// Training epochs over the window set.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// Pre-train skip-gram embeddings before the LSTM (paper §3.1).
    pub use_sgns: bool,
    /// Skip-gram settings (asymmetric 8-left/3-right window per the paper).
    pub sgns: SgnsConfig,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            hidden: 48,
            layers: 2,
            history: 8,
            steps: 3,
            epochs: 4,
            lr: 0.3,
            batch: 64,
            use_sgns: true,
            sgns: SgnsConfig {
                dim: 16,
                epochs: 2,
                ..SgnsConfig::default()
            },
        }
    }
}

/// Phase-2 (lead-time model) hyper-parameters.
#[derive(Debug, Clone)]
pub struct Phase2Config {
    /// Hidden width per LSTM layer.
    pub hidden: usize,
    /// Number of hidden layers (paper: 2).
    pub layers: usize,
    /// History window size (paper: 5).
    pub history: usize,
    /// Training epochs over the chain windows.
    pub epochs: usize,
    /// RMSprop learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// ΔT normalisation scale in seconds (chains span up to ~5 minutes).
    pub dt_scale: f32,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Self {
            hidden: 64,
            layers: 2,
            history: 5,
            epochs: 250,
            lr: 0.003,
            batch: 32,
            dt_scale: 300.0,
        }
    }
}

/// Phase-3 (inference) parameters.
#[derive(Debug, Clone)]
pub struct Phase3Config {
    /// MSE threshold for flagging a failure (paper: 0.5).
    pub mse_threshold: f64,
    /// Extra multiplier on the vocabulary-normalised MSE (the raw MSE is
    /// first multiplied by (vocab+1)/2 so that one full phrase mismatch
    /// scores ~1.0, making the paper's 0.5 threshold meaningful).
    pub score_scale: f64,
    /// Minimum observed transitions before a flag may be raised. Lower
    /// values flag earlier: longer lead times, more false positives
    /// (the Figure 8 trade-off knob).
    pub min_evidence: usize,
}

impl Default for Phase3Config {
    fn default() -> Self {
        Self {
            mse_threshold: 0.5,
            score_scale: 1.0,
            min_evidence: 1,
        }
    }
}

/// Episode/chain extraction parameters shared by training and testing.
#[derive(Debug, Clone)]
pub struct EpisodeConfig {
    /// Gap (seconds) between consecutive non-Safe events on a node that
    /// splits two episodes.
    pub session_gap_secs: f64,
    /// Maximum lookback (seconds) from a terminal message when forming a
    /// training failure chain.
    pub chain_lookback_secs: f64,
    /// Minimum events for an episode to be considered at all.
    pub min_events: usize,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        Self {
            session_gap_secs: 200.0,
            chain_lookback_secs: 420.0,
            min_events: 3,
        }
    }
}

/// Full Desh configuration.
#[derive(Debug, Clone, Default)]
pub struct DeshConfig {
    /// Phase-1 settings.
    pub phase1: Phase1Config,
    /// Phase-2 settings.
    pub phase2: Phase2Config,
    /// Phase-3 settings.
    pub phase3: Phase3Config,
    /// Episode extraction settings.
    pub episodes: EpisodeConfig,
}

impl DeshConfig {
    /// Render the Table 5 parameter summary for this configuration.
    pub fn table5(&self) -> String {
        let mut s = String::new();
        s.push_str("# | Input Vector     | #HL | Steps | HS | Loss, Optimizer\n");
        s.push_str(&format!(
            "Phase-1 | (P1, P2..PN)     | {}   | {}     | {}  | SGD, categorical crossentropy\n",
            self.phase1.layers, self.phase1.steps, self.phase1.history
        ));
        s.push_str(&format!(
            "Phase-2 | (dT1,P1),(dT2,P2) | {}   | 1     | {}  | MSE, RMSprop\n",
            self.phase2.layers, self.phase2.history
        ));
        s.push_str(&format!(
            "Phase-3 | (dT4,P4),(dT5,P5) | {}   | 1     | {}  | MSE, RMSprop\n",
            self.phase2.layers, self.phase2.history
        ));
        s
    }

    /// A scaled-down configuration for unit tests: same structure, fewer
    /// epochs and smaller widths.
    pub fn fast() -> Self {
        Self {
            phase1: Phase1Config {
                embed_dim: 8,
                hidden: 16,
                epochs: 1,
                sgns: SgnsConfig {
                    dim: 8,
                    epochs: 1,
                    ..SgnsConfig::default()
                },
                ..Phase1Config::default()
            },
            phase2: Phase2Config {
                hidden: 32,
                epochs: 80,
                ..Phase2Config::default()
            },
            phase3: Phase3Config::default(),
            episodes: EpisodeConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table5() {
        let c = DeshConfig::default();
        assert_eq!(c.phase1.layers, 2);
        assert_eq!(c.phase1.steps, 3);
        assert_eq!(c.phase1.history, 8);
        assert_eq!(c.phase2.layers, 2);
        assert_eq!(c.phase2.history, 5);
        assert_eq!(c.phase3.mse_threshold, 0.5);
    }

    #[test]
    fn table5_rendering_mentions_every_phase() {
        let t = DeshConfig::default().table5();
        assert!(t.contains("Phase-1") && t.contains("Phase-2") && t.contains("Phase-3"));
        assert!(t.contains("SGD") && t.contains("RMSprop"));
    }
}
