//! Prediction-efficiency metrics (paper Table 6).
//!
//! | Metric    | Formula                                       |
//! |-----------|-----------------------------------------------|
//! | Recall    | TP/(TP+FN)                                    |
//! | Precision | TP/(TP+FP)                                    |
//! | Accuracy  | (TP+TN)/(TP+FP+FN+TN)                         |
//! | F1 Score  | 2·(Recall·Precision)/(Recall+Precision)      |
//! | FP Rate   | FP/(FP+TN)                                    |
//! | FN Rate   | FN/(TP+FN) = 1-Recall                         |

/// Confusion-matrix counts for failure prediction.
///
/// ```
/// use desh_core::Confusion;
/// let mut c = Confusion::default();
/// c.record(true, true);   // TP
/// c.record(true, false);  // FP
/// c.record(false, false); // TN
/// assert_eq!(c.recall(), 1.0);
/// assert_eq!(c.precision(), 0.5);
/// assert_eq!(c.fp_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Correctly predicted failures.
    pub tp: u64,
    /// Incorrectly predicted failures.
    pub fp: u64,
    /// Non-failures correctly not flagged.
    pub tn: u64,
    /// Failures missed.
    pub fnn: u64,
}

impl Confusion {
    /// Record one outcome.
    pub fn record(&mut self, flagged: bool, is_failure: bool) {
        match (flagged, is_failure) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fnn += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Merge counts (parallel evaluation support).
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fnn += other.fnn;
    }

    /// Total outcomes.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fnn
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// TP/(TP+FN).
    pub fn recall(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fnn)
    }

    /// TP/(TP+FP).
    pub fn precision(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fp)
    }

    /// (TP+TN)/total.
    pub fn accuracy(&self) -> f64 {
        Self::ratio(self.tp + self.tn, self.total())
    }

    /// Harmonic mean of recall and precision.
    pub fn f1(&self) -> f64 {
        let r = self.recall();
        let p = self.precision();
        if r + p == 0.0 {
            0.0
        } else {
            2.0 * r * p / (r + p)
        }
    }

    /// FP/(FP+TN).
    pub fn fp_rate(&self) -> f64 {
        Self::ratio(self.fp, self.fp + self.tn)
    }

    /// FN/(TP+FN) = 1 - recall.
    pub fn fn_rate(&self) -> f64 {
        Self::ratio(self.fnn, self.tp + self.fnn)
    }

    /// Render the Figure 4/5 row for this confusion matrix (percentages).
    pub fn summary_row(&self, label: &str) -> String {
        format!(
            "{label}: recall {:.1}% precision {:.1}% accuracy {:.1}% F1 {:.1}% FP-rate {:.1}% FN-rate {:.1}% (tp {} fp {} tn {} fn {})",
            self.recall() * 100.0,
            self.precision() * 100.0,
            self.accuracy() * 100.0,
            self.f1() * 100.0,
            self.fp_rate() * 100.0,
            self.fn_rate() * 100.0,
            self.tp,
            self.fp,
            self.tn,
            self.fnn,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Confusion {
        Confusion {
            tp: 80,
            fp: 20,
            tn: 80,
            fnn: 20,
        }
    }

    #[test]
    fn table6_formulas() {
        let c = sample();
        assert!((c.recall() - 0.8).abs() < 1e-12);
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.accuracy() - 0.8).abs() < 1e-12);
        assert!((c.f1() - 0.8).abs() < 1e-12);
        assert!((c.fp_rate() - 0.2).abs() < 1e-12);
        assert!((c.fn_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fn_rate_is_one_minus_recall() {
        let c = Confusion {
            tp: 7,
            fp: 3,
            tn: 11,
            fnn: 5,
        };
        assert!((c.fn_rate() - (1.0 - c.recall())).abs() < 1e-12);
    }

    #[test]
    fn record_routes_counts() {
        let mut c = Confusion::default();
        c.record(true, true);
        c.record(true, false);
        c.record(false, true);
        c.record(false, false);
        assert_eq!(
            c,
            Confusion {
                tp: 1,
                fp: 1,
                tn: 1,
                fnn: 1
            }
        );
    }

    #[test]
    fn empty_counts_do_not_divide_by_zero() {
        let c = Confusion::default();
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.fp_rate(), 0.0);
        assert_eq!(c.fn_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.tp, 160);
        assert_eq!(a.total(), 400);
    }

    #[test]
    fn summary_row_contains_all_metrics() {
        let row = sample().summary_row("M1");
        for needle in [
            "recall",
            "precision",
            "accuracy",
            "F1",
            "FP-rate",
            "FN-rate",
        ] {
            assert!(row.contains(needle), "{row}");
        }
    }
}
