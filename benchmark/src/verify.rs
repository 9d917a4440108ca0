//! Output checks shared by every workload: byte equality, the fp16
//! tolerance `tests/compiled_models.rs` already applies against
//! `Network::reference_f64`, and the grading of a faulted reply.

use aiga::prelude::*;

/// `|got − want| ≤ ATOL + RTOL·|want|` — the loosest tolerance
/// `tests/compiled_models.rs` uses against the f64 reference.
pub const ATOL: f64 = 4e-2;
pub const RTOL: f64 = 4e-2;

pub fn bytes_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn within_tolerance(got: &[f32], want: impl ExactSizeIterator<Item = f64>) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, w)| (g as f64 - w).abs() <= ATOL + RTOL * w.abs())
}

/// Checks (a)–(d) on a clean reply: right row count, no false alarm,
/// bytes equal to the expected (unprotected / solo) reply.
pub fn clean_reply_is_right(reply: &ServeReport, rows: usize, expected: &[f32]) -> bool {
    reply.rows == rows
        && !reply.report.fault_detected()
        && !reply.report.fault_corrected()
        && bytes_equal(&reply.report.output, expected)
}

/// What became of one injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A layer flagged the fault and it was not repaired.
    Flagged,
    /// Repaired in place; the reply is byte-equal to the clean one.
    Corrected,
    /// Unflagged, and the reply is within tolerance of the clean one
    /// (the fault was masked, absorbed by quantization — or, behind a
    /// retrying server, caught and re-executed out of sight).
    Benign,
    /// Unflagged and outside tolerance — or "corrected" to the wrong
    /// bytes. The outcome protection exists to prevent.
    Silent,
}

/// Grades a faulted reply against the clean reply of the same request.
pub fn classify(reply: &InferenceReport, clean: &[f32]) -> FaultOutcome {
    if reply.fault_detected() {
        FaultOutcome::Flagged
    } else if reply.fault_corrected() {
        if bytes_equal(&reply.output, clean) {
            FaultOutcome::Corrected
        } else {
            FaultOutcome::Silent
        }
    } else if within_tolerance(&reply.output, clean.iter().map(|&c| c as f64)) {
        FaultOutcome::Benign
    } else {
        FaultOutcome::Silent
    }
}

/// Tally of graded faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTally {
    pub injected: usize,
    pub flagged: usize,
    pub corrected: usize,
    pub benign: usize,
    pub silent: usize,
}

impl FaultTally {
    pub fn absorb(&mut self, outcome: FaultOutcome) {
        self.injected += 1;
        match outcome {
            FaultOutcome::Flagged => self.flagged += 1,
            FaultOutcome::Corrected => self.corrected += 1,
            FaultOutcome::Benign => self.benign += 1,
            FaultOutcome::Silent => self.silent += 1,
        }
    }

    /// `1 − silent ÷ injected` (1 when nothing was injected).
    pub fn caught_frac(&self) -> f64 {
        1.0 - self.share(self.silent)
    }

    pub fn share(&self, part: usize) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            part as f64 / self.injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(output: Vec<f32>, flagged: bool, corrected: bool) -> InferenceReport {
        InferenceReport {
            output,
            detections: flagged
                .then(|| LayerDetection {
                    layer: 0,
                    name: "fc".into(),
                    scheme: Scheme::GlobalAbft,
                    residual: 9.0,
                })
                .into_iter()
                .collect(),
            corrections: corrected
                .then(|| LayerCorrection {
                    layer: 0,
                    name: "fc".into(),
                    scheme: Scheme::GlobalAbft,
                    site: FaultSite::Column { col: 0 },
                    vote: false,
                    residual: 9.0,
                })
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn faulted_replies_are_graded_caught_benign_or_silent() {
        let clean = [1.0f32, -2.0, 0.0];
        // Flagged wins whatever the bytes say.
        assert_eq!(
            classify(&reply(vec![9.0, 9.0, 9.0], true, false), &clean),
            FaultOutcome::Flagged
        );
        // A correction only counts when it restored the clean bytes.
        assert_eq!(
            classify(&reply(clean.to_vec(), false, true), &clean),
            FaultOutcome::Corrected
        );
        assert_eq!(
            classify(&reply(vec![1.0, -2.0, 0.001], false, true), &clean),
            FaultOutcome::Silent
        );
        // Unflagged: inside the tolerance is benign, outside is silent.
        assert_eq!(
            classify(&reply(vec![1.03, -2.05, 0.03], false, false), &clean),
            FaultOutcome::Benign
        );
        assert_eq!(
            classify(&reply(vec![1.0, -2.0, 0.5], false, false), &clean),
            FaultOutcome::Silent
        );
        assert_eq!(
            classify(&reply(vec![1.0, f32::NAN, 0.0], false, false), &clean),
            FaultOutcome::Silent
        );
        assert_eq!(
            classify(&reply(vec![1.0, -2.0], false, false), &clean),
            FaultOutcome::Silent,
            "a reply of the wrong length is never benign"
        );
    }

    #[test]
    fn tally_turns_outcomes_into_shares() {
        let mut t = FaultTally::default();
        assert_eq!(t.caught_frac(), 1.0);
        for o in [
            FaultOutcome::Flagged,
            FaultOutcome::Corrected,
            FaultOutcome::Benign,
            FaultOutcome::Silent,
        ] {
            t.absorb(o);
        }
        assert_eq!(t.injected, 4);
        assert_eq!(t.caught_frac(), 0.75);
        assert_eq!(t.share(t.flagged), 0.25);
    }

    #[test]
    fn clean_replies_must_match_rows_flags_and_bytes() {
        let good = ServeReport {
            bucket: 8,
            rows: 3,
            schemes: vec![Scheme::GlobalAbft].into(),
            report: reply(vec![1.0, 2.0, 3.0], false, false),
        };
        assert!(clean_reply_is_right(&good, 3, &[1.0, 2.0, 3.0]));
        assert!(!clean_reply_is_right(&good, 4, &[1.0, 2.0, 3.0]));
        assert!(!clean_reply_is_right(&good, 3, &[1.0, 2.0, 3.5]));
        let alarm = ServeReport {
            report: reply(vec![1.0, 2.0, 3.0], true, false),
            ..good.clone()
        };
        assert!(!clean_reply_is_right(&alarm, 3, &[1.0, 2.0, 3.0]));
        // -0.0 and 0.0 compare equal as floats but are different bytes.
        assert!(!bytes_equal(&[0.0], &[-0.0]));
    }
}
