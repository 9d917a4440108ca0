//! Online adaptive protection control.
//!
//! The static intensity-guided plan picks each layer's scheme for a
//! *assumed* fault environment. Under real traffic the observed fault
//! rate drifts — a hotter part, a marginal voltage rail — and a fixed
//! plan either over-pays (strong schemes, no faults) or under-protects
//! (weak schemes, rising silent-corruption risk). The
//! [`AdaptiveController`] closes that loop: it watches each layer's
//! fault rate over a sliding window of served requests and walks the
//! layer up or down the [`ladder`] of scheme strength **relative to the
//! static plan** — escalation has no ceiling short of full replication,
//! relaxation floors at the plan's baseline choice.
//!
//! Flapping is prevented twice over: escalation and relaxation use
//! *different* thresholds (`escalate_threshold > relax_threshold`), and
//! every switch clears the window and starts a dwell period
//! (`min_dwell` observations) during which the controller holds still.
//!
//! The controller is pure bookkeeping — no clocks, no threads — so the
//! fault campaign, the serving [`crate::session::Session`] (builder
//! knob `adaptive`), and unit tests all drive it with the same
//! [`Observation`] type.

use crate::kernel::Verdict;
use crate::schemes::Scheme;

/// One per-trial observation: what a scheme concluded about one run.
/// Shared by the fault campaign's detailed records and the controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// Scheme that judged the run.
    pub scheme: Scheme,
    /// Its verdict (carries localization on `Corrected`).
    pub verdict: Verdict,
}

impl Observation {
    /// True if the run flagged a fault at all (detected *or* corrected)
    /// — the event the controller's fault-rate window counts.
    pub fn fault_flagged(&self) -> bool {
        self.verdict.fault_flagged()
    }
}

/// Tuning knobs of the [`AdaptiveController`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptConfig {
    /// Sliding-window length, in observations per layer. The controller
    /// never acts before a layer's window has filled.
    pub window: usize,
    /// Fault rate at or above which a layer escalates one ladder step.
    pub escalate_threshold: f64,
    /// Fault rate at or below which a layer relaxes one step back
    /// toward its baseline. Must be strictly below
    /// `escalate_threshold` (that gap is the hysteresis band).
    pub relax_threshold: f64,
    /// Observations a layer must dwell after any switch before it may
    /// switch again.
    pub min_dwell: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            window: 64,
            escalate_threshold: 0.05,
            relax_threshold: 0.005,
            min_dwell: 64,
        }
    }
}

/// The canonical scheme-strength ladder, weakest first. Escalation
/// climbs it one rung at a time; relaxation descends, flooring at the
/// static plan's baseline. `MultiChecksum` occupies one rung regardless
/// of its round count (relaxing *to* it restores the baseline's exact
/// rounds).
pub const fn ladder() -> [Scheme; 7] {
    [
        Scheme::Unprotected,
        Scheme::GlobalAbft,
        Scheme::MultiChecksum(2),
        Scheme::ThreadLevelOneSided,
        Scheme::ThreadLevelTwoSided,
        Scheme::ReplicationSingleAcc,
        Scheme::ReplicationTraditional,
    ]
}

/// A scheme's rung on the [`ladder`].
fn rank(s: Scheme) -> usize {
    match s {
        Scheme::Unprotected => 0,
        Scheme::GlobalAbft => 1,
        Scheme::MultiChecksum(_) => 2,
        Scheme::ThreadLevelOneSided => 3,
        Scheme::ThreadLevelTwoSided => 4,
        Scheme::ReplicationSingleAcc => 5,
        Scheme::ReplicationTraditional => 6,
    }
}

/// The next-stronger scheme, if any rung remains above.
fn stronger(s: Scheme) -> Option<Scheme> {
    let l = ladder();
    l.get(rank(s) + 1).copied()
}

/// One relaxation step toward `baseline` (never past it — stepping at
/// or below the baseline's rung restores the baseline scheme itself,
/// round count included).
fn relax_step(s: Scheme, baseline: Scheme) -> Scheme {
    let r = rank(s);
    debug_assert!(r > rank(baseline), "relaxing at or below the floor");
    let down = ladder()[r - 1];
    if rank(down) <= rank(baseline) {
        baseline
    } else {
        down
    }
}

/// One scheme switch decided by the controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adjustment {
    /// GEMM layer index the switch applies to.
    pub layer: usize,
    /// Scheme the layer ran before the switch.
    pub from: Scheme,
    /// Scheme the layer runs from now on.
    pub to: Scheme,
    /// True for an escalation, false for a relaxation.
    pub escalated: bool,
}

/// Per-layer sliding-window fault-rate controller (see module docs).
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    config: AdaptConfig,
    baseline: Vec<Scheme>,
    current: Vec<Scheme>,
    /// Per-layer observation rings, each `config.window` long.
    ring: Vec<Vec<bool>>,
    cursor: Vec<usize>,
    filled: Vec<usize>,
    faults: Vec<usize>,
    dwell: Vec<usize>,
}

impl AdaptiveController {
    /// A controller over one static plan: `baseline[i]` is the plan's
    /// chosen scheme for GEMM layer `i` (both the starting point and
    /// the relaxation floor).
    pub fn new(config: AdaptConfig, baseline: Vec<Scheme>) -> Self {
        assert!(config.window >= 1, "window must be at least 1");
        assert!(
            config.escalate_threshold > config.relax_threshold,
            "escalate_threshold must exceed relax_threshold (hysteresis band)"
        );
        let n = baseline.len();
        AdaptiveController {
            current: baseline.clone(),
            baseline,
            ring: vec![vec![false; config.window]; n],
            cursor: vec![0; n],
            filled: vec![0; n],
            faults: vec![0; n],
            dwell: vec![0; n],
            config,
        }
    }

    /// Number of layers under control.
    pub fn layers(&self) -> usize {
        self.baseline.len()
    }

    /// The static plan's per-layer schemes (the relaxation floor).
    pub fn baseline(&self) -> &[Scheme] {
        &self.baseline
    }

    /// The per-layer schemes currently in force.
    pub fn current(&self) -> &[Scheme] {
        &self.current
    }

    /// A layer's fault rate over its (possibly still-filling) window.
    pub fn fault_rate(&self, layer: usize) -> f64 {
        if self.filled[layer] == 0 {
            0.0
        } else {
            self.faults[layer] as f64 / self.filled[layer] as f64
        }
    }

    /// Feeds one observation for `layer` (`faulty` = the request
    /// flagged a fault there, detected or corrected) and returns the
    /// scheme switch it triggered, if any. Allocation-free.
    pub fn observe(&mut self, layer: usize, faulty: bool) -> Option<Adjustment> {
        let w = self.config.window;
        let c = self.cursor[layer];
        if self.filled[layer] == w {
            if self.ring[layer][c] {
                self.faults[layer] -= 1;
            }
        } else {
            self.filled[layer] += 1;
        }
        self.ring[layer][c] = faulty;
        if faulty {
            self.faults[layer] += 1;
        }
        self.cursor[layer] = (c + 1) % w;
        self.dwell[layer] += 1;

        if self.filled[layer] < w || self.dwell[layer] < self.config.min_dwell {
            return None;
        }
        let rate = self.faults[layer] as f64 / w as f64;
        let cur = self.current[layer];
        if rate >= self.config.escalate_threshold {
            stronger(cur).and_then(|to| self.switch(layer, to, true))
        } else if rate <= self.config.relax_threshold && rank(cur) > rank(self.baseline[layer]) {
            let to = relax_step(cur, self.baseline[layer]);
            self.switch(layer, to, false)
        } else {
            None
        }
    }

    /// [`Self::observe`] from a shared [`Observation`] record.
    pub fn observe_trial(&mut self, layer: usize, obs: &Observation) -> Option<Adjustment> {
        self.observe(layer, obs.fault_flagged())
    }

    /// Commits a switch: reset the layer's window and dwell so the new
    /// scheme is judged on fresh evidence.
    fn switch(&mut self, layer: usize, to: Scheme, escalated: bool) -> Option<Adjustment> {
        let from = self.current[layer];
        if from == to {
            return None;
        }
        self.current[layer] = to;
        self.ring[layer].iter_mut().for_each(|b| *b = false);
        self.cursor[layer] = 0;
        self.filled[layer] = 0;
        self.faults[layer] = 0;
        self.dwell[layer] = 0;
        Some(Adjustment {
            layer,
            from,
            to,
            escalated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, min_dwell: usize) -> AdaptConfig {
        AdaptConfig {
            window,
            escalate_threshold: 0.25,
            relax_threshold: 0.01,
            min_dwell,
        }
    }

    #[test]
    fn escalates_when_the_fault_rate_crosses_the_threshold() {
        let mut ctrl = AdaptiveController::new(cfg(4, 1), vec![Scheme::GlobalAbft]);
        assert_eq!(ctrl.observe(0, false), None);
        assert_eq!(ctrl.observe(0, false), None);
        assert_eq!(ctrl.observe(0, false), None);
        // Fourth observation fills the window at rate 1/4 = 0.25.
        let adj = ctrl.observe(0, true).expect("escalation");
        assert_eq!(adj.from, Scheme::GlobalAbft);
        assert_eq!(adj.to, Scheme::MultiChecksum(2), "{adj:?}");
        assert!(adj.escalated);
        assert_eq!(ctrl.current()[0], Scheme::MultiChecksum(2));
    }

    #[test]
    fn relaxes_back_to_baseline_and_never_below_it() {
        let mut ctrl = AdaptiveController::new(cfg(2, 1), vec![Scheme::GlobalAbft]);
        ctrl.observe(0, true);
        let up = ctrl.observe(0, true).expect("escalate");
        assert_eq!(up.to, Scheme::MultiChecksum(2));
        // Two clean observations: rate 0 ≤ relax threshold.
        ctrl.observe(0, false);
        let down = ctrl.observe(0, false).expect("relax");
        assert_eq!(down.to, Scheme::GlobalAbft);
        assert!(!down.escalated);
        // Clean traffic at the baseline does nothing further.
        for _ in 0..8 {
            assert_eq!(ctrl.observe(0, false), None, "must not drop below floor");
        }
        assert_eq!(ctrl.current()[0], Scheme::GlobalAbft);
    }

    #[test]
    fn dwell_holds_the_controller_after_a_switch() {
        let mut ctrl = AdaptiveController::new(cfg(2, 6), vec![Scheme::GlobalAbft]);
        // Warm up past the initial dwell, then force an escalation.
        for _ in 0..4 {
            ctrl.observe(0, false);
        }
        ctrl.observe(0, true);
        let up = ctrl.observe(0, true).expect("escalate");
        assert!(up.escalated);
        // Clean traffic immediately after: the dwell (6) outlasts the
        // window (2), so no relaxation until it expires.
        for i in 0..5 {
            assert_eq!(ctrl.observe(0, false), None, "dwell violated at {i}");
        }
        let down = ctrl.observe(0, false).expect("relax after dwell");
        assert!(!down.escalated);
    }

    #[test]
    fn escalation_tops_out_at_the_strongest_rung() {
        let mut ctrl = AdaptiveController::new(cfg(1, 1), vec![Scheme::ReplicationTraditional]);
        for _ in 0..4 {
            assert_eq!(ctrl.observe(0, true), None, "nothing above the top");
        }
    }

    #[test]
    fn relaxing_to_the_multi_checksum_rung_restores_baseline_rounds() {
        let mut ctrl = AdaptiveController::new(cfg(1, 1), vec![Scheme::MultiChecksum(3)]);
        let up = ctrl.observe(0, true).expect("escalate");
        assert_eq!(up.to, Scheme::ThreadLevelOneSided);
        let down = ctrl.observe(0, false).expect("relax");
        assert_eq!(down.to, Scheme::MultiChecksum(3), "rounds must survive");
    }

    #[test]
    fn layers_adapt_independently() {
        let mut ctrl =
            AdaptiveController::new(cfg(2, 1), vec![Scheme::GlobalAbft, Scheme::Unprotected]);
        ctrl.observe(0, true);
        let adj = ctrl.observe(0, true).expect("layer 0 escalates");
        assert_eq!(adj.layer, 0);
        assert_eq!(
            ctrl.current(),
            &[Scheme::MultiChecksum(2), Scheme::Unprotected]
        );
        assert_eq!(ctrl.fault_rate(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_thresholds_are_rejected() {
        AdaptiveController::new(
            AdaptConfig {
                window: 4,
                escalate_threshold: 0.01,
                relax_threshold: 0.5,
                min_dwell: 1,
            },
            vec![Scheme::GlobalAbft],
        );
    }
}
