//! Convenience API for protecting a single matrix multiplication.
//!
//! [`ProtectedGemm`] binds its scheme to the weights once
//! ([`Scheme::bind`]) and serves any number of runs — there is no
//! per-scheme dispatch here at all. It owns its activations, so it is
//! where the conveniences over [`BoundGemm`] live: an allocating run,
//! a workspace-threaded run, and a run followed by its repair. A
//! convolution is protected as the pipeline runs it, a one-conv
//! `Network` through [`crate::ProtectedPipeline::compile`].

use crate::kernel::BoundGemm;
use crate::schemes::Scheme;
use aiga_gpu::engine::{Dest, FaultPlan, Matrix, Workspace};
use aiga_gpu::GemmShape;

pub use crate::kernel::{RunReport, Verdict};

/// A matrix multiplication protected by one redundancy scheme.
pub struct ProtectedGemm {
    a: Matrix,
    bound: BoundGemm,
    fault: Option<FaultPlan>,
}

impl ProtectedGemm {
    /// Protects `a · b` with `scheme`.
    pub fn new(a: Matrix, b: Matrix, scheme: Scheme) -> Self {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        ProtectedGemm {
            a,
            bound: scheme.bind(&b),
            fault: None,
        }
    }

    /// Protects a deterministic random problem of the given shape
    /// (activation-scale values), convenient for demos and tests.
    pub fn random(shape: GemmShape, scheme: Scheme, seed: u64) -> Self {
        let a = Matrix::random(shape.m as usize, shape.k as usize, seed);
        let b = Matrix::random(shape.k as usize, shape.n as usize, seed.wrapping_add(1));
        Self::new(a, b, scheme)
    }

    /// Injects a fault into subsequent [`Self::run`] calls.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The scheme in use.
    pub fn scheme(&self) -> Scheme {
        self.bound.scheme()
    }

    /// Runs the protected GEMM and returns the verdict and output.
    pub fn run(&self) -> RunReport {
        // A stored fault is borrowed as a 0-or-1-element slice; no
        // per-call allocation.
        self.run_with(self.fault.as_slice())
    }

    /// Runs with an explicit fault list (ignoring any stored fault) —
    /// the entry point injection campaigns use, so one prepared GEMM can
    /// serve thousands of trials without re-binding.
    pub fn run_with(&self, faults: &[FaultPlan]) -> RunReport {
        let mut ws = Workspace::new();
        let verdict = self.run_into(faults, &mut ws);
        RunReport {
            verdict,
            output: ws.take_output(),
        }
    }

    /// Like [`Self::run_with`] but executing inside a caller-supplied
    /// workspace: the output stays in `ws` (read it via
    /// [`Workspace::output`]) and only the verdict is returned. A warm
    /// workspace makes repeated trials allocation-free — the
    /// fault-campaign hot path (one workspace per worker).
    pub fn run_into(&self, faults: &[FaultPlan], ws: &mut Workspace) -> Verdict {
        self.bound.run_into(self.a.view(), faults, Dest::None, ws)
    }

    /// Like [`Self::run_into`] but attempting localization + targeted
    /// recompute when the run flags a fault ([`BoundGemm::correct_into`])
    /// — the one-call recovery entry point. On [`Verdict::Corrected`]
    /// the workspace output is byte-equal to a clean run; schemes that
    /// cannot localize return the plain `Detected` verdict with the
    /// output untouched.
    pub fn run_corrected_into(&self, faults: &[FaultPlan], ws: &mut Workspace) -> Verdict {
        let verdict = self.run_into(faults, ws);
        self.bound.correct_into(self.a.view(), ws, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::FaultKind;

    #[test]
    fn every_scheme_is_clean_on_fault_free_runs() {
        for scheme in Scheme::all_protected() {
            let g = ProtectedGemm::random(GemmShape::new(48, 40, 56), scheme, 99);
            assert!(g.run().verdict.is_clean(), "{scheme}");
        }
    }

    #[test]
    fn every_scheme_detects_a_large_fault() {
        let fault = FaultPlan {
            row: 3,
            col: 5,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(1e3),
        };
        for scheme in Scheme::all_protected() {
            let g =
                ProtectedGemm::random(GemmShape::new(48, 40, 56), scheme, 123).with_fault(fault);
            assert!(g.run().verdict.is_detected(), "{scheme}");
        }
    }

    #[test]
    fn unprotected_never_detects() {
        let fault = FaultPlan {
            row: 0,
            col: 0,
            after_step: u64::MAX,
            kind: FaultKind::SetValue(f32::MAX),
        };
        let g = ProtectedGemm::random(GemmShape::new(16, 16, 16), Scheme::Unprotected, 7)
            .with_fault(fault);
        let r = g.run();
        assert!(r.verdict.is_clean());
        assert_eq!(r.output.get(0, 0), f32::MAX);
    }

    #[test]
    fn output_matches_unprotected_result() {
        let shape = GemmShape::new(32, 24, 40);
        let base = ProtectedGemm::random(shape, Scheme::Unprotected, 5).run();
        for scheme in Scheme::all_protected() {
            let r = ProtectedGemm::random(shape, scheme, 5).run();
            assert_eq!(r.output.c, base.output.c, "{scheme} changed the math");
        }
    }

    #[test]
    fn run_with_overrides_the_stored_fault() {
        let shape = GemmShape::new(32, 32, 32);
        let g =
            ProtectedGemm::random(shape, Scheme::ThreadLevelOneSided, 9).with_fault(FaultPlan {
                row: 1,
                col: 1,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(1e3),
            });
        assert!(g.run().verdict.is_detected());
        assert!(g.run_with(&[]).verdict.is_clean());
    }

    #[test]
    fn extension_schemes_work_through_the_same_api() {
        let g = ProtectedGemm::random(GemmShape::new(32, 32, 32), Scheme::MultiChecksum(2), 15);
        assert!(g.run().verdict.is_clean());
        assert_eq!(g.scheme(), Scheme::MultiChecksum(2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_is_rejected() {
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(6, 4);
        ProtectedGemm::new(a, b, Scheme::GlobalAbft);
    }
}
