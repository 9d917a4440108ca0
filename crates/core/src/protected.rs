//! Convenience API for protecting a single matrix multiplication.
//!
//! [`ProtectedGemm`] binds its scheme to the weights once
//! ([`Scheme::bind`]) and serves any number of runs — there is no
//! per-scheme dispatch here at all.

use crate::kernel::BoundKernel;
use crate::schemes::Scheme;
use aiga_gpu::engine::{FaultPlan, Matrix, Workspace};
use aiga_gpu::GemmShape;

pub use crate::kernel::{RunReport, Verdict};

/// A matrix multiplication protected by one redundancy scheme.
pub struct ProtectedGemm {
    a: Matrix,
    bound: Box<dyn BoundKernel>,
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
        self.bound.run(self.a.view(), faults)
    }

    /// Like [`Self::run_with`] but executing inside a caller-supplied
    /// workspace: the output stays in `ws` (read it via
    /// [`Workspace::output`]) and only the verdict is returned. A warm
    /// workspace makes repeated trials allocation-free — the
    /// fault-campaign hot path (one workspace per worker).
    pub fn run_into(&self, faults: &[FaultPlan], ws: &mut Workspace) -> Verdict {
        self.bound.run_into(self.a.view(), faults, ws)
    }

    /// Like [`Self::run_into`] but attempting localization + targeted
    /// recompute when the run flags a fault (see
    /// [`BoundKernel::run_corrected_into`]). On
    /// [`Verdict::Corrected`] the workspace output is byte-equal to a
    /// clean run; schemes that cannot localize return the plain
    /// `Detected` verdict with the output untouched.
    pub fn run_corrected_into(&self, faults: &[FaultPlan], ws: &mut Workspace) -> Verdict {
        self.bound.run_corrected_into(self.a.view(), faults, ws)
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

/// A convolutional layer protected through its implicit-GEMM lowering —
/// the exact path the paper protects (§2.1): im2col the input, multiply
/// by the reshaped filters, check with the chosen scheme.
pub struct ProtectedConv {
    gemm: ProtectedGemm,
    out_dims: (usize, usize),
    c_out: usize,
    batch: usize,
}

impl ProtectedConv {
    /// Lowers and protects one convolution.
    pub fn new(
        input: &aiga_nn::Tensor,
        filters: &aiga_nn::Tensor,
        params: aiga_nn::ConvParams,
        scheme: Scheme,
    ) -> Self {
        let a = aiga_nn::im2col(input, params);
        let b = aiga_nn::conv::filters_to_matrix(filters);
        let out_dims = params.out_dims(input.height, input.width);
        ProtectedConv {
            gemm: ProtectedGemm::new(a, b, scheme),
            out_dims,
            c_out: params.c_out,
            batch: input.batch,
        }
    }

    /// Injects a fault at output position `(n, c_out, oy, ox)`.
    pub fn with_fault_at(
        mut self,
        n: usize,
        c: usize,
        oy: usize,
        ox: usize,
        after_step: u64,
        kind: aiga_gpu::engine::FaultKind,
    ) -> Self {
        let (ho, wo) = self.out_dims;
        self.gemm = self.gemm.with_fault(FaultPlan {
            row: (n * ho + oy) * wo + ox,
            col: c,
            after_step,
            kind,
        });
        self
    }

    /// Output spatial dimensions.
    pub fn out_dims(&self) -> (usize, usize) {
        self.out_dims
    }

    /// Runs the protected convolution; the report's output is the GEMM
    /// view (`M × N` = `B·Ho·Wo × Cout`).
    pub fn run(&self) -> RunReport {
        self.gemm.run()
    }

    /// Reads one output activation from a report produced by [`Self::run`].
    pub fn output_at(&self, report: &RunReport, n: usize, c: usize, oy: usize, ox: usize) -> f32 {
        let (ho, wo) = self.out_dims;
        assert!(n < self.batch && c < self.c_out && oy < ho && ox < wo);
        report.output.get((n * ho + oy) * wo + ox, c)
    }
}

#[cfg(test)]
mod conv_tests {
    use super::*;
    use aiga_gpu::engine::FaultKind;
    use aiga_nn::{ConvParams, Tensor};

    fn setup() -> (Tensor, Tensor, ConvParams) {
        let input = Tensor::random(1, 3, 16, 16, 31);
        let filters = Tensor::random(8, 3, 3, 3, 32);
        let params = ConvParams {
            c_out: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        (input, filters, params)
    }

    #[test]
    fn protected_conv_matches_direct_reference() {
        let (input, filters, params) = setup();
        let conv = ProtectedConv::new(&input, &filters, params, Scheme::ThreadLevelOneSided);
        let report = conv.run();
        assert!(report.verdict.is_clean());
        let direct = aiga_nn::conv::conv_reference_f64(&input, &filters, params);
        let (ho, wo) = conv.out_dims();
        for c in 0..8 {
            for oy in 0..ho {
                for ox in 0..wo {
                    let got = conv.output_at(&report, 0, c, oy, ox) as f64;
                    let want = direct[(c * ho + oy) * wo + ox];
                    assert!((got - want).abs() < 2e-2, "({c},{oy},{ox})");
                }
            }
        }
    }

    #[test]
    fn faults_in_feature_map_coordinates_are_detected() {
        let (input, filters, params) = setup();
        for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
            let conv = ProtectedConv::new(&input, &filters, params, scheme).with_fault_at(
                0,
                5,
                9,
                12,
                3,
                FaultKind::AddValue(80.0),
            );
            assert!(conv.run().verdict.is_detected(), "{scheme}");
        }
    }
}
