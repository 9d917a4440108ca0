//! One seeded differential harness for the equivalences the design
//! relies on: every scheme computes the same product and flags the same
//! faults however the host executes it.
//!
//! A seed draws one of two kinds of case from [`Rng64`]. A *GEMM case*
//! is one protected layer: `m` of 0, 1, 5, `≡ 1 mod 4` or past a 64-row
//! block; `n` up to 1000 with a partial last panel; `k` from 0 to 1152;
//! any dtype; any scheme, `multi-checksum-<r>` for every `r` that
//! parses; an operand that is row-major (sometimes with cancelling row
//! pairs) or an NCHW tensor read as a pointwise conv or through a random
//! im2col view; and a fault that is absent, mid-walk, in the epilogue,
//! non-finite or past the output. A *network case* is a random
//! `NetworkBuilder` graph — convs, ceil-mode max and average pools,
//! fire concats (written in place by two expands, or copied where a
//! pool sits beside the 3×3 expand), residual adds, global average
//! pooling, slices, fc — or
//! `zoo::dlrm_net` at a random size, in a random dtype with a random
//! scheme per layer, serving `0..=batch` rows with such a fault aimed at
//! a random layer.
//!
//! Every case runs one fixed list of properties against one base run:
//! - the clean run flags nothing and is within the rounding bound of
//!   `gemm_reference_f64`, or within tolerance of
//!   `Network::reference_f64`;
//! - the same bytes, checks and counters on every `GemmPath`, at team
//!   widths 1, 2 and 3, through a dirty workspace, through a fresh pack
//!   (`engine::gemm`, checked by the scheme's serial reference) and
//!   rebound from `Unprotected` — whose bytes no scheme moves; fused and
//!   materialized (a network's conv → pool prefix against the
//!   per-element oracles in `common`); `Dest::Codes` against
//!   encoding the `Dest::None` run's output; global ABFT's partials against
//!   `CheckScratch::sum_serially`;
//! - a request's own rows are the zero-extended batch's first rows;
//! - solo, split and `Server`-coalesced serves are identical;
//! - a live fault flags (first at its layer) with a residual over its
//!   threshold, a dead one strikes nothing, and a repair is byte-equal
//!   to the clean run at the site its scheme's localizer names.
//!
//! The negative half sends what a caller can get wrong — malformed
//! requests and wild faults through `Session::serve` and the `Client`,
//! every truncation and single-byte corruption of a plan through
//! `ModelPlan::from_json` — and wants a typed error or a correct `Ok`.
//!
//! A failing case panics with its seed and the call that rebuilds it
//! (`gemm_case(0x2a)`); seeds that failed stay in [`REGRESSIONS`].

mod common;

use aiga::core::schemes::{GlobalAbft, GlobalVerdict, MultiChecksumAbft};
use aiga::core::tolerance::exceeds;
use aiga::dtype::F16;
use aiga::gpu::engine::{encode_output, gemm, gemm_reference_f64, simd, CheckScratch};
use aiga::gpu::engine::{EmitLayout, GemmOutput, Im2colView, MatrixView, MICRO_MR, MICRO_NR};
use aiga::nn::graph::{NodeOp, PoolKind, PoolParams};
use aiga::prelude::*;
use aiga::util::{team, Rng64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seeds of cases that failed while the harness was written, each run
/// by the test of its family (also once `SEEDS` no longer reaches it).
const REGRESSIONS: &[u64] = &[
    0x8d,  // multi-checksum-230 over 140 rows flagged clean: (i+1)^r overflowed f64
    0xa18, // the same through a network's multi-checksum-242 layer
    0x5d2, // multi-checksum-2 at k = 0 flagged clean: log₂ 0 rounds, a NaN threshold
];

/// Seeds the generated tests draw from; a seed's first draw picks its
/// family, so each lands in one test.
const SEEDS: u64 = 480;

const WIDTHS: [usize; 3] = [1, 2, 3];

/// Multiply-adds a GEMM case spans, roughly: a multi-checksum case,
/// whose check walks the operands once per round, proportionally fewer;
/// a fan-out case enough for three team members.
const MACS: usize = 120_000;
const WIDE_MACS: usize = 2_200_000;

/// A fault far over every threshold a drawn shape has.
const LARGE: f32 = 16384.0;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The generator: a seeded [`Rng64`] and the draws cases are made of.
struct Draw(Rng64);

impl Draw {
    fn new(seed: u64) -> Self {
        Draw(Rng64::seed_from_u64(seed))
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        self.0.range_usize(lo, hi)
    }

    fn coin(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.int(0, from.len())]
    }

    /// Any scheme; half the multi-checksum rounds from all that parse.
    fn scheme(&mut self) -> Scheme {
        let most = self.pick(&[5, 256]);
        let extra = [
            Scheme::Unprotected,
            Scheme::MultiChecksum(self.int(1, most) as u8),
        ];
        self.pick(&[&extra[..], &Scheme::all_protected()].concat())
    }

    /// A fault for an `m × n` output walked over `k`: none, one on a
    /// live cell (large or non-finite, mid-walk or in the epilogue) if
    /// there is one, or one on no cell — a dead row of the last strip or
    /// past it, a padding column.
    fn fault(&mut self, m: usize, n: usize, k: usize) -> Option<FaultPlan> {
        let sign = self.pick(&[1.0f32, -1.0]);
        let kind = match self.coin(0.25) {
            true => FaultKind::SetValue(self.pick(&[f32::NAN, f32::INFINITY]) * sign),
            false => FaultKind::AddValue(LARGE * sign),
        };
        let (row, col) = (self.int(0, m.max(1)), self.int(0, n));
        let mid = self.int(0, k.max(1).next_multiple_of(8) / 2) as u64;
        let (past, over) = (m + self.int(0, 8), n + self.int(0, 20));
        let at = |row, col, after_step| FaultPlan {
            row,
            col,
            after_step,
            kind,
        };
        match self.int(0, 5) {
            0 => None,
            1..=3 if m > 0 && k > 0 => Some(at(row, col, self.pick(&[mid, u64::MAX]))),
            _ => Some(self.pick(&[at(past, col, mid), at(row, over, 0), at(!0, !0, mid)])),
        }
    }
}

/// Runs case `seed` of `family`, re-raising a failure as one line a
/// reader can act on: the call that rebuilds the case, and what failed.
fn run_case(family: &str, seed: u64, case: impl FnOnce()) {
    let Err(e) = catch_unwind(AssertUnwindSafe(case)) else {
        return;
    };
    let msg = (e.downcast_ref::<String>().map(String::as_str))
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("");
    panic!("{family}({seed:#x}) failed: {msg}");
}

/// The seeds of one family: the generated ones, then the pinned ones.
fn seeds(networks: bool) -> impl Iterator<Item = u64> {
    let pinned = REGRESSIONS.iter().copied().filter(|&s| s >= SEEDS);
    let family = move |&seed: &u64| (Draw::new(seed).int(0, 5) == 0) == networks;
    (0..SEEDS).chain(pinned).filter(family)
}

/// Whether `scheme` repairs a flagged fault of `kind`: every protected
/// scheme but a one-round checksum (no second round to locate a row by)
/// and a multi-checksum struck non-finite (no ratio of those is a row).
fn localizes(scheme: Scheme, kind: FaultKind) -> bool {
    let finite = !matches!(kind, FaultKind::SetValue(v) if !v.is_finite());
    match scheme {
        Scheme::Unprotected | Scheme::MultiChecksum(1) => false,
        Scheme::MultiChecksum(_) => finite,
        _ => true,
    }
}

/// Where `scheme`'s localizer pins fault `f` in an `m`-row output — a
/// column, a row, or the cells of the tile compare that failed (for
/// one-sided ABFT a row's column group, or in a strip with one live row
/// a strip column) — and whether it repairs by replication's vote.
fn site(scheme: Scheme, f: &FaultPlan, m: usize) -> (FaultSite, bool) {
    let (row, col) = (f.row / MICRO_MR * MICRO_MR, f.col);
    let tile = |cols: usize| FaultSite::Tile {
        row,
        col: col / cols * cols,
    };
    match scheme {
        Scheme::GlobalAbft => (FaultSite::Column { col }, false),
        Scheme::MultiChecksum(_) => (FaultSite::Row { row: f.row }, false),
        Scheme::ThreadLevelOneSided if m - row == 1 => (tile(1), false),
        Scheme::ThreadLevelOneSided => (
            FaultSite::Tile {
                row: f.row,
                col: col / MICRO_NR * MICRO_NR,
            },
            false,
        ),
        Scheme::ThreadLevelTwoSided => (tile(MICRO_NR), false),
        Scheme::ReplicationTraditional => (tile(1), true),
        Scheme::ReplicationSingleAcc => (tile(MICRO_NR), true),
        Scheme::Unprotected => unreachable!("nothing localizes an unprotected layer"),
    }
}

/// What one run leaves that must not depend on how it ran: its checks
/// (verdict, detections or corrections, counters) and its bytes.
struct Outcome {
    checks: String,
    bits: Vec<u32>,
}

impl Outcome {
    fn gemm(verdict: Verdict, out: &GemmOutput) -> Self {
        // A flag carries its evidence: a residual over its threshold.
        let mut flags: Vec<_> = out
            .detections
            .iter()
            .map(|d| (d.residual, d.threshold))
            .collect();
        if let Verdict::Detected {
            residual,
            threshold,
        } = verdict
        {
            flags.push((residual, threshold));
        }
        for (residual, threshold) in flags {
            assert!(exceeds(residual, threshold), "{residual} at {threshold}");
        }
        let (d, c) = (&out.detections, out.counters);
        let checks = format!("{verdict:?} {d:?} {c:?}");
        let bits = bits(&out.c);
        Outcome { checks, bits }
    }

    fn pass(r: &InferenceReport) -> Self {
        let checks = format!("{:?} {:?}", r.detections, r.corrections);
        let bits = bits(&r.output);
        Outcome { checks, bits }
    }

    /// The pass's outcome with the codes of the first `count` slots it
    /// left in `ws` appended: what each stage handed on.
    fn with_slots(mut self, ws: &mut Workspace, count: usize) -> Self {
        ws.ensure_slots(count);
        for i in 0..count {
            self.bits.extend(ws.slot(i).data.iter().map(|c| c.0 as u32));
        }
        self
    }
}

/// A case's description, which every failed property names.
struct Case(String);

impl Case {
    fn holds(&self, ok: bool, property: &str) {
        assert!(ok, "{}: {property}", self.0);
    }

    fn same(&self, want: &Outcome, got: &Outcome, property: &str) {
        let (w, g, case) = (&want.checks, &got.checks, &self.0);
        assert!(w == g, "{case}: {property}: checks {g} against {w}");
        let (w, g) = (&want.bits, &got.bits);
        let first = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i));
        let lengths = (w.len(), g.len());
        assert!(
            first.is_none(),
            "{case}: {property}: {lengths:?} differ at {first:?}"
        );
    }
}

fn paths() -> Vec<&'static str> {
    simd::supported_paths().iter().map(|p| p.as_str()).collect()
}

// --- GEMM cases -------------------------------------------------------------

/// One protected layer drawn from a seed.
struct GemmCase {
    case: Case,
    scheme: Scheme,
    /// The activation codes: `m × k`, or an NCHW tensor (one row of
    /// them) read through `lowering`, `(images, geometry)`.
    src: Matrix,
    lowering: Option<(usize, Im2colView)>,
    b: Matrix,
    fault: Option<FaultPlan>,
    /// Whether the fault strikes a cell.
    live: bool,
    /// The fused ReLU of the case's `Dest::Codes` run.
    relu: bool,
}

impl GemmCase {
    /// The activation operand over `src` (or codes laid out like it).
    fn a<'s>(&self, src: &'s Matrix) -> MatrixView<'s> {
        match self.lowering {
            None => src.view(),
            Some((n, geom)) => MatrixView::im2col_lowered(n, geom, &src.data, src.dtype),
        }
    }
}

fn gemm_case(seed: u64) -> GemmCase {
    let mut d = Draw::new(seed);
    let (_family, dt, scheme) = (d.int(0, 5), d.pick(&Dtype::ALL), d.scheme());
    // A multi-checksum's ordinal is 6 + its rounds.
    let rounds = scheme.ordinal().saturating_sub(6) as usize;
    let (wide, budget) = (rounds <= 8 && d.coin(0.05), MACS * 8 / (8 + rounds));
    let budget = if wide { WIDE_MACS } else { budget };
    let form = d.int(0, 4);
    let (src, lowering) = if form < 2 {
        let m = match d.int(0, 6) {
            _ if wide => d.int(130, 200),
            0 => d.pick(&[0, 1, 5]),
            1 => 4 * d.int(0, 17) + 1,
            2 => d.int(65, 150),
            _ => d.int(1, 65),
        };
        let k = match d.int(0, 4) {
            _ if wide => d.int(8, 12),
            0 => d.pick(&[0, 72, 144, 288, 576, 1152]),
            _ => d.int(1, 65),
        };
        let mut a = Matrix::random_dtype(m, k, seed ^ 0xA, dt);
        // Cancelling row pairs: every strip sum is zero while the data
        // accumulators still round — adversarial for a magnitude taken
        // as |Σ a| instead of Σ |a|.
        let pairs = (1..m).step_by(2).flat_map(|r| (0..k).map(move |c| (r, c)));
        for (r, c) in pairs.filter(|_| form == 1) {
            let above = dt.decode(a.get(r - 1, c).to_bits());
            a.set(r, c, F16(dt.encode(-above)));
        }
        (a, None)
    } else {
        let (images, h, w) = (d.int(0, 3), d.int(1, 14), d.int(1, 14));
        let pointwise = (d.int(1, 65), 1, 1);
        let (channels, kernel, stride) = match form {
            2 => pointwise,
            _ => (d.int(1, 5), d.int(1, 12), d.int(1, 5)),
        };
        // At least the padding the window needs, at most half of it.
        let least = kernel.saturating_sub(h.min(w)).div_ceil(2);
        let padding = d.int(least, kernel / 2 + 1);
        let conv = ConvParams {
            c_out: 1,
            kernel,
            stride,
            padding,
        };
        let len = images * channels * h * w;
        let src = Matrix::random_dtype(1, len, seed ^ 0xA, dt);
        (src, Some((images, conv.im2col_view(channels, h, w))))
    };
    let (m, k) = match lowering {
        Some((images, g)) => (g.rows(images), g.cols()),
        None => (src.rows, src.cols),
    };
    let n = match d.int(0, 3) {
        0 if !wide => d.int(65, 200),
        2 if !wide => d.int(1, 65),
        _ => d.int(990, 1001),
    };
    let n = n.min(budget / (m * k).max(1)).max(1);
    let fault = d.fault(m, n, k);
    let live = fault.is_some_and(|f| f.row < m && f.col < n && k > 0);
    let operand = match lowering {
        None if form == 1 => "row-major, cancelling pairs".to_string(),
        None => "row-major".to_string(),
        Some((images, g)) => format!("{images} images through {g:?}"),
    };
    let what = format!("{dt} {scheme} {m}x{n}x{k} {operand}, fault {fault:?}");
    let b = Matrix::random_dtype(k, n, seed ^ 0xB, dt);
    let (case, relu) = (Case(what), d.coin(0.5));
    GemmCase {
        case,
        scheme,
        src,
        lowering,
        b,
        fault,
        live,
        relu,
    }
}

/// The verdict `scheme`'s serial reference reaches on `out`: global
/// ABFT's and the multi-checksum rounds' sums taken from `a` and the
/// output, the tile schemes' first detection.
fn serial_verdict(scheme: Scheme, a: MatrixView<'_>, b: &Matrix, out: &GemmOutput) -> Verdict {
    let flag = |v: GlobalVerdict| v.fault_detected.then_some((v.residual, v.threshold));
    let packed = PackedWeights::pack(b);
    let flagged = match scheme {
        Scheme::GlobalAbft => flag(GlobalAbft::prepare(&packed).verify_with(a, out)),
        Scheme::MultiChecksum(r) => {
            let multi = MultiChecksumAbft::prepare(&packed, r as usize);
            (0..r as usize).find_map(|i| flag(multi.verify_round(a, out, i)))
        }
        _ => out.detections.first().map(|d| (d.residual, d.threshold)),
    };
    let detected = |(residual, threshold)| Verdict::Detected {
        residual,
        threshold,
    };
    flagged.map_or(Verdict::Clean, detected)
}

fn check_gemm(seed: u64, dirty: &mut Workspace) {
    let g = gemm_case(seed);
    let (c, scheme, a, b) = (&g.case, g.scheme, g.a(&g.src), &g.b);
    let (m, n, k, dt) = (a.rows, b.cols, a.cols, b.dtype);
    let faults = g.fault.as_slice();
    let bound = scheme.bind(b);
    let run = |bound: &BoundGemm, a: MatrixView<'_>, faults: &[FaultPlan], ws: &mut Workspace| {
        let verdict = bound.run_into(a, faults, Dest::None, ws);
        Outcome::gemm(verdict, ws.output())
    };
    let fresh = Workspace::new;
    let mut ws = fresh();
    let base = run(&bound, a, faults, &mut ws);
    if scheme == Scheme::GlobalAbft {
        let (out, got) = ws.output_and_check();
        let want = CheckScratch::sum_serially(a, out);
        let partials = |s: &CheckScratch| (bits(s.stripe_sums()), bits(s.block_sums()));
        c.holds(partials(got) == partials(&want), "partials");
    }

    // The clean run flags nothing and is within the FMA chain's
    // rounding bound `γ_k·Σ|a||b|` of the f64 product.
    let clean = run(&bound, a, &[], &mut ws);
    c.holds(clean.checks.starts_with("Clean []"), "a clean run flagged");
    let abs = |m: &Matrix| {
        let data = m.data.iter().map(|c| F16(dt.encode(dt.decode(c.0).abs())));
        let data = data.collect();
        Matrix { data, ..m.clone() }
    };
    let (want, abs_src) = (gemm_reference_f64(a, b), abs(&g.src));
    let magnitude = gemm_reference_f64(g.a(&abs_src), &abs(b));
    let gamma = k as f64 * 2f64.powi(-24) / (1.0 - k as f64 * 2f64.powi(-24));
    for (i, &got) in ws.output().c.iter().enumerate() {
        let off = (got as f64 - want[i]).abs() > gamma * magnitude[i];
        c.holds(!off, &format!("cell {i}: {got} vs {}", want[i]));
    }

    // The fault flags wherever it strikes a protected layer, and leaves
    // no trace where it strikes nothing.
    if g.live {
        let flagged = !base.checks.starts_with("Clean");
        c.holds(flagged == (scheme != Scheme::Unprotected), "the verdict");
    } else {
        c.same(&clean, &base, "a fault on no cell");
    }

    for got in simd::on_each_path(|_| run(&bound, a, faults, &mut fresh())) {
        c.same(&base, &got, "a path");
    }
    for width in WIDTHS {
        let got = team::with_width(width, || run(&bound, a, faults, &mut fresh()));
        c.same(&base, &got, &format!("width {width}"));
    }
    c.same(&base, &run(&bound, a, faults, dirty), "a dirty workspace");
    let packed = gemm(a, b, scheme.tile_scheme(k.next_multiple_of(8)), faults);
    let verdict = serial_verdict(scheme, a, b, &packed);
    c.same(&base, &Outcome::gemm(verdict, &packed), "a fresh pack");
    let bare = Scheme::Unprotected.bind(b);
    let unprotected = run(&bare, a, faults, &mut fresh());
    c.holds(unprotected.bits == base.bits, "the scheme moved bytes");
    let rebound = run(&bare.rebind(scheme), a, faults, &mut fresh());
    c.same(&base, &rebound, "rebound");
    if g.lowering.is_some() {
        let lowered = Matrix::from_fn(m, k, |r, c| a.get(r, c)).with_dtype(dt);
        let got = run(&bound, lowered.view(), faults, &mut fresh());
        c.same(&base, &got, "the lowering materialized");
    }

    // The tasks' write-back against one encode of the `Dest::None` run's
    // f32 output (a codes run keeps none), with the same checks.
    let spatial = g.lowering.map_or(m.max(1), |(_, v)| v.out_h * v.out_w);
    let (relu, mut codes) = (g.relu, vec![F16::ZERO; m * n]);
    let dest = Dest::Codes {
        codes: &mut codes,
        dtype: dt,
        spatial,
        relu,
        stride: n * spatial,
    };
    let verdict = bound.run_into(a, faults, dest, &mut ws);
    let coded = Outcome::gemm(verdict, ws.output());
    c.holds(coded.checks == base.checks, "Dest::Codes: checks");
    let mut want = vec![F16::ZERO; m * n];
    let layout = EmitLayout {
        conv_spatial: Some(spatial),
        relu,
    };
    let finished = &mut fresh();
    bound.run_into(a, faults, Dest::None, finished);
    encode_output(finished.output(), layout, dt, &mut want);
    c.holds(codes == want, "Dest::Codes against emit_output");

    // A repair: the clean bytes, at the site the localizer names, at
    // every team width (each restages the strips it reads).
    let repair = |ws: &mut Workspace| {
        let verdict = bound.run_into(a, faults, Dest::None, ws);
        let repaired = bound.correct_into(a, ws, verdict);
        (repaired, Outcome::gemm(repaired, ws.output()))
    };
    let (repaired, fixed) = repair(&mut fresh());
    match g.fault {
        Some(f) if g.live && localizes(scheme, f.kind) => {
            let Verdict::Corrected { site: at, vote, .. } = repaired else {
                return c.holds(false, &format!("not repaired: {repaired:?}"));
            };
            c.holds(
                (at, vote) == site(scheme, &f, m),
                &format!("repaired {at:?}"),
            );
            c.holds(fixed.bits == clean.bits, "repaired bytes");
            // The verdict's `}`, then no detections.
            c.holds(fixed.checks.contains("} [] "), "detections left");
            for width in WIDTHS {
                let (_, got) = team::with_width(width, || repair(&mut fresh()));
                c.same(&fixed, &got, &format!("a repair at width {width}"));
            }
        }
        _ => c.same(&base, &fixed, "a repair of nothing repairable"),
    }
}

#[test]
fn generated_gemms_match_the_f64_reference_and_every_execution_variant() {
    let (started, mut dirty, mut cases) = (Instant::now(), Workspace::new(), 0);
    for seed in seeds(false) {
        run_case("gemm_case", seed, || check_gemm(seed, &mut dirty));
        cases += 1;
    }
    let (paths, took) = (paths(), started.elapsed());
    println!("{cases} GEMM cases, paths {paths:?}, widths {WIDTHS:?} ({took:.1?})");
}

/// `a[r][kk]`, zero past the operand (rows past `m`, K padding).
fn a_at(a: MatrixView<'_>, r: usize, kk: usize) -> f32 {
    match r < a.rows && kk < a.cols {
        true => a.get_f32(r, kk),
        false => 0.0,
    }
}

/// Column group `g`'s weight sums at step `kk`, taken without the
/// engine: `(Σ_j b[kk][j], Σ_j |b[kk][j]|)` over its live columns in
/// column order, in f32, from zero; zero past the operand.
fn group_sums(b: &Matrix, g: usize, kk: usize) -> (f32, f32) {
    let cols = g * MICRO_NR..((g + 1) * MICRO_NR).min(b.cols);
    let live = cols.filter(|_| kk < b.rows).map(|c| b.get_f32(kk, c));
    live.fold((0.0, 0.0), |(t, abs), v| (t + v, abs + v.abs()))
}

/// One-sided ABFT's check of row `row` against column group `g` and its
/// magnitude, as the oracle takes them: `fma(a, t, chk)` and `fma(|a|,
/// t_abs, mag)` over the padded K in four sub-chains by `kk mod 4`,
/// joined as `(c0 + c1) + (c2 + c3)`.
fn row_lanes(a: MatrixView<'_>, b: &Matrix, row: usize, g: usize) -> (f32, f32) {
    let (mut chk, mut mag) = ([0.0f32; 4], [0.0f32; 4]);
    for kk in 0..a.cols.next_multiple_of(8) {
        let (v, (t, abs)) = (a_at(a, row, kk), group_sums(b, g, kk));
        chk[kk % 4] = v.mul_add(t, chk[kk % 4]);
        mag[kk % 4] = v.abs().mul_add(abs, mag[kk % 4]);
    }
    let join = |c: [f32; 4]| (c[0] + c[1]) + (c[2] + c[3]);
    (join(chk), join(mag))
}

/// A strip with one live row's check of column `col` and its magnitude:
/// `fma(a, b, chk)` and `fma(|a|, |b|, mag)` in f32 in K order over the
/// row itself (a column past `n` has zero weights).
fn column_lanes(a: MatrixView<'_>, b: &Matrix, row: usize, col: usize) -> (f32, f32) {
    let w = |kk: usize| {
        if col < b.cols {
            b.get_f32(kk, col)
        } else {
            0.0
        }
    };
    let step = |(chk, mag): (f32, f32), kk: usize| {
        let v = a_at(a, row, kk);
        (v.mul_add(w(kk), chk), v.abs().mul_add(w(kk).abs(), mag))
    };
    (0..a.cols).fold((0.0, 0.0), step)
}

/// A detection as the one-sided tests compare them: `(row, rows, col,
/// cols, residual bits, threshold bits)`.
type Flag = (usize, usize, usize, usize, u64, u64);

/// The detections one-sided ABFT owes `out`: the eager compare
/// `!(|Σ c − chk| <= slope·mag + floor)` on every live row's column
/// groups ([`row_lanes`], the cells summed pairwise: lanes `j` and
/// `j + w` for `w` = 8, 4, 2, 1), and in a strip with one live row on
/// every column ([`column_lanes`]) — what the engine's checks must equal
/// whichever it took a magnitude for. The zero-weight padding columns
/// past `n` are checked too (the engine computes them), and a strip with
/// one live row stores its dead rows as `+0.0`.
fn one_sided_oracle(a: MatrixView<'_>, b: &Matrix, out: &GemmOutput) -> Vec<Flag> {
    let (m, n, k) = (a.rows, b.cols, a.cols);
    let tile = Scheme::ThreadLevelOneSided.tile_scheme(k.next_multiple_of(8));
    let cell = |row: usize, col: usize| match col < n {
        true => out.c[row * n + col],
        false => (0..k).fold(0.0f32, |acc, kk| a_at(a, row, kk).mul_add(0.0, acc)),
    };
    let mut want = Vec::new();
    let mut push =
        |rows: (usize, usize), cols: (usize, usize), sum: f32, (chk, mag): (f32, f32)| {
            let residual = (sum as f64 - chk as f64).abs();
            let threshold = tile.slope * mag as f64 + tile.floor;
            if exceeds(residual, threshold) {
                want.push((
                    rows.0,
                    rows.1,
                    cols.0,
                    cols.1,
                    residual.to_bits(),
                    threshold.to_bits(),
                ));
            }
        };
    for row0 in (0..m).step_by(MICRO_MR) {
        if m - row0 == 1 {
            for col in 0..n.next_multiple_of(MICRO_NR) {
                let sum = (cell(row0, col) + 0.0) + (0.0 + 0.0);
                push(
                    (row0, MICRO_MR),
                    (col, 1),
                    sum,
                    column_lanes(a, b, row0, col),
                );
            }
            continue;
        }
        for row in row0..m.min(row0 + MICRO_MR) {
            for g in 0..n.div_ceil(MICRO_NR) {
                let mut lane: [f32; MICRO_NR] =
                    std::array::from_fn(|j| cell(row, g * MICRO_NR + j));
                for width in [8, 4, 2, 1] {
                    for j in 0..width {
                        lane[j] += lane[j + width];
                    }
                }
                push(
                    (row, 1),
                    (g * MICRO_NR, MICRO_NR),
                    lane[0],
                    row_lanes(a, b, row, g),
                );
            }
        }
    }
    want
}

/// Runs `a × b` with `faults` under one-sided ABFT on every path and at
/// every team width — the same bytes and detections on each — and holds
/// the detections to [`one_sided_oracle`]'s. Where the faults are
/// `large` (every drawn fault: far over any threshold, or non-finite), a
/// fault that moves its cell's bytes must be flagged by a detection whose
/// cells cover it, and repairing the run must restore the clean bytes.
/// Returns the detections and the live rows of each struck strip whose
/// fault moved bytes.
fn one_sided_against_the_oracle(
    case: &Case,
    a: MatrixView<'_>,
    b: &Matrix,
    faults: &[FaultPlan],
    large: bool,
) -> (Vec<Flag>, Vec<usize>) {
    let bound = Scheme::ThreadLevelOneSided.bind(b);
    let flags = |out: &GemmOutput| {
        let flags = out.detections.iter();
        let flags = flags.map(|d| {
            (
                d.row,
                d.rows,
                d.col,
                d.cols,
                d.residual.to_bits(),
                d.threshold.to_bits(),
            )
        });
        let mut flags: Vec<Flag> = flags.collect();
        flags.sort();
        flags
    };
    let run = |faults: &[FaultPlan]| {
        let mut ws = Workspace::new();
        bound.run_into(a, faults, Dest::None, &mut ws);
        let out = ws.output().clone();
        (flags(&out), out)
    };
    let mut legs = simd::on_each_path(|_| run(faults));
    legs.extend(WIDTHS.map(|width| team::with_width(width, || run(faults))));
    let (got, out) = legs.swap_remove(0);
    for (other, other_out) in &legs {
        case.holds(
            (other, bits(&other_out.c)) == (&got, bits(&out.c)),
            "a path or team width",
        );
    }
    let want = one_sided_oracle(a, b, &out);
    case.holds(got == want, &format!("detections {got:?} against {want:?}"));
    let clean = bits(&run(&[]).1.c);
    let mut struck = Vec::new();
    for f in faults
        .iter()
        .filter(|f| large && f.row < a.rows && f.col < b.cols)
    {
        let at = f.row * b.cols + f.col;
        if clean[at] == bits(&out.c)[at] {
            continue;
        }
        struck.push((a.rows - f.row / MICRO_MR * MICRO_MR).min(MICRO_MR));
        let covers =
            |d: &&Flag| (d.0..d.0 + d.1).contains(&f.row) && (d.2..d.2 + d.3).contains(&f.col);
        case.holds(
            got.iter().any(|d| covers(&d)),
            &format!("{f:?} moved bytes unflagged"),
        );
    }
    if !struck.is_empty() {
        let mut ws = Workspace::new();
        let verdict = bound.run_into(a, faults, Dest::None, &mut ws);
        let repaired = bound.correct_into(a, &mut ws, verdict);
        case.holds(
            matches!(repaired, Verdict::Corrected { .. }),
            &format!("{repaired:?}"),
        );
        case.holds(bits(&ws.output().c) == clean, "repaired bytes");
    }
    (want, struck)
}

#[test]
fn generated_one_sided_gemms_flag_exactly_the_eager_rule() {
    // Every generated GEMM case's operands and fault under one-sided
    // ABFT, on every path and team width: the engine's detection list is
    // the eager rule's, coordinates, residual bits and threshold bits — a
    // check the engine skipped without its magnitude was one the eager
    // compare passes; a fault that moves bytes is flagged over its cell,
    // and repaired to the clean bytes, in strips of one to four live
    // rows. Each row-major case runs again *spiked*: its first weight row
    // opens with the format's largest value, negated, again and negated,
    // over a zero and a `-0.0` activation — in bf16 a group magnitude sum
    // that overflows while the plain sum cancels, so those rows'
    // magnitudes are `∞·0 = NaN` beside a finite check, and the eager
    // rule flags them against a NaN threshold.
    let (mut cases, mut flagged, mut nan_thresholds) = (0, 0, 0);
    let (mut near, mut struck) = ([0, 0], [0; MICRO_MR]);
    for seed in seeds(false) {
        run_case("gemm_case", seed, || {
            let g = gemm_case(seed);
            let (a, b) = (g.a(&g.src), &g.b);
            let (want, hit) = one_sided_against_the_oracle(&g.case, a, b, g.fault.as_slice(), true);
            flagged += !want.is_empty() as usize;
            hit.iter().for_each(|&live| struck[live - 1] += 1);
            let (m, n, k, dt) = (a.rows, b.cols, a.cols, b.dtype);
            // A fault sized at the eager threshold of the check over the
            // cell it strikes, a half to twice it: wherever the engine
            // skips a check it should not have, such a fault escapes.
            if m > 0 && k > 0 {
                let mut d = Draw::new(seed ^ 0x7e57);
                let (row, col) = (d.int(0, m), d.int(0, n));
                let one_row = m - row / MICRO_MR * MICRO_MR == 1;
                let (_, mag) = match one_row {
                    true => column_lanes(a, b, row, col),
                    false => row_lanes(a, b, row, col / MICRO_NR),
                };
                let tile = Scheme::ThreadLevelOneSided.tile_scheme(k.next_multiple_of(8));
                let scale = d.pick(&[0.5, 0.9, 1.1, 2.0]) * d.pick(&[1.0, -1.0]);
                let kind =
                    FaultKind::AddValue(((tile.slope * mag as f64 + tile.floor) * scale) as f32);
                let fault = FaultPlan {
                    row,
                    col,
                    after_step: u64::MAX,
                    kind,
                };
                let case = Case(format!("{}, near-threshold {fault:?}", g.case.0));
                let (got, _) = one_sided_against_the_oracle(&case, a, b, &[fault], false);
                let covers =
                    |d: &Flag| (d.0..d.0 + d.1).contains(&row) && (d.2..d.2 + d.3).contains(&col);
                near[got.iter().any(covers) as usize] += 1;
            }
            if g.lowering.is_some() || m < 2 || k == 0 {
                return;
            }
            let codes = (0..1u32 << dt.bits()).map(|c| dt.decode(c as u16));
            let max = codes.filter(|v| v.is_finite()).fold(0.0, f32::max);
            let (mut src, mut b) = (g.src.clone(), b.clone());
            for (col, v) in [max, -max, max, -max].into_iter().enumerate().take(n) {
                b.set(0, col, F16(dt.encode(v)));
            }
            src.set(0, 0, F16(dt.encode(0.0)));
            src.set(1, 0, F16(dt.encode(-0.0)));
            let case = Case(format!("{}, spiked", g.case.0));
            // Spiked magnitudes are `∞` wherever they are numbers: the
            // bound covers any finite fault there.
            let faults = g.fault.as_slice();
            let (want, _) = one_sided_against_the_oracle(&case, src.view(), &b, faults, false);
            nan_thresholds += want.iter().any(|d| f64::from_bits(d.5).is_nan()) as usize;
        });
        cases += 1;
    }
    assert!(nan_thresholds > 0, "no spiked case reached a NaN magnitude");
    assert!(
        near[0] > 0 && near[1] > 0,
        "near-threshold faults all on one side: {near:?}"
    );
    assert!(
        struck.iter().all(|&s| s > 0),
        "strips of 1..=4 live rows struck: {struck:?}"
    );
    println!(
        "{cases} one-sided GEMM cases against the eager rule, {flagged} flagged, \
         near-threshold faults {} passed and {} flagged, {nan_thresholds} spiked with NaN \
         thresholds, faults that moved bytes in strips of 1/2/3/4 live rows {struck:?}, \
         paths {:?}, widths {WIDTHS:?}",
        near[0],
        near[1],
        paths()
    );
}

/// Appends a random pool to `b`, if one fits its cursor.
fn pool(b: &mut NetworkBuilder, d: &mut Draw, name: &str) {
    let (kind, kernel) = (d.pick(&[PoolKind::Max, PoolKind::Avg]), d.int(2, 4));
    let (stride, padding, ceil) = (d.int(1, 3), d.int(0, kernel / 2 + 1), d.coin(0.5));
    let (_, h, w) = b.dims();
    if h.min(w) + 2 * padding >= kernel {
        let p = PoolParams {
            kind,
            kernel,
            stride,
            padding,
            ceil,
        };
        b.pool(name, p);
    }
}

/// Case `seed`'s network at `batch` images (its own batch when `None`;
/// the weights do not depend on it). `prefix` stops a graph after its
/// stem conv and the pool on it, if any, behind a 1×1 conv that leaves
/// both their slots standing: the shape `common`'s oracles read.
fn network(seed: u64, batch: Option<usize>, prefix: bool) -> Network {
    let mut d = Draw::new(seed);
    // Draws added since seeds were pinned come from here, so they leave
    // every earlier network as it was.
    let mut side = Draw::new(seed ^ 0xF1AE);
    let (_family, dt, drawn) = (d.int(0, 5), d.pick(&Dtype::ALL), d.int(1, 4));
    let batch = batch.unwrap_or(drawn);
    if d.coin(0.2) {
        let (tables, rows, dim) = (d.int(1, 5), d.int(5, 61), 4 << d.int(0, 3));
        return zoo::dlrm_net(batch as u64, tables, rows, dim, seed).with_dtype(dt);
    }
    // One in twelve is wide: its stem's write-back and its pool fan out.
    let wide = d.coin(1.0 / 12.0);
    let (c, h, w) = (d.int(1, 5), d.int(5, 14), d.int(5, 14));
    let kernel = d.pick(&[1, 3, 5, 7, 11]).min(h.min(w));
    let stem = (d.int(1, 13), kernel, d.int(1, 5), d.int(0, kernel / 2 + 1));
    let ((c, h, w), (c_out, kernel, stride, padding)) = match wide {
        true => ((8, 13, 13), (200, 3, 1, 1)),
        false => ((c, h, w), stem),
    };
    let name = format!("{}-{seed:#x}", if wide { "wide" } else { "net" });
    let mut b = NetworkBuilder::new(name, batch, c, h, w, seed);
    b.conv("stem", c_out, kernel, stride, padding, d.coin(0.5));
    if wide || d.coin(0.7) {
        pool(&mut b, &mut d, "stem.pool");
    }
    if prefix {
        b.conv("tail", 2, 1, 1, 0, false);
        return b.build().with_dtype(dt);
    }
    for i in 0..if wide { 0 } else { d.int(0, 3) } {
        let (relu, width) = (d.coin(0.5), d.int(1, 13));
        match d.int(0, 4) {
            0 => {
                let (k, s) = (d.pick(&[1, 3]), d.int(1, 3));
                b.conv(format!("conv{i}"), width, k, s, k / 2, relu);
            }
            1 => {
                let squeeze = b.conv(format!("fire{i}"), width / 2 + 1, 1, 1, 0, true);
                // Two expands are a concat written in place; a pool
                // beside the 3×3 one makes a concat that keeps its copy.
                let e1 = match side.coin(0.3) {
                    true => b.max_pool(format!("fire{i}.p1"), 3, 1, 1),
                    false => b.conv_on(squeeze, format!("fire{i}.e1"), width, 1, 1, 0, relu),
                };
                let e3 = b.conv_on(squeeze, format!("fire{i}.e3"), width, 3, 1, 1, relu);
                b.concat(format!("fire{i}.cat"), vec![e1, e3]);
            }
            2 => {
                let (skip, (c, _, _)) = (b.cursor(), b.dims());
                let body = b.conv(format!("res{i}"), c, 3, 1, 1, true);
                b.add(format!("res{i}.add"), body, skip, relu);
            }
            _ => {
                pool(&mut b, &mut d, &format!("pool{i}"));
            }
        }
    }
    let (out, (c, h, w)) = (d.int(1, 11), b.dims());
    match d.int(0, 4) {
        3 if !wide => b.conv("head", out, 1, 1, 0, false),
        2 if !wide => {
            let offset = d.int(0, c * h * w);
            let len = d.int(1, c * h * w - offset + 1);
            b.slice("slice", b.cursor(), offset, len);
            b.fc("fc", out, false)
        }
        1 if !wide => b.fc("fc", out, false),
        _ => {
            b.global_avg_pool("gap");
            b.fc("fc", out, false)
        }
    };
    b.build().with_dtype(dt)
}

/// `rows` rows for `net` on its dtype's grid; a DLRM's categorical
/// columns hold table indices.
fn request(net: &Network, rows: usize, seed: u64) -> Matrix {
    let mut input = Matrix::random_dtype(rows, net.input_features(), seed, net.dtype);
    let tables = net.nodes.iter().find_map(|node| match &node.op {
        NodeOp::EmbeddingBag { tables } => Some(tables),
        _ => None,
    });
    for (t, table) in tables.into_iter().flatten().enumerate() {
        for r in 0..rows {
            let index = ((r * 31 + t * 17) % table.rows) as f32;
            input.set(r, 13 + t, F16(net.dtype.encode(index)));
        }
    }
    input
}

/// The bound `|got − want| ≤ tol·(1 + |want|)` a network's output keeps
/// to its f64 reference: four ulps at 1.0 of its storage format (room
/// for an activation the f32 and f64 sums round to neighbouring codes),
/// and never below the 4e-2 deep fp16 nets are held to.
fn tolerance(dt: Dtype) -> f64 {
    match dt {
        Dtype::F16 | Dtype::Bf16 => 4e-2,
        Dtype::Fp8E4M3 => 0.5,
        Dtype::Int8 => 6.25e-2,
    }
}

/// One network case drawn from a seed: the network, a scheme per layer,
/// the request, and a fault aimed at one layer.
struct NetCase {
    case: Case,
    net: Network,
    schemes: Vec<Scheme>,
    req: Matrix,
    fault: Option<PipelineFault>,
    /// Whether the fault strikes a cell of its layer.
    live: bool,
}

fn net_case(seed: u64) -> NetCase {
    let (net, mut d) = (network(seed, None, false), Draw::new(seed ^ 0x5EED));
    let schemes: Vec<Scheme> = (0..net.gemm_count()).map(|_| d.scheme()).collect();
    let rows = d.int(0, net.batch + 1);
    let req = request(&net, rows, seed ^ 0xA);
    let layers = net.to_model_at(rows.max(1)).layers;
    let layer = d.int(0, layers.len());
    let s = layers[layer].shape;
    let (m, n, k) = (
        (rows > 0) as usize * s.m as usize,
        s.n as usize,
        s.k as usize,
    );
    let fault = d.fault(m, n, k);
    let live = fault.is_some_and(|f| f.row < m && f.col < n);
    let fault = fault.map(|fault| PipelineFault { layer, fault });
    let (name, dt, batch) = (&net.name, net.dtype, net.batch);
    let case = Case(format!(
        "{name} {dt} x{batch}, {rows} rows, {schemes:?}, {fault:?}"
    ));
    NetCase {
        case,
        net,
        schemes,
        req,
        fault,
        live,
    }
}

fn check_network(seed: u64, dirty: &mut Workspace) {
    let case = net_case(seed);
    check_pass(&case, dirty);

    // The stem conv and its pool against the per-element oracles (the
    // lowering materialized, one encode per element, one tap loop per
    // pooled output) over a request salted with −0.0 and NaN. (Of NaNs
    // of both signs meeting in one sum, which survives is unspecified.)
    let NetCase {
        case: c,
        net,
        schemes,
        req,
        fault,
        live,
    } = case;
    let (dt, rows) = (net.dtype, req.rows);
    let prefix = network(seed, None, true);
    let pooled = matches!(prefix.nodes[1].op, NodeOp::Pool(_));
    if rows > 0 && pooled {
        let mut salted = req.clone();
        for (i, v) in [-0.0f32, f32::NAN, -0.0, f32::NAN].into_iter().enumerate() {
            if let Some(code) = salted.data.get_mut(5 + 37 * i) {
                *code = F16(dt.encode(v));
            }
        }
        let struck = fault.filter(|f| live && f.layer == 0).map(|f| f.fault);
        common::assert_slots_hold_the_oracles(&prefix, &salted, schemes[0], struck, &c.0);
    }
}

/// Every property of a network case but the stem's oracles, which need
/// the seed's prefix network.
fn check_pass(case: &NetCase, dirty: &mut Workspace) {
    let NetCase {
        case,
        net,
        schemes,
        req,
        fault,
        live,
    } = case;
    let (fault, live) = (*fault, *live);
    let (c, p) = (case, ProtectedPipeline::compile(net, schemes));
    let (dt, batch) = (net.dtype, net.batch);
    let layer = fault.map_or(0, |f| f.layer);
    let slots = net.nodes.len();
    let pass = |p: &ProtectedPipeline, ws: &mut Workspace| {
        Outcome::pass(&p.infer_into(req, fault, ws)).with_slots(ws, slots)
    };
    let mut ws = Workspace::new();
    let report = p.infer_into(req, fault, &mut ws);
    let reply = Outcome::pass(&report);
    let base = Outcome::pass(&report).with_slots(&mut ws, slots);

    // The clean pass flags nothing, within tolerance of the reference.
    let clean = p.infer(req, None);
    c.holds(clean.detections.is_empty(), "a clean pass flagged");
    let want = net.reference_f64(req);
    c.holds(clean.output.len() == want.len(), "the reply's length");
    for (i, (&got, &want)) in clean.output.iter().zip(&want).enumerate() {
        let off = (got as f64 - want).abs() > tolerance(dt) * (1.0 + want.abs());
        c.holds(!off, &format!("elem {i}: {got} vs {want}"));
    }
    let clean = Outcome::pass(&clean);

    // The fault flags first at its layer where that layer is protected,
    // and leaves no trace where it strikes nothing.
    let flagged = |r: &InferenceReport| r.detections.iter().map(|d| d.layer).collect::<Vec<_>>();
    match (live, schemes[layer]) {
        (false, _) => c.same(&clean, &reply, "a fault on no cell"),
        (true, Scheme::Unprotected) => c.holds(!flagged(&report).contains(&layer), "flagged"),
        (true, _) => c.holds(flagged(&report).first() == Some(&layer), "not flagged"),
    }

    for got in simd::on_each_path(|_| pass(&p, &mut Workspace::new())) {
        c.same(&base, &got, "a path");
    }
    for width in WIDTHS {
        let got = team::with_width(width, || pass(&p, &mut Workspace::new()));
        c.same(&base, &got, &format!("width {width}"));
    }
    let got = Outcome::pass(&p.infer_into(req, fault, dirty));
    c.same(&reply, &got, "a dirty workspace");
    let bare = ProtectedPipeline::compile(net, &vec![Scheme::Unprotected; schemes.len()]);
    let unprotected = pass(&bare, &mut Workspace::new());
    c.holds(unprotected.bits == base.bits, "the schemes moved bytes");
    let rebound = pass(&bare.rebind(schemes), &mut Workspace::new());
    c.same(&base, &rebound, "rebound");

    // The request's own rows are the zero-extended batch's first rows,
    // flagged at the same layers.
    let mut whole = req.clone();
    whole.rows = batch;
    whole.data.resize(batch * req.cols, F16::ZERO);
    let struck = fault.filter(|_| live);
    let (own, whole) = (p.infer(req, struck), p.infer(&whole, struck));
    let prefix = &whole.output[..own.output.len()];
    c.holds(bits(&own.output) == bits(prefix), "own rows");
    c.holds(flagged(&own) == flagged(&whole), "own rows' detections");

    // In recovery mode: the clean bytes wherever the layer's scheme
    // can localize the fault.
    let repaired = p.clone().with_recovery(true).infer(req, fault);
    let fixed: Vec<usize> = repaired.corrections.iter().map(|c| c.layer).collect();
    match fault {
        Some(f) if live && localizes(schemes[layer], f.fault.kind) => {
            let repairs = fixed == [layer] && repaired.detections.is_empty();
            c.holds(repairs, "not repaired");
            c.holds(bits(&repaired.output) == clean.bits, "repaired bytes");
        }
        _ if live => c.holds(!fixed.contains(&layer), "repaired unrepairably"),
        _ => c.same(&clean, &Outcome::pass(&repaired), "a recovery of nothing"),
    }
}

#[test]
fn fires_hold_every_network_property_in_recovery_and_under_multi_checksum() {
    // Two Fire modules, one whose concat the expands write in place and
    // one whose concat keeps its copy (a pool beside the 3×3 expand),
    // under multi-checksum — whose check reads the f32 output, so its
    // codes are filled after it — one-sided and global ABFT, struck in
    // each expand: every property of a generated case, recovery mode
    // among them.
    use aiga::nn::graph::NetworkBuilder;
    let mut b = NetworkBuilder::new("fires", 2, 3, 9, 9, 0xF1);
    b.conv("stem", 8, 3, 1, 1, true);
    let s = b.conv("fire0", 4, 1, 1, 0, true);
    let e1 = b.conv_on(s, "fire0.e1", 6, 1, 1, 0, true);
    let e3 = b.conv_on(s, "fire0.e3", 6, 3, 1, 1, false);
    b.concat("fire0.cat", vec![e1, e3]);
    let s = b.conv("fire1", 4, 1, 1, 0, true);
    let p1 = b.max_pool("fire1.p1", 3, 1, 1);
    let e3 = b.conv_on(s, "fire1.e3", 6, 3, 1, 1, true);
    b.concat("fire1.cat", vec![p1, e3]);
    b.global_avg_pool("gap");
    b.fc("fc", 5, false);
    let net = b.build();
    let mut dirty = Workspace::new();
    for scheme in [
        Scheme::MultiChecksum(2),
        Scheme::ThreadLevelOneSided,
        Scheme::GlobalAbft,
    ] {
        // fire0.e1, fire0.e3 and fire1.e3.
        for layer in [2, 3, 5] {
            let fault = FaultPlan {
                row: 85,
                col: 4,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(LARGE),
            };
            let schemes = vec![scheme; net.gemm_count()];
            let case = Case(format!("fires, {scheme} at layer {layer}"));
            let fault = Some(PipelineFault { layer, fault });
            let (net, req) = (net.clone(), request(&net, 2, 0xF1));
            let live = true;
            let case = NetCase {
                case,
                net,
                schemes,
                req,
                fault,
                live,
            };
            check_pass(&case, &mut dirty);
        }
    }
}

#[test]
fn generated_networks_match_the_f64_reference_and_every_execution_variant() {
    let (started, mut dirty, mut cases) = (Instant::now(), Workspace::new(), 0);
    for seed in seeds(true) {
        run_case("net_case", seed, || check_network(seed, &mut dirty));
        cases += 1;
    }
    let (paths, took) = (paths(), started.elapsed());
    println!("{cases} network cases, paths {paths:?}, widths {WIDTHS:?} ({took:.1?})");
}

// --- Serving ----------------------------------------------------------------

/// A one-worker server over `session` with `members` queued behind a
/// many-pass `plug`, so they leave the queue as one coalesced pass;
/// their replies, in order.
fn coalesced(session: Session, plug: &Matrix, members: &[Matrix]) -> Vec<ServeReport> {
    let window = Duration::from_millis(50);
    let server = Server::builder(session)
        .workers(1)
        .coalesce_window(window)
        .build();
    let client = server.client();
    let plug = client.submit(plug).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().queue_depth > 0 {
        assert!(Instant::now() < deadline, "the plug never left the queue");
        std::thread::yield_now();
    }
    let pending: Vec<Pending> = members.iter().map(|m| client.submit(m).unwrap()).collect();
    plug.wait().unwrap();
    let replies = pending.into_iter().map(|p| p.wait().unwrap()).collect();
    let stats = server.shutdown();
    let (coalesced, restarts) = (stats.coalesced_requests, stats.worker_restarts);
    assert_eq!(
        (coalesced, restarts),
        (members.len() as u64, 0),
        "{stats:?}"
    );
    replies
}

fn check_serving(seed: u64) {
    let session = || {
        let family = move |b: u64| network(seed, Some(b as usize), false);
        let session = Session::builder_network(Planner::new(DeviceSpec::t4()), "case", family);
        session.buckets([2, 4]).build()
    };
    let (solo, net) = (session(), network(seed, Some(4), false));
    let serve = |m: &Matrix| bits(&solo.serve(m).unwrap().report.output);
    let out = net.output_features();

    // A solo serve is the pipeline's pass over the same rows.
    let pipeline = ProtectedPipeline::compile(&net, &vec![Scheme::GlobalAbft; net.gemm_count()]);
    let req = request(&net, 3, seed ^ 1);
    assert_eq!(serve(&req), bits(&pipeline.infer(&req, None).output));

    // Nine rows split 4 + 4 + 1, each chunk as served alone.
    let big = request(&net, 9, seed ^ 2);
    let split = solo.serve(&big).unwrap();
    let splits = solo.stats().split_requests;
    assert_eq!((split.bucket, split.rows, splits), (4, 9, 1));
    for (start, rows) in [(0, 4), (4, 4), (8, 1)] {
        let part = &split.report.output[start * out..(start + rows) * out];
        assert_eq!(bits(part), serve(&big.row_block(start, rows)), "at {start}");
    }

    // Three members of one coalesced pass, each its solo serve.
    let members = [1, 2, 1].map(|rows| request(&net, rows, seed ^ (3 + rows as u64)));
    let plug = request(&net, 32, seed ^ 9);
    for (member, reply) in members.iter().zip(coalesced(session(), &plug, &members)) {
        assert_eq!(
            bits(&reply.report.output),
            serve(member),
            "a coalesced member"
        );
    }
}

#[test]
fn generated_networks_serve_identically_solo_split_and_coalesced() {
    // Two DLRMs and four graphs, none wide: a debug build would take too
    // long over a wide stem's 32-row plug.
    let (mut served, mut dtypes) = ([0, 0], Vec::new());
    for seed in seeds(true) {
        let net = network(seed, Some(1), false);
        let family = match net.name.as_str() {
            "DLRM" => 0,
            name if name.starts_with("net") => 1,
            _ => continue,
        };
        if served[family] < [2, 4][family] {
            run_case("check_serving", seed, || check_serving(seed));
            served[family] += 1;
            dtypes.push(net.dtype.to_string());
        }
    }
    println!("{served:?} DLRM and graph cases in {dtypes:?} served solo, split, coalesced");
}

// --- The negative half ------------------------------------------------------

/// A request a caller can get wrong for a `features`-wide `dtype`
/// session, and what `Session::serve` must answer: `Ok(rows)` or the
/// typed error.
fn odd_request(
    d: &mut Draw,
    features: usize,
    dtype: Dtype,
) -> (Matrix, Result<usize, SessionError>) {
    let (mut rows, mut cols, mut dt) = (d.int(0, 40), features, dtype);
    let (mut len, huge) = (None, usize::MAX / 2 + d.int(0, 99));
    match d.int(0, 7) {
        0 => len = Some(rows * cols + d.int(1, 30)),
        1 if rows > 0 => len = Some(rows * cols - d.int(1, rows * cols + 1)),
        2 => (rows, len) = (huge, Some(d.int(0, 99))),
        3 => rows = 0,
        4 => (rows, cols) = (d.pick(&[rows, 0, usize::MAX]), 0),
        5 => cols = d.pick(&[features - 1, features + 1, 3 * features]),
        _ => dt = d.pick(&Dtype::ALL),
    }
    let len = len.unwrap_or(rows.saturating_mul(cols).min(1 << 20));
    let mut m = Matrix::random_dtype(1, len, d.0.next_u64(), dt);
    (m.rows, m.cols) = (rows, cols);
    let want = if rows.checked_mul(cols) != Some(len) {
        Err(SessionError::MalformedInput { rows, cols, len })
    } else if cols != features {
        let (observed, expected) = (cols, features);
        Err(SessionError::FeatureMismatch { observed, expected })
    } else if dt != dtype {
        let (observed, expected) = (dt, dtype);
        Err(SessionError::DtypeMismatch { observed, expected })
    } else {
        Ok(rows)
    };
    (m, want)
}

#[test]
fn malformed_requests_and_wild_faults_get_typed_errors_or_correct_replies() {
    let session = || {
        let mlp = Session::builder(Planner::new(DeviceSpec::t4()), "mlp", zoo::dlrm_mlp_bottom);
        mlp.buckets([8, 32]).build()
    };
    let (solo, server) = (session(), Server::builder(session()).workers(1).build());
    let (client, mut d) = (server.client(), Draw::new(0xBAD));
    let (mut rejected, mut admitted) = (0, 0);
    for i in 0..40 {
        let (req, want) = odd_request(&mut d, 13, Dtype::F16);
        let (rows, cols, len) = (req.rows, req.cols, req.data.len());
        let what = format!("request {i}: {rows}x{cols} {} holding {len}", req.dtype);
        let got = solo.serve(&req).map(|r| r.report.output);
        let shape = got.as_ref().map(Vec::len).map_err(Clone::clone);
        assert_eq!(shape, want.clone().map(|rows| rows * 64), "{what}");
        match (client.try_submit(&req), want) {
            (Err(e), Err(want @ SessionError::MalformedInput { .. })) => {
                assert_eq!(e, ServeError::Session(want), "{what}");
                rejected += 1;
            }
            (Ok(pending), _) => {
                let reply = pending.wait().map(|r| r.report.output);
                assert_eq!(reply, got.map_err(ServeError::Session), "{what}");
                admitted += 1;
            }
            (Err(e), _) => panic!("{what}: turned away with {e:?}"),
        }
    }

    // Faults aimed at no layer, at no cell, at every bit there is.
    let req = Matrix::random(5, 13, 7);
    let clean = solo.serve(&req).unwrap().report.output;
    let max = usize::MAX;
    for (layer, row, col, kind) in [
        (99, 0, 0, FaultKind::AddValue(LARGE)),
        (0, max, 0, FaultKind::AddValue(LARGE)),
        (1, 0, max, FaultKind::SetValue(f32::NAN)),
        (2, max, max, FaultKind::BitFlip(255)),
        (0, 0, 0, FaultKind::BitFlip(255)),
    ] {
        let after_step = d.int(0, 16) as u64;
        let fault = FaultPlan {
            row,
            col,
            after_step,
            kind,
        };
        let fault = Some(PipelineFault { layer, fault });
        let direct = solo.serve_with_fault(&req, fault).unwrap().report;
        let served = client.submit_with_fault(&req, fault).unwrap().wait();
        assert_eq!(bits(&direct.output), bits(&served.unwrap().report.output));
        let correct = direct.fault_detected() || direct.output == clean;
        assert!(correct, "{fault:?}: silently wrong");
        admitted += 1;
    }

    // The worker is alive and serving.
    let reply = client.submit(&req).unwrap().wait().unwrap();
    assert_eq!(reply.report.output, clean);
    let stats = server.shutdown();
    let (submitted, restarts) = (stats.submitted, stats.worker_restarts);
    assert_eq!(
        (stats.rejected, submitted, restarts),
        (rejected, admitted + 1, 0)
    );
}

/// Loads `text` as a plan and, if it loads, uses it as a serving host
/// does: its aggregates, its schemes, a round trip.
fn load(text: &str) -> bool {
    let Ok(plan) = ModelPlan::from_json(text) else {
        return false;
    };
    let _ = (
        plan.baseline_s(),
        plan.intensity_guided_s(),
        plan.thread_level_layer_count(),
    );
    let again = ModelPlan::from_json(&plan.to_json()).expect("a loaded plan reloads");
    assert_eq!(again.chosen_schemes(), plan.chosen_schemes());
    true
}

#[test]
fn truncated_and_corrupted_plans_load_as_typed_errors_or_usable_plans() {
    let text = Planner::new(DeviceSpec::t4()).plan(&zoo::dlrm_mlp_bottom(8));
    let text = text.to_json();
    assert!(load(&text));
    // What panicked before: a layer with an empty dimension, and one
    // whose chosen scheme is not among the candidates it was priced on.
    assert!(!load(&text.replacen("\"m\":8", "\"m\":0", 1)));
    let chosen = text.find("\"chosen\":\"").unwrap() + "\"chosen\":\"".len();
    let end = chosen + text[chosen..].find('"').unwrap();
    let unpriced = format!("{}replication-traditional{}", &text[..chosen], &text[end..]);
    assert!(!load(&unpriced));
    for len in 0..text.len() {
        run_case("truncation", len as u64, || _ = load(&text[..len]));
    }
    let mut bytes = text.into_bytes();
    for at in 0..bytes.len() {
        let was = bytes[at];
        for &byte in b"0-9.e\",:]}x" {
            bytes[at] = byte;
            let corrupted = String::from_utf8(bytes.clone()).unwrap();
            let family = format!("substitution of {:?} at", byte as char);
            run_case(&family, at as u64, || _ = load(&corrupted));
        }
        bytes[at] = was;
    }
}
