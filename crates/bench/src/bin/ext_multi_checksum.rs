//! §2.4 extension: multi-checksum ABFT for higher fault rates.
//!
//! Demonstrates that a single checksum misses cancelling fault *pairs*
//! while independent weighted checksum rounds catch them, and measures
//! the detection rate of 1/2/3-round global ABFT under double faults.

use aiga_bench::Table;
use aiga_core::schemes::MultiChecksumAbft;
use aiga_gpu::engine::{gemm, FaultKind, FaultPlan, Matrix, PackedWeights, TileScheme};
use aiga_util::rng::Rng64;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let (m, n, k) = (48usize, 40usize, 64usize);
    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    let mut rng = Rng64::seed_from_u64(99);

    println!(
        "S2.4 extension: double-fault detection, {trials} trials of cancelling \
         fault pairs (+d at one site, -d at another)\n"
    );
    let mut t = Table::new(["checksum rounds", "detected", "missed", "detection rate"]);
    for rounds in 1..=3usize {
        let abft = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), rounds);
        let mut detected = 0usize;
        for _ in 0..trials {
            let delta: f32 = rng.range_f32(50.0, 500.0);
            let r1 = rng.range_usize(0, m);
            let mut r2 = rng.range_usize(0, m);
            while r2 == r1 {
                r2 = rng.range_usize(0, m);
            }
            let faults = [
                FaultPlan {
                    row: r1,
                    col: rng.range_usize(0, n),
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(delta),
                },
                FaultPlan {
                    row: r2,
                    col: rng.range_usize(0, n),
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(-delta),
                },
            ];
            let out = gemm(&a, &b, TileScheme::NONE, &faults);
            if abft.verify(&a, &out).fault_detected() {
                detected += 1;
            }
        }
        t.row([
            rounds.to_string(),
            detected.to_string(),
            (trials - detected).to_string(),
            format!("{:.1}%", detected as f64 / trials as f64 * 100.0),
        ]);
    }
    println!("{t}");
    println!(
        "reading: exactly-cancelling pairs are invisible to the plain (1-round)\n\
         checksum; a second Vandermonde-weighted round restores detection, as\n\
         S2.4 describes ('multiple checksum columns and rows based on\n\
         independent linear combinations')."
    );
}
