//! Randomized property tests for the software FP16 value type
//! (seeded deterministic case loops; no external crates).

use aiga_dtype::F16;
use aiga_util::Rng64;

/// Arbitrary finite F16 values through their bit patterns (covers
/// normals, subnormals, and signed zeros).
fn finite_f16(rng: &mut Rng64) -> F16 {
    loop {
        let h = F16::from_bits(rng.next_u16());
        if h.is_finite() {
            return h;
        }
    }
}

#[test]
fn roundtrip_through_f64_is_identity() {
    let mut rng = Rng64::seed_from_u64(0xF16_0001);
    for _ in 0..4000 {
        let h = finite_f16(&mut rng);
        assert_eq!(F16::from_f64(h.to_f64()).to_bits(), h.to_bits());
    }
}

#[test]
fn conversion_is_monotone() {
    let mut rng = Rng64::seed_from_u64(0xF16_0002);
    for _ in 0..4000 {
        let a = rng.range_f64(-1e6, 1e6);
        let b = rng.range_f64(-1e6, 1e6);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hlo, hhi) = (F16::from_f64(lo), F16::from_f64(hi));
        // Rounding is monotone: lo <= hi implies f16(lo) <= f16(hi).
        assert!(hlo.to_f64() <= hhi.to_f64(), "{lo} {hi}");
    }
}

#[test]
fn conversion_error_is_within_half_ulp() {
    let mut rng = Rng64::seed_from_u64(0xF16_0003);
    for _ in 0..4000 {
        let x = rng.range_f64(-60000.0, 60000.0);
        let back = F16::from_f64(x).to_f64();
        // ulp at |x|: 2^(floor(log2|x|) - 10), min quantum 2^-24.
        let ulp = if x == 0.0 {
            2.0_f64.powi(-24)
        } else {
            2.0_f64.powi((x.abs().log2().floor() as i32 - 10).max(-24))
        };
        assert!(
            (back - x).abs() <= ulp / 2.0 + f64::EPSILON,
            "x={x} back={back} ulp={ulp}"
        );
    }
}

#[test]
fn multiplication_is_commutative() {
    let mut rng = Rng64::seed_from_u64(0xF16_0004);
    for _ in 0..4000 {
        let a = finite_f16(&mut rng);
        let b = finite_f16(&mut rng);
        let (ab, ba) = (a * b, b * a);
        assert!(ab == ba || (ab.is_nan() && ba.is_nan()));
    }
}

#[test]
fn mul_is_correctly_rounded() {
    let mut rng = Rng64::seed_from_u64(0xF16_0005);
    for _ in 0..4000 {
        let a = finite_f16(&mut rng);
        let b = finite_f16(&mut rng);
        // The exact product of two f16 values is representable in f64,
        // so rounding it once is the correctly-rounded answer.
        assert_eq!(
            (a * b).to_bits(),
            F16::from_f64(a.to_f64() * b.to_f64()).to_bits()
        );
    }
}

#[test]
fn neg_is_involutive_and_sign_flipping() {
    let mut rng = Rng64::seed_from_u64(0xF16_0006);
    for _ in 0..2000 {
        let a = finite_f16(&mut rng);
        assert_eq!((-(-a)).to_bits(), a.to_bits());
        if !a.is_zero() {
            assert!((-a).to_f64() == -(a.to_f64()));
        }
    }
}
