//! Everything the seed decides: request matrices, the request mix,
//! arrival gaps and fault sites. The program under test only ever sees
//! the generated inputs.

use aiga::prelude::*;
use aiga::util::Rng64;

/// Independent generator streams, so adding draws to one input never
/// shifts another.
pub fn stream(seed: u64, salt: u64) -> Rng64 {
    Rng64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Send times (ns from the start of the phase) of a Poisson process
/// of `rate_per_s` lasting `duration_s`: exponential gaps, cumulated.
pub fn poisson_schedule(rng: &mut Rng64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        // 1 − u is in (0, 1], so the log is finite.
        t += -(1.0 - rng.gen_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// The output extent `(rows, cols)` of one GEMM layer that a request
/// really occupies — fault sites are drawn inside it, so every
/// injected fault can reach the reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerExtent {
    pub rows: usize,
    pub cols: usize,
}

/// The real (unpadded) GEMM output extents of `net` for a request of
/// `request_rows` images in a pipeline compiled at `net`'s batch.
pub fn layer_extents(net: &Network, request_rows: usize) -> Vec<LayerExtent> {
    net.to_model()
        .layers
        .iter()
        .map(|l| LayerExtent {
            rows: (l.shape.m as usize / net.batch * request_rows).max(1),
            cols: l.shape.n as usize,
        })
        .collect()
}

/// A fault of `kind` in `layer` at a seeded site: row and column
/// uniform over the real output extent, striking after one of the
/// first four K-steps.
fn fault_at(
    rng: &mut Rng64,
    extents: &[LayerExtent],
    layer: usize,
    kind: FaultKind,
) -> PipelineFault {
    let extent = extents[layer];
    PipelineFault {
        layer,
        fault: FaultPlan {
            row: rng.range_usize(0, extent.rows),
            col: rng.range_usize(0, extent.cols),
            after_step: rng.range_u64(0, 4),
            kind,
        },
    }
}

fn additive(rng: &mut Rng64, exponent: f64) -> FaultKind {
    let magnitude = 10f64.powf(exponent) as f32;
    FaultKind::AddValue(if rng.gen_bool(0.5) {
        magnitude
    } else {
        -magnitude
    })
}

/// One single fault in a uniform layer: a flip of a uniform accumulator
/// bit, or an additive error of magnitude `±10^U[0,3]`.
pub fn fault(rng: &mut Rng64, extents: &[LayerExtent], bit_flip: bool) -> PipelineFault {
    let kind = if bit_flip {
        FaultKind::BitFlip(rng.range_u64(0, 32) as u8)
    } else {
        let exponent = rng.range_f64(0.0, 3.0);
        additive(rng, exponent)
    };
    let layer = rng.range_usize(0, extents.len());
    fault_at(rng, extents, layer, kind)
}

/// `count` single faults at seeded sites, alternating bit flips and
/// additive errors. Severity and layer are *stratified*, not drawn:
/// the flipped bits step evenly through 0..32, the additive exponents
/// evenly through [0, 3), and each kind visits the layers round-robin
/// (all from seeded offsets). Every seed then injects the same mix of
/// harmless and harmful faults, so `caught_frac` compares across seeds;
/// the seed still picks row, column, K-step and sign.
pub fn fault_list(rng: &mut Rng64, extents: &[LayerExtent], count: usize) -> Vec<PipelineFault> {
    let (flips, adds) = (count.div_ceil(2) as f64, (count / 2).max(1) as f64);
    let (bit_offset, exponent_offset) = (rng.gen_f64(), rng.gen_f64());
    let layer_offsets = [
        rng.range_usize(0, extents.len()),
        rng.range_usize(0, extents.len()),
    ];
    (0..count)
        .map(|i| {
            let k = i / 2;
            let kind = if i % 2 == 0 {
                FaultKind::BitFlip(((k as f64 + bit_offset) * 32.0 / flips) as u8 % 32)
            } else {
                additive(rng, (k as f64 + exponent_offset) * 3.0 / adds)
            };
            let layer = (k + layer_offsets[i % 2]) % extents.len();
            fault_at(rng, extents, layer, kind)
        })
        .collect()
}

/// Which pooled request each arrival carries: `oversize_every`-th
/// arrivals take the oversize request (index `pool`), the rest are
/// dealt from seeded shuffles of the pool, one whole shuffle after
/// another. Every seed then sends the same requests equally often —
/// the same rows of work per hundred arrivals — and only their order
/// differs, so throughput compares across seeds.
pub fn request_mix(
    rng: &mut Rng64,
    count: usize,
    pool: usize,
    oversize_every: usize,
) -> Vec<usize> {
    let mut deck: Vec<usize> = Vec::new();
    (0..count)
        .map(|i| {
            if i % oversize_every == oversize_every - 1 {
                return pool;
            }
            if deck.is_empty() {
                deck = (0..pool).collect();
                for top in (1..pool).rev() {
                    deck.swap(top, rng.range_usize(0, top + 1));
                }
            }
            deck.pop().expect("a fresh deck holds the whole pool")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_keeps_its_rate() {
        let a = poisson_schedule(&mut stream(3, 1), 400.0, 5.0);
        let b = poisson_schedule(&mut stream(3, 1), 400.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(&mut stream(4, 1), 400.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "send times ascend");
        assert!(*a.last().unwrap() < 5_000_000_000);
        // 2000 expected arrivals, σ ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn fault_list_repeats_per_seed_and_stays_inside_the_extents() {
        let extents = [
            LayerExtent {
                rows: 1,
                cols: 1024,
            },
            LayerExtent { rows: 3, cols: 10 },
        ];
        let a = fault_list(&mut stream(9, 2), &extents, 40);
        let b = fault_list(&mut stream(9, 2), &extents, 40);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.layer, x.fault), (y.layer, y.fault));
        }
        let c = fault_list(&mut stream(10, 2), &extents, 40);
        assert!(a.iter().zip(&c).any(|(x, y)| x.fault != y.fault));
        for (i, f) in a.iter().enumerate() {
            let e = extents[f.layer];
            assert!(f.fault.row < e.rows && f.fault.col < e.cols);
            assert!(f.fault.after_step < 4);
            match f.fault.kind {
                FaultKind::BitFlip(bit) => assert!(i % 2 == 0 && bit < 32),
                FaultKind::AddValue(v) => {
                    assert!(i % 2 == 1 && (1.0..=1000.0).contains(&v.abs()), "{v}")
                }
                FaultKind::SetValue(_) => panic!("never generated"),
            }
        }
        // Stratified: each kind alternates between the two layers, 20
        // flips cover the 32 bits evenly, 20 additive errors step
        // through every third of a decade.
        for pair in a.chunks(4) {
            assert_ne!(pair[0].layer, pair[2].layer);
            assert_ne!(pair[1].layer, pair[3].layer);
        }
        let mut bits: Vec<u8> = a
            .iter()
            .filter_map(|f| match f.fault.kind {
                FaultKind::BitFlip(bit) => Some(bit),
                _ => None,
            })
            .collect();
        bits.sort_unstable();
        assert!(
            bits.windows(2).all(|w| (1..=2).contains(&(w[1] - w[0]))),
            "{bits:?}"
        );
        for decade in 0..3 {
            let lo = 10f32.powi(decade);
            let inside = a
                .iter()
                .filter(|f| matches!(f.fault.kind, FaultKind::AddValue(v) if (lo..lo * 10.0).contains(&v.abs())))
                .count();
            assert!((6..=7).contains(&inside), "decade {decade}: {inside}");
        }
    }

    #[test]
    fn single_faults_repeat_per_seed() {
        let extents = [LayerExtent { rows: 4, cols: 64 }];
        for bit_flip in [true, false] {
            let a = fault(&mut stream(5, 7), &extents, bit_flip);
            let b = fault(&mut stream(5, 7), &extents, bit_flip);
            assert_eq!((a.layer, a.fault), (b.layer, b.fault));
            assert_eq!(matches!(a.fault.kind, FaultKind::BitFlip(_)), bit_flip);
        }
    }

    #[test]
    fn request_mix_places_one_oversize_per_hundred_and_deals_the_pool_evenly() {
        let mix = request_mix(&mut stream(1, 3), 300, 64, 100);
        assert_eq!(mix, request_mix(&mut stream(1, 3), 300, 64, 100));
        assert_ne!(mix, request_mix(&mut stream(2, 3), 300, 64, 100));
        for (i, &m) in mix.iter().enumerate() {
            assert_eq!(m == 64, i % 100 == 99, "arrival {i}");
        }
        // Every 64 consecutive small arrivals are one whole shuffle.
        let small: Vec<usize> = mix.into_iter().filter(|&m| m != 64).collect();
        for deal in small.chunks_exact(64) {
            let mut sorted = deal.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn layer_extents_scale_with_the_request_rows() {
        let net = zoo::dlrm_net(8, 8, 1000, 64, 11);
        let full = layer_extents(&net, 8);
        let three = layer_extents(&net, 3);
        assert_eq!(full.len(), 6);
        assert_eq!(full[0], LayerExtent { rows: 8, cols: 512 });
        assert_eq!(three[0], LayerExtent { rows: 3, cols: 512 });
        assert_eq!(three[5], LayerExtent { rows: 3, cols: 1 });
    }
}
