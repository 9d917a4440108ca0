//! Engine-level unit tests: reference agreement, padding/cropping,
//! counters, fault landing, the oracle conversion walk, and
//! workspace-path equivalence.

use super::*;
use aiga_dtype::F16;

const ALL_LANES: [Redundancy; 6] = [
    Redundancy::None,
    Redundancy::GlobalSums,
    Redundancy::ColumnChecksum,
    Redundancy::TileChecksum,
    Redundancy::ShadowExact,
    Redundancy::ShadowSum,
];

use simd::on_each_path;

/// `lanes` under a threshold no rounding noise reaches and every
/// injected test fault exceeds (`aiga-core` owns the real derivation).
fn loose(lanes: Redundancy) -> TileScheme {
    TileScheme {
        lanes,
        slope: 1e-4,
        floor: 1e-6,
    }
}

#[test]
fn matches_f64_reference_within_fp32_accumulation_error() {
    let (m, n, k) = (48, 40, 64);
    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    let out = gemm(&a, &b, TileScheme::NONE, &[]);
    let reference = gemm_reference_f64(&a, &b);
    for (i, (&got, &want)) in out.c.iter().zip(&reference).enumerate() {
        let err = (got as f64 - want).abs();
        // K=64 FP32 accumulations of exact products: error well under
        // K * eps32 * |terms|.
        assert!(err < 1e-3, "element {i}: {got} vs {want}");
    }
}

#[test]
fn identity_multiplication_is_exact() {
    let n = 32;
    let ident = Matrix::from_fn(n, n, |r, c| if r == c { F16::ONE } else { F16::ZERO });
    let b = Matrix::random(n, n, 3);
    let out = gemm(&ident, &b, TileScheme::NONE, &[]);
    for r in 0..n {
        for c in 0..n {
            assert_eq!(out.get(r, c), b.get(r, c).to_f32());
        }
    }
}

#[test]
fn unaligned_shapes_are_padded_and_cropped() {
    let (m, n, k) = (17, 9, 11);
    let a = Matrix::random(m, k, 4);
    let b = Matrix::random(k, n, 5);
    let out = gemm(&a, &b, TileScheme::NONE, &[]);
    assert_eq!((out.m, out.n), (m, n));
    let reference = gemm_reference_f64(&a, &b);
    for (&got, &want) in out.c.iter().zip(&reference) {
        assert!((got as f64 - want).abs() < 1e-3);
    }
}

#[test]
fn every_output_element_is_written_exactly_once() {
    // A product of all-ones matrices has every element equal to K —
    // if fragment ownership double-wrote or missed elements the
    // block-tile assembly would show it.
    let (m, n, k) = (64, 64, 32);
    let ones = Matrix::from_fn(m, k, |_, _| F16::ONE);
    let ones_b = Matrix::from_fn(k, n, |_, _| F16::ONE);
    let out = gemm(&ones, &ones_b, TileScheme::NONE, &[]);
    assert!(out.c.iter().all(|&v| v == k as f32));
}

#[test]
fn counters_match_tiling_formulas() {
    // Host work, not simulated GPU work: the live register tiles, the
    // data FMAs they execute per K element, and the scheme's redundant
    // FMAs on top.
    let a = Matrix::random(64, 64, 6);
    let b = Matrix::random(64, 64, 7);
    let tiles = (64 / MICRO_MR * (64 / MICRO_NR)) as u64;
    for (lanes, share) in [
        (Redundancy::None, 0.0),
        (Redundancy::ColumnChecksum, 1.0 / 16.0),
        (Redundancy::TileChecksum, 1.0 / 64.0),
        (Redundancy::ShadowExact, 1.0),
    ] {
        let out = gemm(&a, &b, loose(lanes), &[]);
        assert_eq!(out.counters.tiles, tiles);
        assert_eq!(out.counters.data_fmas, 64 * 64 * 64);
        assert_eq!(
            out.counters.checksum_fmas as f64 / out.counters.data_fmas as f64,
            share,
            "{lanes:?}"
        );
    }
    // Counters say what ran. A 40-column layer walks three of its
    // block's four column groups. m = 4 is one full strip: MR·NR data
    // FMAs per tile and K step, and one-sided's MR row-check FMAs. m = 1
    // is one strip with one live row, which runs the one-row tile — NR
    // data FMAs, so one-sided's column chains are as much work again
    // (and two-sided's corner 1/16). m = 5 is one of each.
    let (k, groups) = (64u64, 3u64);
    let b = Matrix::random(64, 40, 9);
    let (mr, nr) = (MICRO_MR as u64, MICRO_NR as u64);
    for (m, full, one_row) in [(1usize, 0u64, 1u64), (4, 1, 0), (5, 1, 1)] {
        let a = Matrix::random(m, 64, 8);
        let data = (full * mr + one_row) * nr * groups * k;
        for (lanes, checksum) in [
            (Redundancy::None, 0),
            (
                Redundancy::ColumnChecksum,
                (full * mr + one_row * nr) * groups * k,
            ),
            (Redundancy::TileChecksum, (full + one_row) * groups * k),
            (Redundancy::ShadowExact, data),
            (Redundancy::ShadowSum, data),
        ] {
            let out = gemm(&a, &b, loose(lanes), &[]);
            let want = EngineCounters {
                tiles: (full + one_row) * groups,
                data_fmas: data,
                checksum_fmas: checksum,
            };
            assert_eq!(out.counters, want, "m={m} {lanes:?}");
        }
    }
}

#[test]
fn empty_dimensions_are_well_defined_on_both_paths() {
    // No rows, no columns, no inner dimension: an output of the right
    // shape (zeros where it has cells), no detections, nothing counted —
    // under every lane kind, on every path, with a fault aimed at a
    // cell that (for k = 0) exists. Both used to panic on a zero chunk
    // size: n = 0 in the weight pack, k = 0 in the strip staging.
    let fault = FaultPlan {
        row: 0,
        col: 0,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(9.0),
    };
    on_each_path(|path| {
        for (m, k, n) in [(0usize, 8usize, 5usize), (3, 8, 0), (3, 0, 5), (0, 0, 0)] {
            for lanes in ALL_LANES {
                let a = Matrix::random(m, k, 1);
                let b = Matrix::random(k, n, 2);
                let out = gemm(&a, &b, loose(lanes), &[fault]);
                let ctx = format!("{m}x{k}x{n} {lanes:?} {path:?}");
                assert_eq!((out.m, out.n), (m, n), "{ctx}");
                assert_eq!(out.c, vec![0.0f32; m * n], "{ctx}");
                assert!(out.detections.is_empty(), "{ctx}");
                assert_eq!(out.counters, EngineCounters::default(), "{ctx}");
            }
        }
    });
}

#[test]
fn injected_fault_corrupts_exactly_one_element() {
    let (m, n, k) = (32, 32, 32);
    let a = Matrix::random(m, k, 8);
    let b = Matrix::random(k, n, 9);
    let clean = gemm(&a, &b, TileScheme::NONE, &[]);
    let fault = FaultPlan {
        row: 5,
        col: 7,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(100.0),
    };
    let dirty = gemm(&a, &b, TileScheme::NONE, &[fault]);
    let mut diffs = 0;
    for i in 0..m * n {
        if clean.c[i] != dirty.c[i] {
            diffs += 1;
            assert_eq!(i, 5 * n + 7);
            assert!((dirty.c[i] - clean.c[i] - 100.0).abs() < 1e-3);
        }
    }
    assert_eq!(diffs, 1);
    // The unprotected kernel never detects anything.
    assert!(!dirty.fault_detected());
}

#[test]
fn mid_kernel_fault_still_lands() {
    let (m, n, k) = (16, 16, 64);
    let a = Matrix::random(m, k, 10);
    let b = Matrix::random(k, n, 11);
    let clean = gemm(&a, &b, TileScheme::NONE, &[]);
    let fault = FaultPlan {
        row: 0,
        col: 0,
        after_step: 3,
        kind: FaultKind::SetValue(1e4),
    };
    let dirty = gemm(&a, &b, TileScheme::NONE, &[fault]);
    // The corrupted accumulator keeps accumulating afterwards, so the
    // output differs from clean but is not exactly 1e4.
    assert_ne!(clean.get(0, 0), dirty.get(0, 0));
    assert!(dirty.get(0, 0) > 5e3);
}

#[test]
fn output_is_byte_identical_to_an_oracle_conversion_walk() {
    // Replays every accumulator's exact operation sequence — the
    // canonical order: one correctly-rounded FMA per K element, in K
    // order — but converts the FP16 operands through the pre-table
    // arithmetic formulation instead of the decode table (A strips) /
    // the widening B load. Byte equality proves neither conversion
    // changed a result bit.
    fn oracle_f32(h: F16) -> f32 {
        let bits = h.to_bits();
        let sign = if bits & 0x8000 != 0 { -1.0f64 } else { 1.0 };
        let exp = ((bits & 0x7c00) >> 10) as i32;
        let frac = (bits & 0x03ff) as f64;
        let wide = match exp {
            0 => sign * frac * 2.0_f64.powi(-24),
            31 => {
                if frac == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1024.0 + frac) * 2.0_f64.powi(exp - 25),
        };
        wide as f32
    }
    for &(m, n, k, seed) in &[(17usize, 9usize, 11usize, 90u64), (48, 40, 64, 91)] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let out = gemm(&a, &b, TileScheme::NONE, &[]);
        let kp = k.next_multiple_of(8); // padded K (zeros beyond k)
        let at = |r: usize, c: usize| {
            if c < k {
                oracle_f32(a.get(r, c))
            } else {
                0.0
            }
        };
        let bt = |r: usize, c: usize| {
            if r < k {
                oracle_f32(b.get(r, c))
            } else {
                0.0
            }
        };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k0 in 0..kp {
                    acc = at(i, k0).mul_add(bt(k0, j), acc);
                }
                assert_eq!(
                    out.get(i, j).to_bits(),
                    acc.to_bits(),
                    "element ({i},{j}) of {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn workspace_path_is_byte_identical_to_the_allocating_path() {
    // One workspace reused across shapes and schemes — the pooled
    // serving regime — must reproduce a fresh workspace's bytes
    // exactly, clean and faulted, under every lane kind.
    let mut ws = Workspace::new();
    for &(m, n, k, seed) in &[
        (17usize, 9usize, 11usize, 40u64),
        (64, 64, 64, 41),
        (33, 65, 40, 42),
    ] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let fault = FaultPlan {
            row: m / 2,
            col: n / 2,
            after_step: 2,
            kind: FaultKind::AddValue(32.0),
        };
        for faults in [&[][..], &[fault][..]] {
            for lanes in ALL_LANES {
                let alloc = gemm(&a, &b, loose(lanes), faults);
                let packed = PackedWeights::pack(&b);
                let into = gemm_into(&a, &packed, loose(lanes), faults, Dest::None, &mut ws);
                assert_eq!(alloc.c, into.c);
                assert_eq!(alloc.detections, into.detections);
                assert_eq!(alloc.counters, into.counters);
            }
        }
    }
}

/// Runs `a · b` under `scheme` with `faults` at team widths 1, 2 and 3
/// (through the width seam, so a single-core runner fans out too) and
/// holds the three to the same output bytes, detection list — order,
/// residual and threshold bits — and counters. Returns the width-1 run.
fn at_every_team_width(
    a: &Matrix,
    b: &Matrix,
    scheme: TileScheme,
    faults: &[FaultPlan],
) -> GemmOutput {
    let packed = PackedWeights::pack(b);
    // One workspace across the widths: a member's scratch left by a
    // narrower run must not matter to a wider one.
    let mut ws = Workspace::new();
    let mut lone = None;
    for width in [1usize, 2, 3] {
        let out = aiga_util::team::with_width(width, || {
            gemm_into(a, &packed, scheme, faults, Dest::None, &mut ws).clone()
        });
        let lone = lone.get_or_insert_with(|| out.clone());
        assert_eq!(report(&out), report(lone), "team width {width}");
    }
    lone.expect("three widths ran")
}

/// A threshold below any residual: every tile column flags, so the
/// detection list covers the merge order of every task.
const FLAG_ALL: TileScheme = TileScheme {
    lanes: Redundancy::ColumnChecksum,
    slope: 0.0,
    floor: -1.0,
};

#[test]
fn block_parallel_stripes_are_byte_identical_to_sequential() {
    // Past BLOCK_PAR_MIN_FLOPS, at team widths 1, 2 and 3. Five block
    // rows by four block columns, the last of each ragged: 250 columns
    // end ten into a register tile; 270 rows end two live rows into a
    // strip, and 261 rows leave the last stripe a full strip plus a
    // strip with one live row (the one-row tile and its lazily taken
    // magnitudes inside a member) — whole-stripe tasks at width 1, one
    // block a task at widths 2 and 3.
    // 781 × 100 × 16 is thirteen stripes by two column blocks: whole
    // stripes at every width, and 2.8 MFLOP, which seats two members
    // however wide the team. The faulted runs cover the cold walk.
    // On every path: the zmm walk pairs strips inside a member's stripe.
    on_each_path(|_| {
        for (m, n, k) in [
            (270usize, 250usize, 256usize),
            (261, 250, 256),
            (781, 100, 16),
        ] {
            let a = Matrix::random(m, k, 70);
            let b = Matrix::random(k, n, 71);
            let faults = [FaultPlan {
                row: m - 1,
                col: n - 1,
                after_step: 5,
                kind: FaultKind::AddValue(96.0),
            }];
            let clean = at_every_team_width(&a, &b, FLAG_ALL, &[]);
            // Every live row's column groups, and a one-row strip's
            // columns — the padding columns of its last register tile too.
            let one_row = usize::from(m % MICRO_MR == 1);
            let groups = (m - one_row) * n.div_ceil(MICRO_NR);
            assert_eq!(
                clean.detections.len(),
                groups + one_row * n.next_multiple_of(MICRO_NR)
            );
            let faulted = at_every_team_width(&a, &b, loose(Redundancy::ColumnChecksum), &faults);
            assert_eq!(faulted.detections.len(), 1);
        }
    });
}

#[test]
fn block_parallel_stripes_restage_between_column_block_tasks() {
    // SqueezeNet's conv10: three stripes by sixteen column blocks, so a
    // task is one block and a member restages whenever the team hands
    // it a block of another stripe. Two epilogue faults in different
    // tasks and one mid-walk fault in the last block of the last (ragged)
    // stripe flag in task order at every width, under every lane kind.
    // (Unoptimised builds keep the shape and shorten K.)
    let (m, n, k) = (169, 1000, if cfg!(debug_assertions) { 40 } else { 512 });
    let a = Matrix::random(m, k, 72);
    let b = Matrix::random(k, n, 73);
    let at = |row, col, after_step, kind| FaultPlan {
        row,
        col,
        after_step,
        kind,
    };
    let faults = [
        at(100, 700, u64::MAX, FaultKind::AddValue(-160.0)),
        at(3, 10, u64::MAX, FaultKind::AddValue(96.0)),
        at(168, 999, 5, FaultKind::AddValue(96.0)),
    ];
    on_each_path(|_| {
        for lanes in ALL_LANES {
            let out = at_every_team_width(&a, &b, loose(lanes), &faults);
            let rows: Vec<usize> = out.detections.iter().map(|d| d.row).collect();
            let want = match lanes {
                Redundancy::None | Redundancy::GlobalSums => vec![],
                // Rows of wide strips are checked one by one.
                Redundancy::ColumnChecksum => vec![3, 100, 168],
                _ => vec![0, 100, 168],
            };
            assert_eq!(rows, want, "{lanes:?}");
        }
        at_every_team_width(&a, &b, FLAG_ALL, &[]);
    });
}

#[test]
fn block_parallel_stripes_split_a_batch_1_layer_by_column_block() {
    // One row, one strip, one stripe: exactly BLOCK_PAR_MIN_FLOPS and
    // four BLOCK_PAR_MIN_BYTES of panels (every member at widths 2 and
    // 3), and sixteen one-block tasks whose members each stage the same
    // strip.
    let (a, b) = (Matrix::random(1, 1024, 74), Matrix::random(1024, 1024, 75));
    let fault = FaultPlan {
        row: 0,
        col: 1023,
        after_step: 9,
        kind: FaultKind::AddValue(96.0),
    };
    on_each_path(|_| {
        for lanes in [Redundancy::ColumnChecksum, Redundancy::TileChecksum] {
            let out = at_every_team_width(&a, &b, loose(lanes), &[fault]);
            assert_eq!(out.detections.len(), 1, "{lanes:?}");
        }
        let all = at_every_team_width(&a, &b, FLAG_ALL, &[]);
        assert_eq!(all.detections.len(), 1024);
    });
}

std::thread_local! {
    /// Armed by [`with_slowed_caller`] on the thread that opens the run:
    /// the size of its range, and the tasks it ran, in order.
    static SLOWED: std::cell::RefCell<Option<(usize, Vec<usize>)>> =
        const { std::cell::RefCell::new(None) };
}

/// `(run, task)` for each task a team worker ran while a caller was
/// slowed (`Some` then); `run` names the region (the address of its
/// `walk::Run`).
static WORKERS_RAN: std::sync::Mutex<Option<Vec<(usize, usize)>>> = std::sync::Mutex::new(None);

/// Called by every task of [`gemm_into`] after it ran. A team worker's
/// task is recorded in [`WORKERS_RAN`] while a caller is slowed; on the
/// thread [`with_slowed_caller`] armed, the task is recorded and, after
/// its first, the caller waits until a worker has run a task of its
/// range — one it stole.
pub(super) fn pace(task: usize, run: usize) {
    let caller = SLOWED.with_borrow_mut(|slowed| {
        let (range, ran) = slowed.as_mut()?;
        ran.push(task);
        Some((*range, ran.len()))
    });
    let Some((range, 1)) = caller else {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("aiga-team-"));
        if worker && caller.is_none() {
            if let Some(ran) = WORKERS_RAN.lock().unwrap().as_mut() {
                ran.push((run, task));
            }
        }
        return;
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stolen = || {
        let ran = WORKERS_RAN.lock().unwrap();
        let ran = ran.as_ref().expect("armed by the slowed caller");
        ran.iter().any(|&(r, t)| r == run && t < range)
    };
    while !stolen() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Runs `f` with this thread — member 0 of any region it opens, whose
/// range is `range` tasks long — held after its first task until
/// another member has stolen from the back of its range. Returns `f`'s
/// result and the tasks this thread ran.
fn with_slowed_caller<R>(range: usize, f: impl FnOnce() -> R) -> (R, Vec<usize>) {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    *WORKERS_RAN.lock().unwrap() = Some(Vec::new());
    SLOWED.set(Some((range, Vec::new())));
    let out = f();
    let (_, ran) = SLOWED.take().expect("armed above");
    *WORKERS_RAN.lock().unwrap() = None;
    (out, ran)
}

#[test]
fn detections_stay_in_block_major_order_when_members_steal() {
    // 1024 × 128 × 32 is sixteen whole-stripe tasks at widths 2 and 3
    // (8.4 MFLOP seats every member). The caller is held after its
    // first task until another member, done with its own range, has
    // taken the tail of the caller's, back to front: the flagged tasks
    // of a member stop ascending. Faults sit in five stripes, in both
    // the caller's range and the others'.
    let (m, n, k) = (1024, 128, 32);
    let (a, b) = (Matrix::random(m, k, 76), Matrix::random(k, n, 77));
    let packed = PackedWeights::pack(&b);
    let faults: Vec<FaultPlan> = [(5, 3), (130, 70), (448, 127), (700, 0), (1023, 64)]
        .into_iter()
        .map(|(row, col)| FaultPlan {
            row,
            col,
            after_step: 7,
            kind: FaultKind::AddValue(96.0),
        })
        .collect();
    let mut ws = Workspace::new();
    on_each_path(|path| {
        for (scheme, faults) in [
            (FLAG_ALL, &[][..]),
            (loose(Redundancy::ColumnChecksum), &faults[..]),
        ] {
            let mut run = || gemm_into(&a, &packed, scheme, faults, Dest::None, &mut ws).clone();
            let lone = aiga_util::team::with_width(1, &mut run);
            let flagged = lone.detections.len();
            assert!(flagged == faults.len() || faults.is_empty(), "{flagged}");
            for width in [2usize, 3] {
                let range = 16 / width;
                let (out, ran) =
                    with_slowed_caller(range, || aiga_util::team::with_width(width, &mut run));
                let ctx = format!(
                    "{path:?} {:?} {} faults width {width}",
                    scheme.lanes,
                    faults.len()
                );
                assert_eq!(report(&out), report(&lone), "{ctx}");
                // The caller ran its range's head, in order, and lost
                // the rest of it to the others; then it may have stolen
                // from theirs.
                let own = ran.iter().take_while(|&&task| task < range).count();
                assert!(own < range, "{ctx}: the caller ran {ran:?}");
                assert_eq!(ran[..own], (0..own).collect::<Vec<_>>(), "{ctx}");
            }
        }
    });
}

#[test]
fn a_run_seats_one_member_per_floor_of_work_beyond_its_caller() {
    // However wide the team: one more member per floor of FLOPs or of
    // panel bytes, whichever counts more. Batch 1 is the bytes' case: 1
    // MiB of f16 panels (1 × 1024 × 512, half a FLOP floor) seats two
    // more, 2 MiB (1 × 1024 × 1024, one FLOP floor) four more. At
    // 128 × 256 × 128 (four FLOP floors, 64 KiB of panels, eight block
    // tasks) five, and a 256³ run all eight.
    for (m, n, k, seats) in [
        (1usize, 1024usize, 512usize, 3usize),
        (1, 1024, 1024, 5),
        (128, 256, 128, 5),
        (256, 256, 256, 8),
    ] {
        let packed = PackedWeights::pack(&Matrix::random(k, n, 77));
        let mut ws = Workspace::new();
        aiga_util::team::with_width(8, || {
            gemm_into(
                &Matrix::random(m, k, 76),
                &packed,
                TileScheme::NONE,
                &[],
                Dest::None,
                &mut ws,
            );
        });
        assert_eq!(ws.stripe_pool.len(), seats, "{m}x{n}x{k}");
    }
}

#[test]
fn a_batch_1_layer_seats_members_by_the_bytes_it_streams() {
    // One row is a few MFLOP at most but streams all of the panels, so
    // a batch-1 run seats one member beyond its caller per
    // BLOCK_PAR_MIN_BYTES of resident panels where that beats the FLOP
    // floor's count. fc1024's last layer (1 × 1000 × 1024: 2,064,384 B
    // of f16 panels, 1.6 % under the FLOP floor) and its k = 1000 twin
    // (2,048,000 B) seat four; an int8 1 × 1024 × 1024 layer three: its
    // 1 MiB resident panels, not the 2 MiB its f16 view would be, and
    // one FLOP floor. DLRM's widest panels (1 × 256 × 512, 256 KiB; and
    // 1 × 512 × 100, 104 KiB) stay on the caller. The team's width
    // caps them all.
    for (m, n, k, dtype, seats) in [
        (1usize, 1000usize, 1024usize, Dtype::F16, 4usize),
        (1, 1024, 1000, Dtype::F16, 4),
        (1, 1024, 1024, Dtype::Int8, 3),
        (1, 256, 512, Dtype::F16, 1),
        (1, 512, 100, Dtype::F16, 1),
    ] {
        let packed = PackedWeights::pack(&Matrix::random_dtype(k, n, 79, dtype));
        let a = Matrix::random_dtype(m, k, 78, dtype);
        for width in [2usize, 8] {
            let mut ws = Workspace::new();
            aiga_util::team::with_width(width, || {
                gemm_into(&a, &packed, TileScheme::NONE, &[], Dest::None, &mut ws);
            });
            let ctx = format!("{dtype} {m}x{n}x{k} at width {width}");
            assert_eq!(ws.stripe_pool.len(), seats.min(width), "{ctx}");
        }
    }
    // The seats the bytes bought change no byte: fc1024's last layer at
    // widths 1, 2 and 3 (one, two and three members), with one fault in
    // column 999 of the ragged last block, flags once under each
    // thread-level scheme; every tile column flags in block order; and
    // global ABFT's partials are the serial reference's bits.
    let (a, b) = (Matrix::random(1, 1024, 80), Matrix::random(1024, 1000, 81));
    let fault = FaultPlan {
        row: 0,
        col: 999,
        after_step: 9,
        kind: FaultKind::AddValue(96.0),
    };
    let packed = PackedWeights::pack(&b);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    on_each_path(|path| {
        for lanes in [Redundancy::ColumnChecksum, Redundancy::TileChecksum] {
            let out = at_every_team_width(&a, &b, loose(lanes), &[fault]);
            let flagged: Vec<_> = out
                .detections
                .iter()
                .map(|d| d.col..d.col + d.cols)
                .collect();
            assert!(
                matches!(&flagged[..], [cols] if cols.contains(&999)),
                "{lanes:?} {path:?}: {flagged:?}"
            );
        }
        let all = at_every_team_width(&a, &b, FLAG_ALL, &[]);
        assert_eq!(all.detections.len(), 1008, "{path:?}");
        let global = loose(Redundancy::GlobalSums);
        at_every_team_width(&a, &b, global, &[fault]);
        let mut ws = Workspace::new();
        for width in [1usize, 2, 3] {
            aiga_util::team::with_width(width, || {
                gemm_into(&a, &packed, global, &[fault], Dest::None, &mut ws);
            });
            let (out, got) = ws.output_and_check();
            let want = CheckScratch::sum_serially(a.view(), out);
            let ctx = format!("width {width} {path:?}");
            assert_eq!(bits(got.stripe_sums()), bits(want.stripe_sums()), "{ctx}");
            assert_eq!(bits(got.block_sums()), bits(want.block_sums()), "{ctx}");
        }
    });
}

#[test]
fn stale_scratch_never_reaches_a_result() {
    // Nothing is cleared between runs: not the members' block tile,
    // lanes, shadow or staged stripe, not the output. Poison all of it
    // with NaN before every run of a large → small → large → k = 0
    // sequence under every lane kind, at team widths 1 and 2, and hold
    // each run to a fresh workspace's bytes.
    let shapes = [
        (200usize, 130usize, 72usize),
        (5, 9, 16),
        (200, 130, 72),
        (7, 20, 0),
    ];
    let mut ws = Workspace::new();
    for width in [1usize, 2] {
        for lanes in ALL_LANES {
            for (i, &(m, n, k)) in shapes.iter().enumerate() {
                let a = Matrix::random(m, k, 80 + i as u64);
                let b = Matrix::random(k, n, 90 + i as u64);
                let fault = FaultPlan {
                    row: m - 1,
                    col: n / 2,
                    after_step: 1,
                    kind: FaultKind::AddValue(64.0),
                };
                let fresh = gemm(&a, &b, loose(lanes), &[fault]);
                ws.out.c.fill(f32::NAN);
                for scr in &mut ws.stripe_pool {
                    let block = &mut scr.block;
                    for v in [
                        &mut block.tile,
                        &mut block.chk,
                        &mut block.mag,
                        &mut block.shadow,
                    ] {
                        v.fill(f32::NAN);
                    }
                    scr.panels.a_pack.fill(f32::NAN);
                    scr.panels.a_chk.fill(f32::NAN);
                }
                let packed = PackedWeights::pack(&b);
                let reused = aiga_util::team::with_width(width, || {
                    report(gemm_into(
                        &a,
                        &packed,
                        loose(lanes),
                        &[fault],
                        Dest::None,
                        &mut ws,
                    ))
                });
                assert_eq!(
                    reused,
                    report(&fresh),
                    "width {width} {lanes:?} {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn random_dtype_f16_is_byte_identical_to_random() {
    let plain = Matrix::random(9, 13, 123);
    let tagged = Matrix::random_dtype(9, 13, 123, Dtype::F16);
    assert_eq!(plain.data, tagged.data);
    assert_eq!(tagged.dtype, Dtype::F16);
}

#[test]
fn every_dtype_runs_the_engine_against_its_f64_reference() {
    // f32 is the common currency of the arithmetic: each storage
    // format's GEMM must match the dtype-aware f64 reference to
    // FP32-accumulation error, on both an aligned and a padded shape.
    for dtype in Dtype::ALL {
        for &(m, n, k, seed) in &[(32usize, 32usize, 32usize, 60u64), (17, 9, 11, 61)] {
            let a = Matrix::random_dtype(m, k, seed, dtype);
            let b = Matrix::random_dtype(k, n, seed + 1, dtype);
            let out = gemm(&a, &b, TileScheme::NONE, &[]);
            let reference = gemm_reference_f64(&a, &b);
            for (i, (&got, &want)) in out.c.iter().zip(&reference).enumerate() {
                assert!(
                    (got as f64 - want).abs() < 1e-3,
                    "{dtype} element {i}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn mixed_dtype_operands_are_rejected() {
    let a = Matrix::random_dtype(16, 16, 1, Dtype::Bf16);
    let b = Matrix::random_dtype(16, 16, 2, Dtype::Fp8E4M3);
    let res = std::panic::catch_unwind(|| gemm(&a, &b, TileScheme::NONE, &[]));
    assert!(res.is_err(), "mismatched operand dtypes must panic");
}

#[test]
fn workspace_take_output_leaves_a_reusable_workspace() {
    let a = Matrix::random(16, 16, 50);
    let b = PackedWeights::pack(&Matrix::random(16, 16, 51));
    let mut ws = Workspace::new();
    gemm_into(&a, &b, TileScheme::NONE, &[], Dest::None, &mut ws);
    let first = ws.take_output();
    assert_eq!((first.m, first.n), (16, 16));
    let second = gemm_into(&a, &b, TileScheme::NONE, &[], Dest::None, &mut ws);
    assert_eq!(first.c, second.c);
}

/// The three-pass staging the one-pass strip staging replaced — decode
/// to padded row-major f32 (`MatrixView::decode_padded_into`, kept in
/// `matrix.rs`'s tests), re-lay into strips, then sum the checksum rows
/// — as the oracle for `Panels::stage`'s bits.
fn stage_oracle(a: MatrixView<'_>, k: usize) -> (Vec<f32>, Vec<f32>) {
    let live_m = a.rows.next_multiple_of(MICRO_MR);
    let mut decoded = Vec::new();
    a.decode_padded_into(live_m, k, &mut decoded);
    let mut a_pack = vec![f32::NAN; live_m * k];
    let mut a_chk = vec![f32::NAN; live_m / MICRO_MR * k * 2];
    for s in 0..live_m / MICRO_MR {
        for kk in 0..k {
            let v: [f32; MICRO_MR] = std::array::from_fn(|i| decoded[(s * MICRO_MR + i) * k + kk]);
            a_pack[(s * k + kk) * MICRO_MR..][..MICRO_MR].copy_from_slice(&v);
            a_chk[(s * k + kk) * 2] = (v[0] + v[1]) + (v[2] + v[3]);
            a_chk[(s * k + kk) * 2 + 1] = (v[0].abs() + v[1].abs()) + (v[2].abs() + v[3].abs());
        }
    }
    (a_pack, a_chk)
}

#[test]
fn one_pass_staging_matches_the_three_pass_oracle_bit_for_bit() {
    use crate::engine::panels::Panels;
    // (kernel, stride, padding, h, w): pointwise, 3×3 s1 p1, 3×3 s2 p0
    // with a ceil-mode edge (the last window hangs past the image),
    // 7×7 s2 p3 — widths divisible by neither 4 nor 8, so strips
    // straddle output rows and images.
    let geometries = [
        (1, 1, 0, 5, 7),
        (3, 1, 1, 9, 11),
        (3, 2, 0, 10, 13),
        (7, 2, 3, 13, 9),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for dtype in Dtype::ALL {
        for (kernel, stride, padding, h, w) in geometries {
            for images in [1usize, 2] {
                let channels = 3;
                let mut tensor = Matrix::random_dtype(1, images * channels * h * w, 31, dtype);
                // −0.0 and (where the format has one) NaN among the taps.
                for (i, v) in [-0.0f32, f32::NAN, -f32::NAN].into_iter().enumerate() {
                    tensor.data[7 + 13 * i] = F16::from_bits(dtype.encode(v));
                }
                let ceil = |x: usize| (x + 2 * padding - kernel).div_ceil(stride) + 1;
                let geom = Im2colView {
                    channels,
                    height: h,
                    width: w,
                    kernel,
                    stride,
                    padding,
                    out_h: ceil(h),
                    out_w: ceil(w),
                };
                let mut views = vec![MatrixView::im2col_lowered(
                    images,
                    geom,
                    &tensor.data,
                    dtype,
                )];
                if kernel == 1 {
                    views.push(MatrixView::nchw_lowered(
                        images,
                        channels,
                        h * w,
                        &tensor.data,
                        dtype,
                    ));
                    views.push(MatrixView {
                        rows: images * 5,
                        cols: channels * h * w / 5,
                        ..tensor.view()
                    });
                }
                for view in views {
                    let k = view.cols.next_multiple_of(8);
                    let (want_pack, want_chk) = stage_oracle(view, k);
                    let strips = view.rows.div_ceil(MICRO_MR);
                    // The whole operand at once, then a block-row stripe
                    // at a time as the engine's members stage it.
                    let per_stripe = BLOCK_M / MICRO_MR;
                    let stripes = (0..strips)
                        .step_by(per_stripe)
                        .map(|s| s..strips.min(s + per_stripe));
                    let ranges: Vec<_> = std::iter::once(0..strips).chain(stripes).collect();
                    for &path in simd::supported_paths() {
                        for strips in ranges.iter().cloned() {
                            let want_pack =
                                &want_pack[strips.start * MICRO_MR * k..strips.end * MICRO_MR * k];
                            let want_chk = &want_chk[strips.start * k * 2..strips.end * k * 2];
                            // Stale contents must be fully overwritten.
                            let mut p = Panels::default();
                            p.a_pack.resize(want_pack.len() + 5, f32::NAN);
                            p.a_chk.resize(want_chk.len() + 5, f32::NAN);
                            p.stage(view, Redundancy::GlobalSums, path, k, strips.clone());
                            let what = format!(
                                "{dtype} k{kernel}s{stride}p{padding} x{images} {:?} {path:?} strips {strips:?}",
                                view.layout
                            );
                            assert_eq!(
                                bits(&p.a_pack[..want_pack.len()]),
                                bits(want_pack),
                                "a_pack {what}"
                            );
                            assert_eq!(
                                bits(&p.a_chk[..want_chk.len()]),
                                bits(want_chk),
                                "a_chk {what}"
                            );
                            // Without lanes the sums are neither staged
                            // nor touched.
                            p.a_chk.fill(f32::NAN);
                            p.stage(view, Redundancy::None, path, k, strips);
                            assert_eq!(
                                bits(&p.a_pack[..want_pack.len()]),
                                bits(want_pack),
                                "a_pack (no lanes) {what}"
                            );
                            assert!(!p.sums && p.a_chk.iter().all(|v| v.is_nan()));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stripe_staging_matches_the_oracle_at_real_conv_geometries() {
    use crate::engine::panels::Panels;
    // (images, channels, h, w, kernel, stride, padding, ceil-mode): the
    // shapes a conv pass stages, which reach the 16-code run tails and
    // stripes of several segments the small geometries above do not —
    // SqueezeNet-1.1's stem (224², stride 2, and its ceil-mode edge);
    // pointwise 55² at K = 64 and 128; 3×3 s1 p1 at 55², 27² and 13²
    // (13-pixel rows: a stripe crosses five of them); stride 3; and two
    // images whose boundary falls inside a stripe (169 rows each, and
    // 81). Five channels make K = 45, a ragged last column group.
    let geometries = [
        (1, 3, 224, 224, 3, 2, 0, false),
        (1, 3, 224, 224, 3, 2, 0, true),
        (1, 64, 55, 55, 1, 1, 0, false),
        (1, 128, 55, 55, 1, 1, 0, false),
        (1, 5, 55, 55, 3, 1, 1, false),
        (1, 5, 27, 27, 3, 1, 1, false),
        (1, 5, 13, 13, 3, 1, 1, false),
        (1, 3, 31, 29, 5, 3, 2, true),
        (2, 5, 13, 13, 3, 1, 1, false),
        (2, 16, 9, 9, 1, 1, 0, false),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let specials = [-0.0f32, f32::NAN, -f32::NAN, f32::INFINITY, -f32::INFINITY];
    for dtype in Dtype::ALL {
        for (images, channels, h, w, kernel, stride, padding, ceil) in geometries {
            let mut tensor = Matrix::random_dtype(1, images * channels * h * w, 53, dtype);
            for (i, code) in tensor.data.iter_mut().enumerate().step_by(101) {
                *code = F16::from_bits(dtype.encode(specials[i / 101 % specials.len()]));
            }
            let out = |x: usize| match ceil {
                true => (x + 2 * padding - kernel).div_ceil(stride) + 1,
                false => (x + 2 * padding - kernel) / stride + 1,
            };
            let geom = Im2colView {
                channels,
                height: h,
                width: w,
                kernel,
                stride,
                padding,
                out_h: out(h),
                out_w: out(w),
            };
            let view = MatrixView::im2col_lowered(images, geom, &tensor.data, dtype);
            let k = view.cols.next_multiple_of(8);
            let (want_pack, want_chk) = stage_oracle(view, k);
            // Every stripe as the engine's members stage them, then a
            // lone strip (as a repair restages) and a stripe's worth off
            // the stripe grid.
            let strips = view.rows.div_ceil(MICRO_MR);
            let per_stripe = BLOCK_M / MICRO_MR;
            let mut ranges: Vec<_> = (0..strips)
                .step_by(per_stripe)
                .map(|s| s..strips.min(s + per_stripe))
                .collect();
            ranges.push(strips - 1..strips);
            ranges.push(strips / 3..strips.min(strips / 3 + per_stripe));
            for &path in simd::supported_paths() {
                // Sums first, so the unsummed runs have a buffer to leave alone.
                let mut p = Panels::default();
                for lanes in [Redundancy::GlobalSums, Redundancy::None] {
                    for strips in ranges.iter().cloned() {
                        let want_pack =
                            &want_pack[strips.start * MICRO_MR * k..strips.end * MICRO_MR * k];
                        let want_chk = &want_chk[strips.start * k * 2..strips.end * k * 2];
                        // Whatever the last range left is overwritten.
                        p.a_pack.fill(f32::NAN);
                        p.a_chk.fill(f32::NAN);
                        p.stage(view, lanes, path, k, strips.clone());
                        let what = format!(
                            "{dtype} x{images} c{channels} {h}x{w} k{kernel}s{stride}p{padding} \
                             ceil={ceil} {path:?} {lanes:?} strips {strips:?}"
                        );
                        let pack = &p.a_pack[..want_pack.len()];
                        assert_eq!(bits(pack), bits(want_pack), "a_pack {what}");
                        if lanes == Redundancy::None {
                            assert!(p.a_chk.iter().all(|v| v.is_nan()), "a_chk {what}");
                        } else {
                            let chk = &p.a_chk[..want_chk.len()];
                            assert_eq!(bits(chk), bits(want_chk), "a_chk {what}");
                        }
                    }
                }
            }
        }
    }
}

/// Everything a run reports, with floats as bits so NaN compares.
type Report = (
    Vec<u32>,
    Vec<(usize, usize, usize, u64, u64)>,
    EngineCounters,
);

fn report(out: &GemmOutput) -> Report {
    let detections = out
        .detections
        .iter()
        .map(|d| {
            (
                d.row,
                d.col,
                d.cols,
                d.residual.to_bits(),
                d.threshold.to_bits(),
            )
        })
        .collect();
    (
        out.c.iter().map(|v| v.to_bits()).collect(),
        detections,
        out.counters,
    )
}

/// The one-row register tile against everything it must not change, in
/// one storage format. Every `m` leaves one live row in its last strip;
/// `n = 16` is a lone column group (the half-width tail tile), 40 three
/// groups (a pair, then the tail), 1000 sixteen blocks whose last holds
/// an odd group count and a ragged tile; K = 5 pads to 8 (the oracle
/// is slow in debug builds).
///
/// Per shape × lane kind × fault set:
/// - outputs, the full detection list (residual and threshold *bits*)
///   and the counters are equal on every path;
/// - outputs equal those of the same operands with the strip's three
///   dead rows made explicit zero rows — four live rows, so the
///   four-row tile — and so do the detections of every scheme whose
///   check does not depend on the live rows: one-sided ABFT checks the
///   one-row strip by columns and the four-row strip by rows;
/// - faults in the live row at the first and last column flag (mid-walk
///   and epilogue, finite, NaN and ±Inf), a fault aimed at a dead row
///   is a no-op, and a non-finite weight still flags.
fn one_live_row_strips_match_the_oracle(dtype: Dtype) {
    let k = 5;
    let at = |row, col, after_step, kind| FaultPlan {
        row,
        col,
        after_step,
        kind,
    };
    for m in [1usize, 5, 13, 129] {
        for n in [16usize, 40, 1000] {
            // Three block rows by sixteen block columns is four fifths of
            // this sweep's oracle time; unoptimised builds leave it to
            // the release run (CI has one per dtype).
            if cfg!(debug_assertions) && (m, n) == (129, 1000) {
                continue;
            }
            let seed = (m * 1009 + n) as u64;
            let a = Matrix::random_dtype(m, k, seed, dtype);
            let b = Matrix::random_dtype(k, n, seed + 1, dtype);
            let mut eager_a = a.clone();
            eager_a.rows += MICRO_MR - 1;
            eager_a.data.resize(eager_a.rows * k, F16::ZERO);
            let live = m - 1;
            let fault_sets = [
                vec![],
                vec![
                    at(live, 0, 1, FaultKind::AddValue(96.0)),
                    at(live, n - 1, u64::MAX, FaultKind::AddValue(-160.0)),
                ],
                vec![
                    at(live, 0, u64::MAX, FaultKind::SetValue(f32::NAN)),
                    at(live, n - 1, 2, FaultKind::SetValue(f32::NAN)),
                ],
                vec![
                    at(live, 0, 0, FaultKind::SetValue(f32::INFINITY)),
                    at(
                        live,
                        n - 1,
                        u64::MAX,
                        FaultKind::SetValue(f32::NEG_INFINITY),
                    ),
                ],
                vec![
                    at(m, 0, 1, FaultKind::AddValue(96.0)),
                    at(m + 2, n - 1, u64::MAX, FaultKind::SetValue(f32::NAN)),
                ],
            ];
            for lanes in ALL_LANES {
                let scheme = loose(lanes);
                let packed = PackedWeights::pack(&b);
                let mut ws = Workspace::new();
                let mut clean = None;
                for (set, faults) in fault_sets.iter().enumerate() {
                    let ctx = format!("{dtype} {m}x{n} {lanes:?} fault set {set}");
                    let runs = on_each_path(|_| {
                        let lazy =
                            report(gemm_into(&a, &packed, scheme, faults, Dest::None, &mut ws));
                        (
                            lazy,
                            report(gemm_into(
                                &eager_a,
                                &packed,
                                scheme,
                                faults,
                                Dest::None,
                                &mut ws,
                            )),
                        )
                    });
                    assert!(runs.iter().all(|r| r == &runs[0]), "paths differ: {ctx}");
                    let (lazy, eager) = &runs[0];
                    // (Set 4's rows exist in the eager operand: it has
                    // accumulators there to strike.)
                    if set != 4 {
                        assert_eq!(lazy.0, eager.0[..m * n], "output vs eager: {ctx}");
                        assert!(eager.0[m * n..].iter().all(|&v| v == 0), "{ctx}");
                        if lanes != Redundancy::ColumnChecksum {
                            assert_eq!(lazy.1, eager.1, "detections vs eager: {ctx}");
                        }
                    }
                    let flagged: Vec<usize> = lazy.1.iter().map(|d| d.1).collect();
                    let want: Vec<usize> = match (set, lanes) {
                        (1..=3, Redundancy::ColumnChecksum | Redundancy::ShadowExact) => {
                            vec![0, n - 1]
                        }
                        (1..=3, Redundancy::TileChecksum | Redundancy::ShadowSum) => {
                            let mut tiles = vec![0, (n - 1) / MICRO_NR * MICRO_NR];
                            tiles.dedup();
                            tiles
                        }
                        _ => vec![],
                    };
                    assert_eq!(flagged, want, "{ctx}");
                    assert!(lazy.1.iter().all(|d| d.0 == live), "{ctx}");
                    match set {
                        0 => clean = Some(lazy.0.clone()),
                        4 => assert_eq!(Some(&lazy.0), clean.as_ref(), "dead-row fault: {ctx}"),
                        _ => assert_ne!(Some(&lazy.0), clean.as_ref(), "{ctx}"),
                    }
                }
            }
            // A non-finite weight (where the format has one) in the last
            // column: the clean run flags that column under both ABFT
            // kinds, identically on every path and to the eager lanes.
            for value in [f32::NAN, f32::INFINITY] {
                let code = dtype.encode(value);
                if dtype.decode(code).is_finite() {
                    continue;
                }
                let mut b = b.clone();
                b.set(k - 2, n - 1, F16::from_bits(code));
                for lanes in [Redundancy::ColumnChecksum, Redundancy::TileChecksum] {
                    let ctx = format!("{dtype} {m}x{n} {lanes:?} weight {value}");
                    let packed = PackedWeights::pack(&b);
                    let mut ws = Workspace::new();
                    let runs = on_each_path(|_| {
                        let lazy = report(gemm_into(
                            &a,
                            &packed,
                            loose(lanes),
                            &[],
                            Dest::None,
                            &mut ws,
                        ));
                        let eager = report(gemm_into(
                            &eager_a,
                            &packed,
                            loose(lanes),
                            &[],
                            Dest::None,
                            &mut ws,
                        ));
                        (lazy, eager)
                    });
                    assert!(runs.iter().all(|r| r == &runs[0]), "paths differ: {ctx}");
                    let (lazy, eager) = &runs[0];
                    if lanes != Redundancy::ColumnChecksum {
                        assert_eq!(lazy.1, eager.1, "detections vs eager: {ctx}");
                    }
                    let last_strip: Vec<_> = lazy.1.iter().filter(|d| d.0 == live).collect();
                    assert_eq!(last_strip.len(), 1, "{ctx}");
                    assert_eq!(
                        last_strip[0].1 + last_strip[0].2,
                        n.next_multiple_of(last_strip[0].2),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn one_live_row_strips_match_the_oracle_f16() {
    one_live_row_strips_match_the_oracle(Dtype::F16);
}

#[test]
fn one_live_row_strips_match_the_oracle_bf16() {
    one_live_row_strips_match_the_oracle(Dtype::Bf16);
}

#[test]
fn one_live_row_strips_match_the_oracle_fp8e4m3() {
    one_live_row_strips_match_the_oracle(Dtype::Fp8E4M3);
}

#[test]
fn one_live_row_strips_match_the_oracle_int8() {
    one_live_row_strips_match_the_oracle(Dtype::Int8);
}

/// `(row, col, residual bits, threshold bits)` of one detection.
type PinnedDetection = (usize, usize, u64, u64);

#[test]
fn faults_in_either_strip_of_a_pair_flag_with_pinned_bits() {
    // Eight rows are one strip pair on the zmm walk; 48 columns are its
    // 8×32 tile and the ymm instance over the odd third group. A
    // mid-walk fault in one strip and a NaN in the other — in either
    // tile, either way round — must flag their own strip, on every path,
    // with the residual and threshold bits the four-row ymm tile
    // reported before strips were paired (recorded at that commit;
    // one-sided ABFT's re-pinned when it began to check wide strips by
    // rows, each detection now naming its row and column group).
    let (m, n, k) = (8, 48, 24);
    let a = Matrix::random(m, k, 300);
    let b = Matrix::random(k, n, 301);
    let at = |row, col, after_step, kind| FaultPlan {
        row,
        col,
        after_step,
        kind,
    };
    let mid = FaultKind::AddValue(96.0);
    let nan = FaultKind::SetValue(f32::NAN);
    let nan_bits = f64::NAN.to_bits();
    let mid_then_nan = [at(1, 5, 2, mid), at(6, 40, u64::MAX, nan)];
    let nan_then_mid = [at(2, 37, u64::MAX, nan), at(7, 20, 4, mid)];
    let cases: [(Redundancy, [FaultPlan; 2], [PinnedDetection; 2]); 4] = [
        (
            Redundancy::ColumnChecksum,
            mid_then_nan,
            [
                (1, 0, 0x4057ffffd8000000, 0x3fa4f237ac3eb7cc),
                (6, 32, nan_bits, 0x3fa23284e1e71045),
            ],
        ),
        (
            Redundancy::ColumnChecksum,
            nan_then_mid,
            [
                (2, 32, nan_bits, 0x3f9f27d834091c09),
                (7, 16, 0x4057ffffe8000000, 0x3fa0296f954eb13e),
            ],
        ),
        (
            Redundancy::TileChecksum,
            mid_then_nan,
            [
                (0, 0, 0x4058000000000000, 0x3fc2e797082491b0),
                (4, 32, nan_bits, 0x3fc2c1bd1fe64f55),
            ],
        ),
        (
            Redundancy::TileChecksum,
            nan_then_mid,
            [
                (0, 32, nan_bits, 0x3fc186f77e1b8ed2),
                (4, 16, 0x4057ffffe0000000, 0x3fc2e7ebebe1650b),
            ],
        ),
    ];
    assert_eq!(nan_bits, 0x7ff8000000000000);
    for (lanes, faults, want) in cases {
        let packed = PackedWeights::pack(&b);
        let mut ws = Workspace::new();
        let runs = on_each_path(|_| {
            report(gemm_into(
                &a,
                &packed,
                loose(lanes),
                &faults,
                Dest::None,
                &mut ws,
            ))
        });
        assert!(
            runs.iter().all(|r| r == &runs[0]),
            "paths differ: {lanes:?}"
        );
        let got: Vec<_> = runs[0].1.iter().map(|d| (d.0, d.1, d.3, d.4)).collect();
        assert_eq!(got, want, "{lanes:?} {faults:?}");
    }
}

#[test]
fn a_destination_holds_what_emitting_the_finished_output_would() {
    // Codes written block by block from inside the tasks equal the
    // codes of a loop over the finished f32 output — struck cells
    // included — and both equal one scalar encode per cell in the
    // consumer's order: NCHW with images of 53 pixels (so an image ends
    // inside a segment of every stripe), ReLU on and off, every dtype,
    // at team widths 1, 2 and 3 on every path; row-major has only the
    // loop, and is held to the scalar encode the same way. 265
    // rows (five images) by 250 columns: five stripes and four column
    // blocks, the last of each ragged; K = 0 and N = 0 take the early
    // exit.
    let fault = FaultPlan {
        row: 211,
        col: 249,
        after_step: u64::MAX,
        kind: FaultKind::SetValue(-0.0),
    };
    for (m, n, k) in [(265usize, 250usize, 64usize), (106, 40, 0), (53, 0, 8)] {
        for dtype in Dtype::ALL {
            let a = Matrix::random_dtype(m, k, 5, dtype);
            let b = Matrix::random_dtype(k, n, 6, dtype);
            let packed = PackedWeights::pack(&b);
            let scheme = loose(Redundancy::ColumnChecksum);
            for (conv_spatial, relu) in [(None, true), (Some(53), true), (Some(53), false)] {
                let layout = EmitLayout { conv_spatial, relu };
                on_each_path(|path| {
                    let mut ws = Workspace::new();
                    for width in [1usize, 2, 3] {
                        let mut codes = vec![F16::from_bits(0xffff); m * n];
                        let mut run = |dest| {
                            aiga_util::team::with_width(width, || {
                                gemm_into(&a, &packed, scheme, &[fault], dest, &mut ws).clone()
                            })
                        };
                        // The finished output is the `Dest::None` run's: a
                        // codes run keeps no f32 copy.
                        let out = run(Dest::None);
                        if let Some(spatial) = conv_spatial {
                            run(Dest::Codes {
                                codes: &mut codes,
                                dtype,
                                spatial,
                                relu,
                                stride: n * spatial,
                            });
                        }
                        let mut looped = vec![F16::from_bits(0xffff); m * n];
                        emit_output(&out, layout, |at, run| {
                            dtype.encode_slice(run, &mut looped[at..at + run.len()])
                        });
                        let mut scalar = vec![F16::ZERO; m * n];
                        for (r, c) in (0..m).flat_map(|r| (0..n).map(move |c| (r, c))) {
                            let v = if relu {
                                emit::relu(out.get(r, c))
                            } else {
                                out.get(r, c)
                            };
                            let at = match conv_spatial {
                                None => r * n + c,
                                Some(s) => (r / s * n + c) * s + r % s,
                            };
                            scalar[at] = F16::from_bits(dtype.encode(v));
                        }
                        let what = format!(
                            "{m}x{n}x{k} {dtype} {layout:?} {} width {width}",
                            path.as_str()
                        );
                        if conv_spatial.is_some() {
                            assert_eq!(codes, scalar, "{what}: in-task");
                        }
                        assert_eq!(looped, scalar, "{what}: looped");
                    }
                });
            }
        }
    }
}

#[test]
fn a_codes_run_keeps_no_f32_output_and_checks_as_a_plain_run() {
    // With `Dest::Codes` the cells go to the codes alone: the f32 output
    // stays empty and its capacity is not grown — none on a fresh
    // workspace, the plain run's after one — while `m`, `n`, the
    // detections (order, residual and threshold bits), the counters and
    // global ABFT's partials are the `Dest::None` run's, under global
    // and tile lanes and with every tile flagging (`FLAG_ALL`), at team
    // widths 1, 2 and 3 on every path. The same run into a wider image
    // — a concat's channels at an offset — writes the same codes at its
    // stride and leaves the codes around them alone.
    let (m, n, k, spatial) = (265usize, 250usize, 64usize, 53usize);
    let a = Matrix::random(m, k, 15);
    let packed = PackedWeights::pack(&Matrix::random(k, n, 16));
    let faults = [
        FaultPlan {
            row: 211,
            col: 249,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(300.0),
        },
        FaultPlan {
            row: 3,
            col: 70,
            after_step: 5,
            kind: FaultKind::AddValue(-300.0),
        },
    ];
    let checks = |ws: &mut Workspace| {
        let (out, sums) = ws.output_and_check();
        let (_, detections, counters) = report(out);
        let sums = [sums.stripe_sums(), sums.block_sums()].map(|v| {
            let bits = v.iter().map(|x| x.to_bits());
            bits.collect::<Vec<u32>>()
        });
        (out.m, out.n, detections, counters, sums)
    };
    let (before, after) = (3 * spatial, 5 * spatial);
    let stride = before + n * spatial + after;
    fn dest(codes: &mut [F16], spatial: usize, stride: usize) -> Dest<'_> {
        Dest::Codes {
            codes,
            dtype: Dtype::F16,
            spatial,
            relu: true,
            stride,
        }
    }
    let lanes = [Redundancy::GlobalSums, Redundancy::TileChecksum];
    for scheme in lanes.map(loose).into_iter().chain([FLAG_ALL]) {
        on_each_path(|path| {
            for width in [1usize, 2, 3] {
                let what = format!("{scheme:?} {} width {width}", path.as_str());
                let run = |dest: Dest<'_>, ws: &mut Workspace| {
                    aiga_util::team::with_width(width, || {
                        gemm_into(&a, &packed, scheme, &faults, dest, ws);
                    });
                };
                let mut ws = Workspace::new();
                let mut codes = vec![F16::ZERO; m * n];
                run(dest(&mut codes, spatial, n * spatial), &mut ws);
                assert_eq!(ws.output().c.capacity(), 0, "{what}: fresh");
                let coded = checks(&mut ws);
                run(Dest::None, &mut ws);
                let (plain, capacity) = (checks(&mut ws), ws.output().c.capacity());
                assert_eq!(coded, plain, "{what}");
                run(dest(&mut codes, spatial, n * spatial), &mut ws);
                assert!(ws.output().c.is_empty(), "{what}: warm");
                assert_eq!(ws.output().c.capacity(), capacity, "{what}: warm");
                assert_eq!(checks(&mut ws), plain, "{what}: warm");

                let mut wide = vec![F16::from_bits(0x7e00); m / spatial * stride];
                run(dest(&mut wide[before..], spatial, stride), &mut ws);
                for (image, want) in wide.chunks(stride).zip(codes.chunks(n * spatial)) {
                    let (head, rest) = image.split_at(before);
                    let (own, tail) = rest.split_at(n * spatial);
                    assert_eq!(own, want, "{what}: in a wider image");
                    let untouched = |c: &F16| c.to_bits() == 0x7e00;
                    assert!(head.iter().chain(tail).all(untouched), "{what}");
                }
            }
        });
    }
}

#[test]
fn in_task_global_partials_equal_the_serial_reference() {
    // Global ABFT's partials as the tasks leave them — `Σ C` per block
    // from the tile after its write-back, `Σ A` per stripe folded from
    // the staged strip sums — against `CheckScratch::sum_serially` over
    // the operand and the finished output, bit for bit: at team widths
    // 1, 2 and 3 on every path, in every storage format, for row-major,
    // NCHW-pointwise and im2col operands; on both sides of every stripe
    // boundary (m), a lone column group and sixteen column blocks with a
    // ragged last (n); clean, with a mid-walk and with an epilogue
    // fault; and through the early exit (K = 0, N = 0). One workspace
    // throughout, so a partial left by a larger run cannot stand in for
    // a smaller one's. (Unoptimised builds keep every axis and drop the
    // two largest m.)
    let scheme = TileScheme {
        lanes: Redundancy::GlobalSums,
        ..TileScheme::NONE
    };
    let rows: &[usize] = if cfg!(debug_assertions) {
        &[1, 3, 5, 63, 64, 65]
    } else {
        &[1, 3, 5, 63, 64, 65, 129, 256]
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut ws = Workspace::new();
    let mut run = |a: MatrixView<'_>, b: &Matrix, faults: &[FaultPlan], ctx: &str| {
        let packed = PackedWeights::pack(b);
        for width in [1usize, 2, 3] {
            aiga_util::team::with_width(width, || {
                gemm_into(a, &packed, scheme, faults, Dest::None, &mut ws);
            });
            let (out, got) = ws.output_and_check();
            let want = CheckScratch::sum_serially(a, out);
            let ctx = format!("{ctx} {faults:?} width {width}");
            assert_eq!(bits(got.stripe_sums()), bits(want.stripe_sums()), "{ctx}");
            assert_eq!(bits(got.block_sums()), bits(want.block_sums()), "{ctx}");
            assert_eq!(
                got.output_sum().to_bits(),
                want.output_sum().to_bits(),
                "{ctx}"
            );
        }
    };
    on_each_path(|path| {
        for dtype in Dtype::ALL {
            for &m in rows {
                for n in [8usize, 1000] {
                    let ctx = format!("{dtype} {m}x{n} {path:?}");
                    let tensor = Matrix::random_dtype(1, 3 * m, m as u64, dtype);
                    let geometry = Im2colView {
                        channels: 3,
                        height: m,
                        width: 1,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                        out_h: m,
                        out_w: 1,
                    };
                    let dense = Matrix::random_dtype(m, 9, 7 + m as u64, dtype);
                    for (view, a) in [
                        ("row-major", dense.view()),
                        (
                            "nchw",
                            MatrixView::nchw_lowered(1, 3, m, &tensor.data, dtype),
                        ),
                        (
                            "im2col",
                            MatrixView::im2col_lowered(1, geometry, &tensor.data, dtype),
                        ),
                    ] {
                        let b = Matrix::random_dtype(a.cols, n, 11 + n as u64, dtype);
                        let at = |after_step| FaultPlan {
                            row: m / 2,
                            col: n - 1,
                            after_step,
                            kind: FaultKind::AddValue(96.0),
                        };
                        for faults in [&[][..], &[at(1)], &[at(u64::MAX)]] {
                            run(a, &b, faults, &format!("{view} {ctx}"));
                        }
                    }
                }
            }
            for (m, n, k) in [(65usize, 1000usize, 0usize), (65, 0, 9)] {
                let a = Matrix::random_dtype(m, k, 3, dtype);
                let b = Matrix::random_dtype(k, n, 4, dtype);
                run(a.view(), &b, &[], &format!("{dtype} {m}x{n}x{k} {path:?}"));
            }
        }
    });
}
