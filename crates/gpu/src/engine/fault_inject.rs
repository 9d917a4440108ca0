//! Fault injection into the accumulator datapath.
//!
//! Models a soft error in processing logic per the fault model of §2.3:
//! operands are assumed correct (ECC-protected memory), control flow is
//! assumed correct, and a single output value of `C` is corrupted.

/// How an injected soft error corrupts an accumulator register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Flip one bit (0..32) of the FP32 accumulator.
    BitFlip(u8),
    /// Add a value to the accumulator (models a wrong partial product).
    AddValue(f32),
    /// Overwrite the accumulator entirely (models a mux/select error).
    SetValue(f32),
}

impl FaultKind {
    /// Applies the corruption to an accumulator value.
    pub fn apply(self, v: f32) -> f32 {
        match self {
            FaultKind::BitFlip(bit) => f32::from_bits(v.to_bits() ^ (1 << (bit as u32 % 32))),
            FaultKind::AddValue(d) => v + d,
            FaultKind::SetValue(x) => x,
        }
    }
}

/// K elements one simulated K-step consumes (Figure 3: a thread step
/// advances `k` by 2) — the unit [`FaultPlan::after_step`] counts in.
pub const STEP_K: u64 = 2;

/// A single injected fault targeting output element `(row, col)` of `C`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Global row of the corrupted output element.
    pub row: usize,
    /// Global column of the corrupted output element.
    pub col: usize,
    /// K-step (of [`STEP_K`] elements) after which the corruption
    /// strikes; `u64::MAX` means after the final step (a fault in the
    /// epilogue datapath).
    pub after_step: u64,
    /// Corruption applied.
    pub kind: FaultKind,
}

/// One failed compare of a tile check, and the cells it covered: rows
/// `row..row + rows`, columns `col..col + cols` of the output (global
/// indices; cells beyond the cropped output are grid padding) — the
/// rectangle a repair recomputes.
#[derive(Clone, Debug, PartialEq)]
pub struct Detection {
    /// First flagged global row.
    pub row: usize,
    /// Flagged rows: 1 when the check compares one row (one-sided ABFT
    /// over a strip of two live rows or more), `MICRO_MR` when it
    /// compares a strip's column or register tile.
    pub rows: usize,
    /// First flagged global column.
    pub col: usize,
    /// Flagged columns: 1 when the check compares one tile column
    /// (one-sided ABFT over a strip with one live row, traditional
    /// replication), `MICRO_NR` when it compares a row's column group or
    /// the whole register tile.
    pub cols: usize,
    /// Check residual that tripped the detection.
    pub residual: f64,
    /// Threshold it exceeded.
    pub threshold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitflip_fault_kind_flips_the_requested_bit() {
        let v = 1.5f32;
        let flipped = FaultKind::BitFlip(30).apply(v);
        assert_eq!(flipped.to_bits(), v.to_bits() ^ (1 << 30));
        // Applying twice restores the value.
        assert_eq!(FaultKind::BitFlip(30).apply(flipped), v);
    }

    #[test]
    fn add_and_set_apply_as_documented() {
        assert_eq!(FaultKind::AddValue(2.5).apply(1.0), 3.5);
        assert_eq!(FaultKind::SetValue(-7.0).apply(123.0), -7.0);
    }
}
