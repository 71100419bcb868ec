//! Observation-driven morsel sizing.
//!
//! The static `morsel_rows = 1024` default is a guess; the right size is
//! whatever makes one morsel cost roughly [`TARGET_MORSEL_US`] of work —
//! big enough to amortize task dispatch, small enough to keep the
//! work-stealing pool load-balanced. A [`MorselTuner`] closes the loop:
//! after each kernel batch the executor reports the batch's per-morsel
//! latency samples (the same values recorded into the `exec.morsel_us`
//! histogram), the tuner computes the batch's **p95**, and steps the
//! global morsel size by **powers of two** toward the target, bounded to
//! `[`[`MIN_MORSEL_ROWS`]`, `[`MAX_MORSEL_ROWS`]`]`.
//!
//! ## Why p95, not the mean
//!
//! The mean under-weights the straggler tail: one morsel ten times the
//! target drags pool load balance far more than ten slightly-slow
//! morsels, yet barely moves the batch mean. Steering on the tail keeps
//! the *slowest* morsels near the target, which is what bounds the
//! end-of-batch barrier wait. The batch p95 is computed exactly here
//! (sorted copy, ceil-rank) rather than read back from the log-bucketed
//! histogram, whose upper-bound quantiles carry up to 12.5% bucket error.
//!
//! ## Convergence
//!
//! Steps fire only when the p95 leaves the factor-two stable band
//! `[TARGET/2, 2·TARGET]`. Under any workload where per-morsel latency
//! grows monotonically with morsel size (true of every per-row kernel),
//! doubling from below the band or halving from above moves the p95
//! toward the band by roughly a factor of two per batch, and once inside
//! the band no step fires — so the size settles, within one power-of-two
//! step of the latency-optimal size, after O(log) batches, and cannot
//! oscillate: a size whose p95 is in-band is a fixed point.
//!
//! ## Control
//!
//! [`init`] sets the global tuner's starting size once, pinned
//! (auto-tuning off) or not; the `genpar` binary installs `GENPAR_MORSEL`
//! through it, and a persisted calibration seeds it the same way.
//! [`ExecConfig::with_morsel_rows`](crate::ExecConfig::with_morsel_rows)
//! pins per-config. Every applied step emits an `exec.retune` obs event
//! with the old and new sizes and the batch p95 that triggered it.

use crate::morsel::DEFAULT_MORSEL_ROWS;
use genpar_obs::FieldValue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-morsel latency the tuner steers toward, in microseconds.
pub const TARGET_MORSEL_US: u64 = 100;
/// Smallest morsel the tuner will select.
pub const MIN_MORSEL_ROWS: usize = 64;
/// Largest morsel the tuner will select.
pub const MAX_MORSEL_ROWS: usize = 65_536;

/// Exact p95 of a latency batch: the smallest sample such that at least
/// 95% of the batch is ≤ it (ceil-rank on a sorted copy). `None` for an
/// empty batch.
fn batch_p95(samples: &[u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() * 95).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// A feedback controller for the global morsel size. Shared by all
/// kernel batches; lock-free (one atomic holds the current size).
#[derive(Debug)]
pub struct MorselTuner {
    rows: AtomicUsize,
    pinned: bool,
}

impl MorselTuner {
    /// A tuner starting at `initial` rows (clamped to the bounds unless
    /// pinned — a pin is honoured exactly).
    pub fn new(initial: usize, pinned: bool) -> MorselTuner {
        let rows = if pinned {
            initial.max(1)
        } else {
            initial.clamp(MIN_MORSEL_ROWS, MAX_MORSEL_ROWS)
        };
        MorselTuner {
            rows: AtomicUsize::new(rows),
            pinned,
        }
    }

    /// The morsel size kernels should chunk with right now.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Is the size pinned (`fixed:N`)?
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Feed back one kernel batch: `samples` holds each morsel's latency
    /// in microseconds. If the batch's exact p95 is outside the stable
    /// band `[TARGET/2, 2·TARGET]`, step the size one power of two toward
    /// the target (within bounds) and emit an `exec.retune` event.
    /// Returns `Some((old, new))` when a step was applied; empty batches
    /// are ignored.
    ///
    /// Concurrency: the step is a compare-exchange on the size observed
    /// at entry, so two batches finishing together apply at most one step
    /// — a stale batch (computed against a size that already moved)
    /// simply loses the race and changes nothing.
    pub fn observe_batch(&self, samples: &[u64]) -> Option<(usize, usize)> {
        if self.pinned {
            return None;
        }
        let p95_us = batch_p95(samples)?;
        let cur = self.rows.load(Ordering::Relaxed);
        let next = if p95_us < TARGET_MORSEL_US / 2 {
            (cur.saturating_mul(2)).min(MAX_MORSEL_ROWS)
        } else if p95_us > TARGET_MORSEL_US * 2 {
            (cur / 2).max(MIN_MORSEL_ROWS)
        } else {
            return None;
        };
        if next == cur
            || self
                .rows
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return None;
        }
        genpar_obs::event(
            "exec.retune",
            [
                ("old", FieldValue::U64(cur as u64)),
                ("new", FieldValue::U64(next as u64)),
                ("p95_us", FieldValue::U64(p95_us)),
                ("target_us", FieldValue::U64(TARGET_MORSEL_US)),
            ],
        );
        Some((cur, next))
    }
}

static GLOBAL_TUNER: OnceLock<MorselTuner> = OnceLock::new();

/// The process-wide tuner. Unless [`init`] ran first, it starts at
/// [`DEFAULT_MORSEL_ROWS`] with tuning on.
pub fn tuner() -> &'static MorselTuner {
    GLOBAL_TUNER.get_or_init(|| MorselTuner::new(DEFAULT_MORSEL_ROWS, false))
}

/// Install the process-wide tuner at `rows` (see [`MorselTuner::new`]),
/// **before** first use. The first setting wins: the `genpar` binary
/// installs an explicit `GENPAR_MORSEL` before any command runs, so a
/// persisted seed (the converged `morsel_rows` a previous `profile` run
/// wrote into `CALIBRATION.json`) arriving later is ignored. Returns
/// whether this call took effect.
pub fn init(rows: usize, pinned: bool) -> bool {
    GLOBAL_TUNER.set(MorselTuner::new(rows, pinned)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic workload: each row costs 0.1µs, so a morsel of `rows`
    /// takes `rows / 10` µs and the 100µs-optimal size is 1000 rows —
    /// between the power-of-two steps 512 and 1024. Uniform per-morsel
    /// latencies: the batch p95 equals the per-morsel cost exactly.
    fn synthetic_batch(tuner: &MorselTuner, morsels: usize) -> Vec<u64> {
        let rows = tuner.rows() as u64;
        vec![rows / 10; morsels]
    }

    #[test]
    fn converges_from_below_within_one_step_of_optimum() {
        let t = MorselTuner::new(MIN_MORSEL_ROWS, false);
        let mut steps = Vec::new();
        for _ in 0..20 {
            if let Some(s) = t.observe_batch(&synthetic_batch(&t, 8)) {
                steps.push(s);
            }
        }
        // 64 → 128 → 256 → 512, then 51µs is inside [50, 200]: stable
        assert_eq!(t.rows(), 512, "steps: {steps:?}");
        assert!(steps.len() <= 4, "must settle, not oscillate: {steps:?}");
        // optimum is 1000 rows ⇒ within ±1 power-of-two step
        assert!((512..=2048).contains(&t.rows()));
    }

    #[test]
    fn converges_from_above_within_one_step_of_optimum() {
        let t = MorselTuner::new(MAX_MORSEL_ROWS, false);
        for _ in 0..20 {
            t.observe_batch(&synthetic_batch(&t, 8));
        }
        // 65536 → … → 2048 (204µs > 200) → 1024 (102µs): stable
        assert_eq!(t.rows(), 1024);
        assert!((512..=2048).contains(&t.rows()));
    }

    #[test]
    fn stable_band_is_a_fixed_point() {
        let t = MorselTuner::new(1024, false);
        // p95 exactly at target: no movement, no event
        assert_eq!(t.observe_batch(&[TARGET_MORSEL_US; 4]), None);
        assert_eq!(t.rows(), 1024);
        // band edges: 50µs and 200µs both stable
        assert_eq!(t.observe_batch(&[TARGET_MORSEL_US / 2]), None);
        assert_eq!(t.observe_batch(&[TARGET_MORSEL_US * 2]), None);
    }

    #[test]
    fn p95_steers_on_the_tail_not_the_mean() {
        // 9 fast morsels and one straggler: the mean is 49.5µs (a
        // mean-driven tuner would double the size) but the p95 sees the
        // 450µs tail and halves it instead.
        let t = MorselTuner::new(1024, false);
        let mut batch = vec![5u64; 9];
        batch.push(450);
        assert_eq!(t.observe_batch(&batch), Some((1024, 512)));
        assert_eq!(t.rows(), 512);
    }

    #[test]
    fn exact_p95_uses_ceil_rank() {
        assert_eq!(batch_p95(&[]), None);
        assert_eq!(batch_p95(&[42]), Some(42));
        // 20 samples: rank ceil(0.95·20)=19 → the 19th smallest
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(batch_p95(&v), Some(19));
        // 10 samples: rank ceil(9.5)=10 → the max
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(batch_p95(&v), Some(10));
    }

    #[test]
    fn steps_respect_bounds() {
        let t = MorselTuner::new(MIN_MORSEL_ROWS, false);
        // far too slow: wants to halve but is already at the floor
        assert_eq!(t.observe_batch(&[10_000]), None);
        assert_eq!(t.rows(), MIN_MORSEL_ROWS);
        let t = MorselTuner::new(MAX_MORSEL_ROWS, false);
        // instant morsels: wants to double but is at the ceiling
        assert_eq!(t.observe_batch(&vec![0; 1000]), None);
        assert_eq!(t.rows(), MAX_MORSEL_ROWS);
    }

    #[test]
    fn pinned_tuner_never_moves() {
        let t = MorselTuner::new(777, true);
        assert_eq!(t.rows(), 777, "a pin is honoured exactly, unclamped");
        assert_eq!(t.observe_batch(&[0; 10]), None);
        assert_eq!(t.observe_batch(&[100_000; 10]), None);
        assert_eq!(t.rows(), 777);
    }

    #[test]
    fn empty_batch_is_ignored() {
        let t = MorselTuner::new(1024, false);
        assert_eq!(t.observe_batch(&[]), None);
        assert_eq!(t.rows(), 1024);
    }
}
