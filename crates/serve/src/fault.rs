//! Deterministic fault injection for overload and chaos testing.
//!
//! [`FaultInjector`] is the set of runtime hooks the micro-batcher
//! consults on its drain path: a **freeze gate** that holds the batcher
//! off the queue (so admission control keeps running while the queue
//! fills — a stand-in for a stalled scorer), a **forced-failure budget**
//! (the next N batches answer every job with a scorer error instead of
//! scoring), and a **latency pad** (every batch sleeps a base plus a
//! seeded-RNG jitter before scoring, simulating a slow model). All hooks
//! default to "off"; a server built without an injector pays one
//! `Option` check per batch.
//!
//! The injector carries no clock and no thread of its own: all timing
//! comes from whoever drives it (the chaos tests and st-bench's seeded
//! `chaos` replays open and close the gate around deterministic queue
//! states), which is what makes the chaos scenarios reproducible instead
//! of schedule-dependent. The seeded schedules themselves live beside
//! their executors in st-bench.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Runtime fault hooks consulted by the batcher's drain path.
#[derive(Debug)]
pub struct FaultInjector {
    /// While set, the batcher leaves the queue untouched (admission and
    /// shedding keep running), as if the scorer had stalled.
    frozen: AtomicBool,
    /// Number of upcoming batches to fail outright instead of scoring.
    fail_batches: AtomicU64,
    /// Base pre-scoring sleep per batch, microseconds (0 = off).
    pad_base_us: AtomicU64,
    /// Upper bound on the seeded random extra pad, microseconds.
    pad_jitter_us: AtomicU64,
    /// Deterministic jitter source; consumed once per padded batch.
    rng: Mutex<SmallRng>,
}

impl FaultInjector {
    /// Creates an injector with every fault disabled. `seed` drives the
    /// latency-pad jitter sequence.
    pub fn new(seed: u64) -> Self {
        Self {
            frozen: AtomicBool::new(false),
            fail_batches: AtomicU64::new(0),
            pad_base_us: AtomicU64::new(0),
            pad_jitter_us: AtomicU64::new(0),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Closes the gate: the batcher stops draining until [`thaw`].
    ///
    /// [`thaw`]: FaultInjector::thaw
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// Reopens the gate.
    pub fn thaw(&self) {
        self.frozen.store(false, Ordering::Release);
    }

    /// Whether the gate is currently closed.
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Arms the next `n` batches to fail with a scorer error.
    pub fn fail_next_batches(&self, n: u64) {
        self.fail_batches.store(n, Ordering::Release);
    }

    /// Consumes one unit of the failure budget; `true` means the caller
    /// must fail the batch it is about to score.
    pub fn take_batch_failure(&self) -> bool {
        self.fail_batches
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Sets the per-batch latency pad: every batch sleeps `base_us` plus
    /// a uniformly random `0..=jitter_us` before scoring. Zero both to
    /// disable.
    pub fn set_latency_pad(&self, base_us: u64, jitter_us: u64) {
        self.pad_base_us.store(base_us, Ordering::Release);
        self.pad_jitter_us.store(jitter_us, Ordering::Release);
    }

    /// The pad to apply to the batch about to score, if any. Draws one
    /// jitter sample from the seeded RNG per padded batch.
    pub fn next_pad(&self) -> Option<Duration> {
        let base = self.pad_base_us.load(Ordering::Acquire);
        let jitter = self.pad_jitter_us.load(Ordering::Acquire);
        if base == 0 && jitter == 0 {
            return None;
        }
        let extra = if jitter == 0 {
            0
        } else {
            self.rng
                .lock()
                .expect("fault rng poisoned")
                .gen_range(0..=jitter)
        };
        Some(Duration::from_micros(base + extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_defaults_are_inert() {
        let inj = FaultInjector::new(1);
        assert!(!inj.frozen());
        assert!(!inj.take_batch_failure());
        assert!(inj.next_pad().is_none());
    }

    #[test]
    fn freeze_thaw_and_failure_budget() {
        let inj = FaultInjector::new(1);
        inj.freeze();
        assert!(inj.frozen());
        inj.thaw();
        assert!(!inj.frozen());

        inj.fail_next_batches(2);
        assert!(inj.take_batch_failure());
        assert!(inj.take_batch_failure());
        assert!(!inj.take_batch_failure(), "budget exhausted");
    }

    #[test]
    fn latency_pad_jitter_is_seed_deterministic() {
        let a = FaultInjector::new(42);
        let b = FaultInjector::new(42);
        a.set_latency_pad(100, 50);
        b.set_latency_pad(100, 50);
        for _ in 0..32 {
            let (pa, pb) = (a.next_pad().unwrap(), b.next_pad().unwrap());
            assert_eq!(pa, pb);
            assert!((100..=150).contains(&(pa.as_micros() as u64)));
        }
        a.set_latency_pad(0, 0);
        assert!(a.next_pad().is_none());
    }
}
