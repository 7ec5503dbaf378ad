//! Deterministic fault injection for the publish path.
//!
//! Mirrors the serving tier's chaos discipline (seeded scripts, not
//! racing timers): a [`FaultPlan`] fixes, per publish cycle, whether the
//! pipeline runs clean, swaps in a metric-regressing candidate (the gate
//! must reject it), or crashes mid-publish after the candidate bytes are
//! partially written (the atomic write must leave the served checkpoint
//! untouched). The same seed always yields the same plan, so two runs of
//! the loop produce identical publish/reject/crash sequences.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What to inject at one publish cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishFault {
    /// No fault: gate and publish the real candidate.
    Clean,
    /// Replace the candidate with an untrained, randomly initialized
    /// model — a guaranteed metric regression the gate must catch.
    Regress,
    /// Simulate the publisher dying mid-write: candidate bytes are
    /// partially written to a temp file that is never renamed, and no
    /// reload is issued.
    Crash,
}

impl PublishFault {
    /// Stable lowercase label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            PublishFault::Clean => "clean",
            PublishFault::Regress => "regress",
            PublishFault::Crash => "crash",
        }
    }
}

/// A per-cycle fault schedule, fixed before the loop starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PublishFault>,
}

impl FaultPlan {
    /// All-clean plan (production shape).
    pub fn none(cycles: usize) -> Self {
        Self {
            faults: vec![PublishFault::Clean; cycles],
        }
    }

    /// A seeded chaos plan guaranteed to contain at least one `Regress`
    /// and one `Crash` (so every defended failure mode is exercised),
    /// with the remaining cycles mostly clean. Needs `cycles >= 3` so at
    /// least one clean publish also happens.
    pub fn seeded(cycles: usize, seed: u64) -> Self {
        assert!(cycles >= 3, "need >= 3 cycles for regress + crash + clean");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut faults = vec![PublishFault::Clean; cycles];
        // Reserve cycle 0 for a clean publish: the gate needs at least
        // one trained generation as baseline before a regression can be
        // meaningfully rejected.
        let regress_at = 1 + rng.gen_range(0..cycles - 1);
        let crash_at = loop {
            let c = 1 + rng.gen_range(0..cycles - 1);
            if c != regress_at {
                break c;
            }
        };
        faults[regress_at] = PublishFault::Regress;
        faults[crash_at] = PublishFault::Crash;
        for (i, f) in faults.iter_mut().enumerate() {
            if i > 0 && *f == PublishFault::Clean && rng.gen_bool(0.15) {
                *f = PublishFault::Regress;
            }
        }
        Self { faults }
    }

    /// The fault scheduled for `cycle` (clean past the end of the plan).
    pub(crate) fn fault_for(&self, cycle: usize) -> PublishFault {
        self.faults
            .get(cycle)
            .copied()
            .unwrap_or(PublishFault::Clean)
    }

    /// Number of planned cycles.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no cycles.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// How many cycles schedule `fault`.
    pub fn count(&self, fault: PublishFault) -> usize {
        self.faults.iter().filter(|&&f| f == fault).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic_and_covers_all_modes() {
        for seed in 0..50 {
            let plan = FaultPlan::seeded(5, seed);
            assert_eq!(plan, FaultPlan::seeded(5, seed));
            assert_eq!(plan.fault_for(0), PublishFault::Clean, "seed {seed}");
            assert!(plan.count(PublishFault::Regress) >= 1, "seed {seed}");
            assert_eq!(plan.count(PublishFault::Crash), 1, "seed {seed}");
        }
        assert_ne!(
            FaultPlan::seeded(8, 1),
            FaultPlan::seeded(8, 2),
            "distinct seeds should (here) differ"
        );
    }

    #[test]
    fn past_the_plan_is_clean() {
        let plan = FaultPlan {
            faults: vec![PublishFault::Crash],
        };
        assert_eq!(plan.fault_for(0), PublishFault::Crash);
        assert_eq!(plan.fault_for(7), PublishFault::Clean);
    }
}
