//! Synchronous data-parallel training (Table 2).
//!
//! The paper splits each training step across GPUs with data parallelism;
//! here workers are OS threads (std scoped), each computing the
//! joint gradients on its own mini-batches against the shared, read-only
//! parameter snapshot. Gradients are averaged and applied once — exactly
//! the synchronous multi-GPU semantics whose ~2x scaling Table 2 reports.
//!
//! The trainer is stateful: it keeps one [`StepBuffers`] per worker
//! across steps and epochs, so after the first step no worker's tape
//! allocates a matrix, no worker pool grows, and gradient storage is not
//! zero-filled again. A worker is one thread: it runs both lanes of its
//! step inline ([`Schedule::Inline`]), so Table 2's one-worker column is
//! one thread and its `w`-worker column `w`. Worker results are combined
//! with [`st_tensor::Gradients::merge_from`] — with row-sparse buffers
//! the merge cost is O(touched rows), never O(table) — which leaves each
//! worker's buffer cleared with its storage kept for the next step.

use crate::model::{EpochStats, STTransRec, Schedule, StepBuffers, StepLosses, StepPhases};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::Dataset;
use st_tensor::PoolStats;
use std::time::{Duration, Instant};

/// Data-parallel trainer over `workers` threads.
#[derive(Debug)]
pub struct ParallelTrainer {
    /// One per worker: its gradient buffers and tape pools, reused
    /// across steps.
    buffers: Vec<StepBuffers>,
}

impl ParallelTrainer {
    /// Creates a trainer with the given worker count (1 = the sequential
    /// baseline column of Table 2).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Self {
            buffers: (0..workers).map(|_| StepBuffers::default()).collect(),
        }
    }

    /// Worker count.
    pub(crate) fn workers(&self) -> usize {
        self.buffers.len()
    }

    /// What each worker's tape buffer pools have done and hold, in worker
    /// order.
    pub(crate) fn pool_stats(&self) -> Vec<PoolStats> {
        self.buffers.iter().map(StepBuffers::pool_stats).collect()
    }

    /// One synchronous step: every worker computes a full joint-loss
    /// gradient on its own batches; gradients are averaged and applied.
    /// Worker pools and gradient buffers persist across calls.
    pub(crate) fn train_step(
        &mut self,
        model: &mut STTransRec,
        dataset: &Dataset,
        master_rng: &mut SmallRng,
    ) -> StepLosses {
        // Buffers made for another model (or not made yet) are replaced.
        for b in &mut self.buffers {
            if b.grads().arity() != model.params().len() {
                *b = model.new_step_buffers();
            }
        }
        let seeds: Vec<u64> = self.buffers.iter().map(|_| master_rng.gen()).collect();
        let shared: &STTransRec = model;
        let step = |seed: u64, buffers: &mut StepBuffers| {
            let mut rng = SmallRng::seed_from_u64(seed);
            shared.accumulate_step(dataset, &mut rng, buffers, Schedule::Inline)
        };
        let (first, rest) = self.buffers.split_first_mut().expect("at least one worker");
        let losses: Vec<StepLosses> = std::thread::scope(|scope| {
            let handles: Vec<_> = seeds[1..]
                .iter()
                .zip(rest.iter_mut())
                .map(|(&seed, buffers)| scope.spawn(move || step(seed, buffers)))
                .collect();
            // Worker 0 is the calling thread.
            let mine = step(seeds[0], first);
            std::iter::once(mine)
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked")),
                )
                .collect()
        });
        // Fold the other workers' gradients into worker 0's (sparse stays
        // sparse), average, apply. Worker 0's buffer holds the union of
        // touched rows, so its row capacity grows toward the steady-state
        // touch pattern.
        for b in rest {
            first.grads_mut().merge_from(b.grads_mut());
        }
        if losses.len() > 1 {
            first.grads_mut().scale(1.0 / losses.len() as f32);
        }
        model.apply(first.grads());
        first.clear();
        average_losses(&losses)
    }

    /// One epoch. With `w` workers, each step consumes `w` batches, so the
    /// per-epoch step count shrinks by `w` — same data budget, less wall
    /// clock, which is what Table 2 measures.
    pub fn train_epoch(&mut self, model: &mut STTransRec, dataset: &Dataset) -> TimedEpoch {
        let steps = (model.steps_per_epoch() / self.workers()).max(1);
        let mut master_rng = SmallRng::seed_from_u64(model.config().seed ^ 0x9E3779B97F4A7C15);
        let start = Instant::now();
        let mut sum = StepLosses::default();
        for _ in 0..steps {
            sum += self.train_step(model, dataset, &mut master_rng);
        }
        let wall = start.elapsed();
        let pool = self.pool_stats().into_iter().sum();
        let stats = model.record_epoch(sum, steps, pool, StepPhases::default());
        TimedEpoch { stats, wall }
    }
}

/// Epoch statistics plus wall-clock duration (Table 2's unit of report).
#[derive(Debug, Clone)]
pub struct TimedEpoch {
    /// Averaged losses.
    pub stats: EpochStats,
    /// Wall-clock time of the epoch.
    pub wall: Duration,
}

fn average_losses(losses: &[StepLosses]) -> StepLosses {
    let n = losses.len() as f32;
    let mut avg = StepLosses::default();
    for &l in losses {
        avg += l / n;
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, STTransRec};
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit};

    fn setup() -> (Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    fn grad_elems(trainer: &ParallelTrainer) -> usize {
        let per_worker = trainer.buffers.iter().map(|b| b.grads().allocated_elems());
        per_worker.sum()
    }

    #[test]
    fn parallel_step_trains_and_stays_finite() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = ParallelTrainer::new(2);
        let mut rng = SmallRng::seed_from_u64(0);
        let l = trainer.train_step(&mut m, &d, &mut rng);
        assert!(l.interaction_source.is_finite() && l.interaction_source > 0.0);
        assert!(!m.params().has_non_finite());
    }

    #[test]
    fn two_workers_halve_steps_per_epoch() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let e1 = ParallelTrainer::new(1).train_epoch(&mut m, &d);
        let e2 = ParallelTrainer::new(2).train_epoch(&mut m, &d);
        assert_eq!(e2.stats.steps, (e1.stats.steps / 2).max(1));
    }

    #[test]
    fn epochs_are_numbered_and_recorded_in_the_history() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = ParallelTrainer::new(2);
        let e0 = trainer.train_epoch(&mut m, &d).stats;
        let e1 = trainer.train_epoch(&mut m, &d).stats;
        // The model's own epochs and the trainer's share one numbering.
        let e2 = m.train_epoch(&d);
        assert_eq!([e0.epoch, e1.epoch, e2.epoch], [0, 1, 2]);
        // `fit` returns the whole history: these three, then its own.
        assert_eq!(m.fit(&d)[..3], [e0, e1, e2]);
    }

    #[test]
    fn parallel_training_converges_like_sequential() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = ParallelTrainer::new(2);
        let first = trainer.train_epoch(&mut m, &d).stats.losses;
        for _ in 0..2 {
            trainer.train_epoch(&mut m, &d);
        }
        let last = trainer.train_epoch(&mut m, &d).stats.losses;
        let f = first.interaction_source + first.interaction_target;
        let l = last.interaction_source + last.interaction_target;
        assert!(l < f, "parallel training did not reduce loss: {f} -> {l}");
    }

    #[test]
    fn trainer_buffers_stop_allocating_after_first_steps() {
        // The per-worker gradient buffers keep their storage across steps:
        // once the touch pattern stabilizes, allocated elements plateau.
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = ParallelTrainer::new(2);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..3 {
            trainer.train_step(&mut m, &d, &mut rng);
        }
        let warmed = grad_elems(&trainer);
        for _ in 0..3 {
            trainer.train_step(&mut m, &d, &mut rng);
        }
        let after = grad_elems(&trainer);
        assert!(warmed > 0, "buffers never materialized");
        // Batches vary, so allow the union to keep growing a little, but
        // it must stay the same order of magnitude (no per-step refill).
        assert!(
            after <= warmed * 2,
            "gradient buffers kept reallocating: {warmed} -> {after}"
        );
    }

    #[test]
    fn worker_pools_stay_flat_after_the_first_step() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = ParallelTrainer::new(2);
        let mut rng = SmallRng::seed_from_u64(0);
        trainer.train_step(&mut m, &d, &mut rng);
        let settled = trainer.pool_stats();
        assert_eq!(settled.len(), 2);
        assert!(settled.iter().all(|p| p.misses > 0 && p.pooled_bytes > 0));
        for step in 2..=30 {
            trainer.train_step(&mut m, &d, &mut rng);
            for (worker, (now, then)) in trainer.pool_stats().iter().zip(&settled).enumerate() {
                assert_eq!(
                    now.misses, then.misses,
                    "worker {worker} missed at step {step}"
                );
                assert_eq!(now.regrown, 0);
                assert_eq!(now.pooled, then.pooled, "worker {worker} pool len moved");
                assert_eq!(now.pooled_bytes, then.pooled_bytes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        ParallelTrainer::new(0);
    }
}
