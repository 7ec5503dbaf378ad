//! Table 2 — per-epoch training time with 1 vs 2 data-parallel workers.
//!
//! The paper's numbers (94.29s vs 50.74s on Foursquare, 275.44s vs
//! 153.73s on Yelp) show ~1.8-1.9x scaling from synchronous two-way data
//! parallelism; the thread-based trainer reproduces that shape.

use crate::runner::Loaded;

use st_transrec_core::{ParallelTrainer, STTransRec};

/// Timing for one dataset.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Seconds per epoch with a single worker.
    pub single_worker_s: f64,
    /// Seconds per epoch with two workers.
    pub two_worker_s: f64,
    /// Paper's single-GPU seconds.
    pub(crate) paper_single_s: f64,
    /// Paper's two-GPU seconds.
    pub(crate) paper_multi_s: f64,
}

crate::json_object_impl!(Table2Row {
    dataset,
    single_worker_s,
    two_worker_s,
    paper_single_s,
    paper_multi_s,
});

impl Table2Row {
    /// Measured speedup factor.
    pub fn speedup(&self) -> f64 {
        self.single_worker_s / self.two_worker_s
    }
}

/// The paper's reference timings.
pub(crate) fn paper_reference(kind: crate::DatasetKind) -> (f64, f64) {
    match kind {
        crate::DatasetKind::Foursquare => (94.29, 50.74),
        crate::DatasetKind::Yelp => (275.44, 153.73),
    }
}

/// Times `epochs_to_time` epochs under each worker count and averages.
pub fn run(loaded: &Loaded, epochs_to_time: usize) -> Table2Row {
    let time_with = |workers: usize| -> f64 {
        let mut model =
            STTransRec::new(&loaded.dataset, &loaded.split, loaded.model_config.clone());
        let mut trainer = ParallelTrainer::new(workers);
        // One warm-up epoch (allocator, caches), then timed epochs.
        trainer.train_epoch(&mut model, &loaded.dataset);
        let mut total = 0.0;
        for _ in 0..epochs_to_time {
            total += trainer
                .train_epoch(&mut model, &loaded.dataset)
                .wall
                .as_secs_f64();
        }
        total / epochs_to_time as f64
    };
    eprintln!("[table2] timing 1 worker on {}...", loaded.kind.name());
    let single = time_with(1);
    eprintln!("[table2] timing 2 workers on {}...", loaded.kind.name());
    let double = time_with(2);
    let (paper_single, paper_multi) = paper_reference(loaded.kind);
    Table2Row {
        dataset: loaded.kind.name().to_string(),
        single_worker_s: single,
        two_worker_s: double,
        paper_single_s: paper_single,
        paper_multi_s: paper_multi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};

    #[test]
    #[ignore = "soak: trains with one and two workers, ~5 s in debug; run with --ignored"]
    fn timing_harness_produces_positive_times() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let row = run(&loaded, 1);
        assert!(row.single_worker_s > 0.0);
        assert!(row.two_worker_s > 0.0);
        assert!(row.speedup() > 0.1, "speedup {}", row.speedup());
    }
}
