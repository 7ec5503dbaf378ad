//! Table 4 — recommendation performance at embedding sizes
//! {16, 32, 64, 128}, reported at k = 2 and 4. The paper's optima:
//! 64 on Foursquare (128 overfits), 128 on Yelp.

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_eval::MetricReport;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct EmbeddingResult {
    /// Embedding size trained with.
    pub dim: usize,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(EmbeddingResult { dim, report });

/// The paper's grid.
pub fn paper_grid() -> Vec<usize> {
    vec![16, 32, 64, 128]
}

/// Trains one model per embedding size (tower rescaled per the paper's
/// 2x-input rule, see `ModelConfig::with_embedding_dim`).
pub fn run(loaded: &Loaded, grid: &[usize]) -> Vec<EmbeddingResult> {
    grid.iter()
        .map(|&dim| {
            eprintln!("[table4] embedding = {dim} on {}...", loaded.kind.name());
            let config = loaded.model_config.clone().with_embedding_dim(dim);
            EmbeddingResult {
                dim,
                report: train_and_eval(loaded, config),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};

    #[test]
    #[ignore = "soak: trains one model per grid point, ~5 s in debug; run with --ignored"]
    fn sweep_runs_on_micro_grid() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let results = run(&loaded, &[8, 16]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].dim, 8);
    }
}
