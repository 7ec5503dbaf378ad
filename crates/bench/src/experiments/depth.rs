//! Table 5 — recommendation performance at interaction-tower depths
//! {1, 2, 3, 4}, reported at k = 2 and 4. The paper finds depth 4 best
//! on both datasets.

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_eval::MetricReport;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct DepthResult {
    /// Number of hidden layers.
    pub depth: usize,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(DepthResult { depth, report });

/// The paper's grid.
pub fn paper_grid() -> Vec<usize> {
    vec![1, 2, 3, 4]
}

/// Trains one model per tower depth.
pub fn run(loaded: &Loaded, grid: &[usize]) -> Vec<DepthResult> {
    grid.iter()
        .map(|&depth| {
            eprintln!("[table5] depth = {depth} on {}...", loaded.kind.name());
            let config = loaded.model_config.clone().with_depth(depth);
            DepthResult {
                depth,
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
        let results = run(&loaded, &[1, 2]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].depth, 2);
    }
}
