//! Figs. 7-8 — sensitivity to the resampling rate `alpha`, swept over
//! [0.06, 0.15] with metrics at k = 2, 6, 10. The paper finds interior
//! optima at 0.10 (Foursquare) and 0.11 (Yelp).

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_eval::MetricReport;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct AlphaResult {
    /// The punishment rate trained with.
    pub alpha: f64,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(AlphaResult { alpha, report });

/// The paper's sweep grid.
pub fn paper_grid() -> Vec<f64> {
    (6..=15).map(|i| i as f64 / 100.0).collect()
}

/// Trains one model per alpha on the grid.
pub fn run(loaded: &Loaded, grid: &[f64]) -> Vec<AlphaResult> {
    grid.iter()
        .map(|&alpha| {
            eprintln!("[fig7/8] alpha = {alpha:.2} on {}...", loaded.kind.name());
            let mut config = loaded.model_config.clone();
            config.alpha = alpha;
            AlphaResult {
                alpha,
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
    fn grid_matches_paper_range() {
        let g = paper_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.06).abs() < 1e-12);
        assert!((g[9] - 0.15).abs() < 1e-12);
    }

    #[test]
    #[ignore = "soak: trains one model per grid point, ~6 s in debug; run with --ignored"]
    fn sweep_runs_on_micro_grid() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let results = run(&loaded, &[0.0, 0.10]);
        assert_eq!(results.len(), 2);
        assert!(results[0].report.users > 0);
    }
}
