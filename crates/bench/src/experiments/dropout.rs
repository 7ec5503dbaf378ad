//! Fig. 9 — sensitivity to the dropout rate, swept over [0, 0.5] with
//! metrics at k = 10. The paper finds optima at 0.1 (Foursquare) and
//! 0.2 (Yelp), with degradation beyond.

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_eval::MetricReport;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct DropoutResult {
    /// Dropout rate trained with.
    pub dropout: f32,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(DropoutResult { dropout, report });

/// The paper's sweep grid: 0.0 to 0.5.
pub fn paper_grid() -> Vec<f32> {
    (0..=5).map(|i| i as f32 / 10.0).collect()
}

/// Trains one model per dropout rate.
pub fn run(loaded: &Loaded, grid: &[f32]) -> Vec<DropoutResult> {
    grid.iter()
        .map(|&dropout| {
            eprintln!("[fig9] dropout = {dropout:.1} on {}...", loaded.kind.name());
            let mut config = loaded.model_config.clone();
            config.dropout = dropout;
            DropoutResult {
                dropout,
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
    fn grid_covers_paper_range() {
        let g = paper_grid();
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], 0.0);
        assert_eq!(g[5], 0.5);
    }

    #[test]
    #[ignore = "soak: trains one model per grid point, ~6 s in debug; run with --ignored"]
    fn sweep_runs_on_micro_grid() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let results = run(&loaded, &[0.0, 0.3]);
        assert_eq!(results.len(), 2);
    }
}
