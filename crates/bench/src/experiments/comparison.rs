//! Figs. 3-4 — performance comparison of ST-TransRec against the eight
//! baselines on both datasets, all four metrics at k = 2, 4, 6, 8, 10.

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_baselines::{fit_method, Budget, Method};
use st_eval::{evaluate, Metric, MetricReport};

/// One method's evaluated report.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Display name.
    pub method: String,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(MethodResult { method, report });

/// Runs the full comparison on a loaded dataset.
pub fn run(loaded: &Loaded, budget: Budget) -> Vec<MethodResult> {
    let mut results = Vec::with_capacity(Method::ALL.len() + 1);
    for method in Method::ALL {
        eprintln!(
            "[fig3/4] fitting {} on {}...",
            method.name(),
            loaded.kind.name()
        );
        let scorer = fit_method(
            method,
            &loaded.dataset,
            &loaded.split,
            &loaded.model_config,
            budget,
        );
        let report = evaluate(
            &*scorer,
            &loaded.dataset,
            &loaded.split,
            &crate::eval_config(),
        );
        results.push(MethodResult {
            method: method.name().to_string(),
            report,
        });
    }
    eprintln!("[fig3/4] fitting ST-TransRec on {}...", loaded.kind.name());
    let report = train_and_eval(loaded, loaded.model_config.clone());
    results.push(MethodResult {
        method: "ST-TransRec".to_string(),
        report,
    });
    results
}

/// The paper's headline check: ST-TransRec's Recall@10 relative
/// improvement over each competitor (Sec. 4.2.1 quotes these).
pub fn recall10_improvements(results: &[MethodResult]) -> Vec<(String, f64)> {
    let ours = results
        .iter()
        .find(|r| r.method == "ST-TransRec")
        .expect("ST-TransRec present")
        .report
        .get(Metric::Recall, 10);
    results
        .iter()
        .filter(|r| r.method != "ST-TransRec")
        .map(|r| {
            let theirs = r.report.get(Metric::Recall, 10);
            let imp = if theirs > 0.0 {
                (ours - theirs) / theirs * 100.0
            } else {
                f64::INFINITY
            };
            (r.method.clone(), imp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};

    /// End-to-end smoke at very small scale: every method runs, the
    /// harness assembles all nine rows, improvements are computable.
    #[test]
    #[ignore = "soak: trains nine methods, ~6 s in debug; run with --ignored"]
    fn comparison_assembles_all_nine_methods() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let results = run(&loaded, Budget::Quick);
        assert_eq!(results.len(), 9);
        assert!(results.iter().any(|r| r.method == "ST-TransRec"));
        let imps = recall10_improvements(&results);
        assert_eq!(imps.len(), 8);
        for (_, imp) in &imps {
            assert!(imp.is_finite());
        }
    }
}
