//! Figs. 5-6 — ablation study: the full model against ST-TransRec-1
//! (no MMD), -2 (no text), and -3 (no resampling).

use crate::experiments::train_and_eval;
use crate::runner::Loaded;

use st_eval::{Metric, MetricReport};
use st_transrec_core::Variant;

/// One variant's result.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Display label ("ST-TransRec", "ST-TransRec-1", ...).
    pub variant: String,
    /// Averaged metrics.
    pub report: MetricReport,
}

crate::json_object_impl!(VariantResult { variant, report });

/// The paper's variant labels.
pub fn variant_label(v: Variant) -> &'static str {
    match v {
        Variant::Full => "ST-TransRec",
        Variant::NoMmd => "ST-TransRec-1",
        Variant::NoText => "ST-TransRec-2",
        Variant::NoResample => "ST-TransRec-3",
    }
}

/// Trains all four variants with otherwise identical hyperparameters
/// ("the hyparameters are set the same to ST-TransRec").
pub fn run(loaded: &Loaded) -> Vec<VariantResult> {
    [
        Variant::Full,
        Variant::NoMmd,
        Variant::NoText,
        Variant::NoResample,
    ]
    .into_iter()
    .map(|v| {
        eprintln!(
            "[fig5/6] training {} on {}...",
            variant_label(v),
            loaded.kind.name()
        );
        let config = loaded.model_config.clone().with_variant(v);
        VariantResult {
            variant: variant_label(v).to_string(),
            report: train_and_eval(loaded, config),
        }
    })
    .collect()
}

/// NDCG@10 improvements of the full model over each variant
/// (Sec. 4.2.2 quotes 3.35 / 1.78 / 1.82 percent on Foursquare).
pub fn ndcg10_improvements(results: &[VariantResult]) -> Vec<(String, f64)> {
    let full = results[0].report.get(Metric::Ndcg, 10);
    results[1..]
        .iter()
        .map(|r| {
            let theirs = r.report.get(Metric::Ndcg, 10);
            (
                r.variant.clone(),
                if theirs > 0.0 {
                    (full - theirs) / theirs * 100.0
                } else {
                    f64::INFINITY
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};

    #[test]
    #[ignore = "soak: trains four models, ~11 s in debug; run with --ignored"]
    fn all_four_variants_run() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let results = run(&loaded);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].variant, "ST-TransRec");
        let imps = ndcg10_improvements(&results);
        assert_eq!(imps.len(), 3);
    }
}
