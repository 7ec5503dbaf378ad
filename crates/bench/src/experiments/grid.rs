//! Figs. 3-9 and Tables 4-5 — the one runner behind every metric grid.
//!
//! Each of those figures takes a list of labelled rows — the eight
//! baselines and ST-TransRec, the ablation variants, or one value of
//! alpha, rho, embedding size or tower depth — trains or fits every row,
//! and scores it with the Sec. 4.1 sampled-negative protocol. Which rows,
//! titles and cutoffs each figure uses is data in `paper`'s experiment
//! table; this module only runs them.

use crate::json::{Json, ToJson};
use crate::runner::Loaded;

use st_baselines::{fit_method, Method};
use st_eval::{evaluate, EvalConfig, Metric, MetricReport, Scorer};
use st_transrec_core::{ModelConfig, STTransRec};

/// What one row trains or fits.
#[derive(Debug, Clone)]
pub enum Fit {
    /// ST-TransRec under this configuration.
    Model(ModelConfig),
    /// A baseline at its one budget, with the dataset's neural
    /// hyperparameters ("set the same to those of ST-TransRec").
    Baseline(Method),
}

/// One scored row of a grid.
#[derive(Debug, Clone)]
pub struct Row {
    /// What the metric table prints ("ItemPop", "alpha=0.10", ...).
    pub label: String,
    /// What the result file records for the row under the grid's key.
    pub value: Json,
    /// Averaged metrics.
    pub report: MetricReport,
}

/// Trains or fits every `(label, value, fit)` row on the loaded split,
/// in order, and scores each with the shared protocol.
pub fn run(loaded: &Loaded, rows: Vec<(String, Json, Fit)>) -> Vec<Row> {
    let (dataset, split) = (&loaded.dataset, &loaded.split);
    rows.into_iter()
        .map(|(label, value, fit)| {
            eprintln!("[grid] {label} on {}...", loaded.kind.name());
            let scorer: Box<dyn Scorer> = match fit {
                Fit::Model(config) => {
                    let mut model = STTransRec::new(dataset, split, config);
                    model.fit(dataset);
                    Box::new(model)
                }
                Fit::Baseline(method) => fit_method(method, dataset, split, &loaded.model_config),
            };
            let report = evaluate(&*scorer, dataset, split, &EvalConfig::default());
            Row {
                label,
                value,
                report,
            }
        })
        .collect()
}

/// The rows as a result file records them: `{key: value, "report": ...}`
/// each, in order.
pub fn to_json(rows: &[Row], key: &str) -> Json {
    let row = |r: &Row| {
        Json::Obj(vec![
            (key.to_string(), r.value.clone()),
            ("report".to_string(), r.report.to_json()),
        ])
    };
    Json::Arr(rows.iter().map(row).collect())
}

/// The relative `metric@k` improvement, in percent, of the row labelled
/// `reference` over every other row (Secs. 4.2.1-4.2.2 quote these);
/// infinite over a row that scores zero.
pub fn improvement(rows: &[Row], reference: &str, metric: Metric, k: usize) -> Vec<(String, f64)> {
    let ours = rows
        .iter()
        .find(|r| r.label == reference)
        .expect("the reference row is in the grid")
        .report
        .get(metric, k);
    rows.iter()
        .filter(|r| r.label != reference)
        .map(|r| {
            let theirs = r.report.get(metric, k);
            let imp = if theirs > 0.0 {
                (ours - theirs) / theirs * 100.0
            } else {
                f64::INFINITY
            };
            (r.label.clone(), imp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};
    use st_transrec_core::Variant;

    fn tiny() -> Loaded {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = ModelConfig::test_small();
        loaded
    }

    #[test]
    #[ignore = "soak: trains three models, ~8 s in debug; run with --ignored"]
    fn model_rows_train_in_order() {
        let loaded = tiny();
        let base = &loaded.model_config;
        let rows = vec![
            ("ST-TransRec", Fit::Model(base.clone())),
            (
                "ST-TransRec-1",
                Fit::Model(base.clone().with_variant(Variant::NoMmd)),
            ),
            (
                "layers=1",
                Fit::Model(ModelConfig {
                    depth: 1,
                    ..base.clone()
                }),
            ),
        ];
        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(i, (label, fit))| (label.to_string(), i.to_json(), fit))
            .collect();
        let scored = run(&loaded, rows);
        let labels: Vec<&str> = scored.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["ST-TransRec", "ST-TransRec-1", "layers=1"]);
        assert!(scored.iter().all(|r| r.report.users > 0));
        assert_eq!(
            improvement(&scored, "ST-TransRec", Metric::Ndcg, 10).len(),
            2
        );
        let text = to_json(&scored, "n").to_string();
        assert!(
            text.starts_with(r#"[{"n":0,"report":{"ks":[2,4,6,8,10]"#),
            "{text}"
        );
    }

    #[test]
    #[ignore = "soak: fits eight baselines and trains one model, ~10 s in debug; run with --ignored"]
    fn baseline_rows_and_st_transrec_compare() {
        let loaded = tiny();
        let mut rows: Vec<_> = Method::ALL
            .into_iter()
            .map(|m| (m.name().to_string(), m.name().to_json(), Fit::Baseline(m)))
            .collect();
        let ours = Fit::Model(loaded.model_config.clone());
        rows.push(("ST-TransRec".into(), "ST-TransRec".to_json(), ours));
        let scored = run(&loaded, rows);
        assert_eq!(scored.len(), 9);
        let imps = improvement(&scored, "ST-TransRec", Metric::Recall, 10);
        assert_eq!(imps.len(), 8);
        assert!(imps.iter().all(|(_, imp)| imp.is_finite()), "{imps:?}");
    }
}
