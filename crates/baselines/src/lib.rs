//! # st-baselines
//!
//! Re-implementations of the paper's eight comparison methods (Sec. 4.1),
//! all exposed through `st_eval::Scorer` so the harness evaluates every
//! method on identical candidate sets:
//!
//! | Method   | Family        | Type |
//! |----------|---------------|--------|
//! | ItemPop  | popularity    | [`ItemPop`] |
//! | LCE      | CF + content  | `Lce` |
//! | CRCF     | CF + location | `Crcf` |
//! | PR-UIDT  | CF + transfer | `PrUidt` |
//! | ST-LDA   | topic model   | `TopicModel` (no city topics) |
//! | CTLM     | topic + transfer | `TopicModel` (4 topics per city) |
//! | SH-CDL   | deep content  | `ShCdl` |
//! | PACE     | deep NCF + context | `Pace` |
//!
//! [`fit_method`] is the one-call factory the experiment harness uses.
//! Each method fits at one budget, kept as constants in its own module
//! (the three MF baselines share `mf`'s); the inputs are the split and
//! ST-TransRec's configuration.

#![warn(missing_docs)]

mod crcf;
mod itempop;
mod lce;
mod mf;
mod pace;
mod pr_uidt;
mod sh_cdl;
mod topic;

pub(crate) use crcf::Crcf;
pub use itempop::ItemPop;
pub(crate) use lce::Lce;
pub(crate) use pace::Pace;
pub(crate) use pr_uidt::PrUidt;
pub(crate) use sh_cdl::ShCdl;
pub(crate) use topic::TopicModel;

use st_data::{CrossingCitySplit, Dataset};
use st_eval::Scorer;
use st_transrec_core::ModelConfig;

/// All comparison methods, in the paper's reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Popularity ranking.
    ItemPop,
    /// Local collective embeddings.
    Lce,
    /// Cross-region CF.
    Crcf,
    /// Interest drift & transfer MF.
    PrUidt,
    /// Spatial topic model.
    StLda,
    /// Common-topic transfer model.
    Ctlm,
    /// Deep content + MF.
    ShCdl,
    /// Deep NCF + context prediction.
    Pace,
}

impl Method {
    /// Every method, in reporting order.
    pub const ALL: [Method; 8] = [
        Method::ItemPop,
        Method::Lce,
        Method::Crcf,
        Method::PrUidt,
        Method::StLda,
        Method::Ctlm,
        Method::ShCdl,
        Method::Pace,
    ];

    /// The display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::ItemPop => "ItemPop",
            Method::Lce => "LCE",
            Method::Crcf => "CRCF",
            Method::PrUidt => "PR-UIDT",
            Method::StLda => "ST-LDA",
            Method::Ctlm => "CTLM",
            Method::ShCdl => "SH-CDL",
            Method::Pace => "PACE",
        }
    }
}

/// Fits `method` on the training split and returns it as a boxed scorer.
///
/// `neural_config` carries the per-dataset hyperparameters (embedding
/// size, tower shape...) that the paper shares between ST-TransRec and
/// the deep baselines ("the hyparameters and structure are set the same
/// to those of ST-TransRec"): PACE trains on it, and the factor width of
/// LCE, PR-UIDT and SH-CDL is its embedding size, capped at 64.
pub fn fit_method(
    method: Method,
    dataset: &Dataset,
    split: &CrossingCitySplit,
    neural_config: &ModelConfig,
) -> Box<dyn Scorer> {
    let (train, target) = (&split.train, split.target_city);
    let dim = neural_config.embedding_dim.min(64);
    match method {
        Method::ItemPop => Box::new(ItemPop::fit(dataset, train)),
        Method::Lce => Box::new(Lce::fit(dataset, train, dim)),
        Method::Crcf => Box::new(Crcf::fit(dataset, train, target)),
        Method::PrUidt => Box::new(PrUidt::fit(dataset, train, dim)),
        Method::StLda => Box::new(TopicModel::fit(dataset, train, target, 0)),
        Method::Ctlm => Box::new(TopicModel::fit(dataset, train, target, 4)),
        Method::ShCdl => Box::new(ShCdl::fit(dataset, train, dim)),
        Method::Pace => Box::new(Pace::fit(dataset, split, neural_config)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, UserId};
    use st_eval::{evaluate, EvalConfig, Metric};
    use std::sync::OnceLock;

    /// `SynthConfig::tiny` and its split for city 1, built once per test
    /// binary: every test in this crate fits on it.
    pub(crate) fn tiny() -> &'static (Dataset, CrossingCitySplit) {
        static TINY: OnceLock<(Dataset, CrossingCitySplit)> = OnceLock::new();
        TINY.get_or_init(|| {
            let (d, _) = generate(&SynthConfig::tiny());
            let split = CrossingCitySplit::build(&d, CityId(1));
            (d, split)
        })
    }

    /// The factor width [`fit_method`] gives the MF baselines on `tiny`.
    pub(crate) fn dim() -> usize {
        ModelConfig::test_small().embedding_dim.min(64)
    }

    /// `method` as [`fit_method`] fits it on `tiny` with
    /// `ModelConfig::test_small`, once per test binary. The box is leaked
    /// because a `Box<dyn Scorer>` is not `Send` and so cannot sit in a
    /// static; the `&'static dyn Scorer` can (`Scorer: Sync`).
    pub(crate) fn fitted(method: Method) -> &'static dyn Scorer {
        static FITS: [OnceLock<&'static dyn Scorer>; 8] = [const { OnceLock::new() }; 8];
        let slot = Method::ALL.iter().position(|&m| m == method).unwrap();
        *FITS[slot].get_or_init(|| {
            let (d, split) = tiny();
            Box::leak(fit_method(method, d, split, &ModelConfig::test_small()))
        })
    }

    #[test]
    fn method_names_are_unique() {
        let mut names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }

    #[test]
    fn factory_fits_every_method_above_chance() {
        let (d, split) = tiny();
        for method in Method::ALL {
            let scorer = fitted(method);
            let report = evaluate(scorer, d, split, &EvalConfig::default());
            let r10 = report.get(Metric::Recall, 10);
            assert!(
                r10 > 0.05,
                "{} failed sanity: recall@10 = {r10}",
                method.name()
            );
            // And the scorer is usable through the trait object.
            let pois = d.pois_in_city(CityId(1));
            let scores = scorer.score_batch(UserId(0), pois);
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    /// FNV-1a over 64-bit words.
    fn fold(bits: impl IntoIterator<Item = u64>) -> u64 {
        bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Per method, in `Method::ALL` order, as the paper record fits it on
    /// `SynthConfig::tiny` / `ModelConfig::test_small`: the fold of every
    /// `MetricReport` value's bits, and the fold of the score bits of
    /// every test user over the target city's POIs.
    #[rustfmt::skip]
    const GOLDEN: [(Method, u64, u64); 8] = [
        (Method::ItemPop, 5606545088327830368, 18393441978964385045),
        (Method::Lce, 15395485622101586102, 18253440650234767707),
        (Method::Crcf, 5580869292556826002, 10707045567751460830),
        (Method::PrUidt, 11243981511164419348, 15289742113319702828),
        (Method::StLda, 939414192944119123, 12271160834758884514),
        (Method::Ctlm, 15162823574934908639, 8896913188479086391),
        (Method::ShCdl, 1110821773563563894, 1642251955498681571),
        (Method::Pace, 10842178382384660348, 14049728723493263886),
    ];

    /// The record's fits, bit for bit: a change to any baseline, or to
    /// `STTransRec` training (PACE is built on it), moves a hash here.
    #[test]
    fn golden_fits_are_pinned() {
        let (d, split) = tiny();
        let pois = d.pois_in_city(split.target_city);
        for (method, metric_bits, score_bits) in GOLDEN {
            let scorer = fitted(method);
            let report = evaluate(scorer, d, split, &EvalConfig::default());
            let metrics = fold(report.values.iter().flatten().map(|v| v.to_bits()));
            let scores = fold(split.test_users.iter().flat_map(|&u| {
                let scores = scorer.score_batch(u, pois);
                scores.into_iter().map(|s| u64::from(s.to_bits()))
            }));
            assert_eq!(
                (metrics, scores),
                (metric_bits, score_bits),
                "{} moved",
                method.name()
            );
        }
    }
}
