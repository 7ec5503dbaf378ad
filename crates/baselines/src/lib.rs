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
//! | ST-LDA   | topic model   | `TopicModel` (`TopicConfig::st_lda`) |
//! | CTLM     | topic + transfer | `TopicModel` (`TopicConfig::ctlm`) |
//! | SH-CDL   | deep content  | `ShCdl` |
//! | PACE     | deep NCF + context | `Pace` |
//!
//! [`fit_method`] is the one-call factory the experiment harness uses.

#![warn(missing_docs)]

mod crcf;
mod itempop;
mod lce;
mod mf;
mod pace;
mod pr_uidt;
mod sh_cdl;
mod topic;

pub(crate) use crcf::{Crcf, CrcfConfig};
pub use itempop::ItemPop;
pub(crate) use lce::{Lce, LceConfig};
pub(crate) use pace::{Pace, PaceConfig};
pub(crate) use pr_uidt::{PrUidt, PrUidtConfig};
pub(crate) use sh_cdl::{ShCdl, ShCdlConfig};
pub(crate) use topic::{TopicConfig, TopicModel};

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

/// A rough training-effort budget so full runs and CI runs share code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Few epochs / iterations — unit tests and smoke runs.
    Quick,
    /// The paper-shaped effort level for the experiment harness.
    Full,
}

/// Fits `method` on the training split and returns it as a boxed scorer.
///
/// `neural_config` carries the per-dataset hyperparameters (embedding
/// size, tower shape...) that the paper shares between ST-TransRec and
/// the deep baselines ("the hyparameters and structure are set the same
/// to those of ST-TransRec").
pub fn fit_method(
    method: Method,
    dataset: &Dataset,
    split: &CrossingCitySplit,
    neural_config: &ModelConfig,
    budget: Budget,
) -> Box<dyn Scorer> {
    let (mf_epochs, mf_samples, gibbs_iters) = match budget {
        Budget::Quick => (3, 6_000, 15),
        Budget::Full => (8, 60_000, 40),
    };
    match method {
        Method::ItemPop => Box::new(ItemPop::fit(dataset, &split.train)),
        Method::Lce => {
            let cfg = LceConfig {
                dim: neural_config.embedding_dim.min(64),
                epochs: mf_epochs,
                samples_per_epoch: mf_samples,
                ..LceConfig::default()
            };
            Box::new(Lce::fit(dataset, &split.train, &cfg))
        }
        Method::Crcf => Box::new(Crcf::fit(
            dataset,
            &split.train,
            split.target_city,
            CrcfConfig::default(),
        )),
        Method::PrUidt => {
            let cfg = PrUidtConfig {
                dim: neural_config.embedding_dim.min(64),
                epochs: mf_epochs,
                samples_per_epoch: mf_samples,
                ..PrUidtConfig::default()
            };
            Box::new(PrUidt::fit(dataset, &split.train, &cfg))
        }
        Method::StLda => {
            let cfg = TopicConfig {
                iterations: gibbs_iters,
                ..TopicConfig::st_lda()
            };
            Box::new(TopicModel::fit(
                dataset,
                &split.train,
                split.target_city,
                &cfg,
            ))
        }
        Method::Ctlm => {
            let cfg = TopicConfig {
                iterations: gibbs_iters,
                ..TopicConfig::ctlm()
            };
            Box::new(TopicModel::fit(
                dataset,
                &split.train,
                split.target_city,
                &cfg,
            ))
        }
        Method::ShCdl => {
            let cfg = ShCdlConfig {
                dim: neural_config.embedding_dim.min(64),
                mf_epochs,
                samples_per_epoch: mf_samples,
                ae_epochs: match budget {
                    Budget::Quick => 4,
                    Budget::Full => 10,
                },
                ..ShCdlConfig::default()
            };
            Box::new(ShCdl::fit(dataset, &split.train, &cfg))
        }
        Method::Pace => {
            let mut cfg = PaceConfig::from_model(neural_config.clone());
            if budget == Budget::Quick {
                cfg.base.epochs = cfg.base.epochs.min(3);
            }
            let mut p = Pace::new(dataset, split, cfg);
            p.fit(dataset);
            Box::new(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, UserId};
    use st_eval::{evaluate, EvalConfig, Metric};

    #[test]
    fn method_names_are_unique() {
        let mut names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }

    #[test]
    fn factory_fits_every_method_above_chance() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let ncfg = ModelConfig::test_small();
        for method in Method::ALL {
            let scorer = fit_method(method, &d, &split, &ncfg, Budget::Quick);
            let report = evaluate(&*scorer, &d, &split, &EvalConfig::default());
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
}
