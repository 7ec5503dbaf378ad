//! # st-eval
//!
//! Evaluation substrate: the four ranking metrics the paper reports
//! (Recall@k, Precision@k, NDCG@k, MAP@k) and its sampled-negative
//! ranking protocol (Sec. 4.1), with two consumers. The paper record
//! runs [`evaluate`] over a split's crossing-city test users (100
//! negatives); st-online's publish gate runs [`evaluate_events`] over a
//! window of held-out check-ins (50 same-city negatives) and reads
//! Recall@10 as its hit rate. Both are one loop and one [`rank_metrics`]:
//! exact ties count as expected rank, and a NaN never ranks a truth
//! higher (NaN negatives above every number, NaN truths below
//! everything).
//!
//! Every method — ST-TransRec, its ablations, and all eight baselines —
//! is evaluated through the same [`Scorer`] trait with a fixed negative
//! sampling seed, so candidate sets are identical across methods.

#![warn(missing_docs)]

mod bootstrap;
mod metrics;
mod protocol;

pub use bootstrap::{bootstrap_ci, ConfidenceInterval};
pub use metrics::{
    overlap_at_k, rank_metrics, Metric, MetricAccumulator, MetricReport, UserMetrics,
};
pub use protocol::{evaluate, evaluate_events, score_sharded, EvalConfig, Scorer};
