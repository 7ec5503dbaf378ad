//! # st-eval
//!
//! Evaluation substrate: the four ranking metrics the paper reports
//! (Recall@k, Precision@k, NDCG@k, MAP@k) and its 100-sampled-negative
//! ranking protocol over crossing-city test users (Sec. 4.1).
//!
//! Every method — ST-TransRec, its ablations, and all eight baselines —
//! is evaluated through the same [`Scorer`] trait with a fixed negative
//! sampling seed, so candidate sets are identical across methods.

#![warn(missing_docs)]

mod bootstrap;
mod metrics;
mod protocol;
mod window;

pub use bootstrap::{bootstrap_ci, ConfidenceInterval};
pub use metrics::{
    overlap_at_k, rank_metrics, Metric, MetricAccumulator, MetricReport, UserMetrics,
};
pub use protocol::{evaluate, score_sharded, EvalConfig, Scorer};
pub use window::{evaluate_window, WindowEvalConfig, WindowReport};
