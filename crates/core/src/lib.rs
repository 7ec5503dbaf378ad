//! # st-transrec-core
//!
//! The ST-TransRec model (Li & Gong, TKDE'22 / ICDE'23): a deep neural
//! network for crossing-city POI recommendation combining
//!
//! - skipgram context prediction over the textual context graph
//!   (`skipgram_loss`, Eq. 4),
//! - density-based spatial resampling over uniformly accessible regions
//!   ([`CityResampler`], Sec. 3.1.4, Eq. 6-9),
//! - an MMD transfer layer aligning source- and target-city POI embedding
//!   distributions ([`mmd_loss`], Eq. 10), and
//! - an NCF-style interaction tower ([`STTransRec`], Eq. 11-13),
//!
//! jointly trained on the Eq. 3 objective, with the data-parallel trainer
//! of Table 2 and the ablation variants of Sec. 4.2.2.
//!
//! ```no_run
//! use st_data::{synth, CityId, CrossingCitySplit};
//! use st_transrec_core::{ModelConfig, STTransRec};
//! use st_eval::{evaluate, EvalConfig};
//!
//! let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
//! let split = CrossingCitySplit::build(&dataset, CityId(1));
//! let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
//! model.fit(&dataset);
//! let report = evaluate(&model, &dataset, &split, &EvalConfig::default());
//! println!("{report}");
//! ```

#![warn(missing_docs)]

mod config;
mod interaction;
mod mmd;
mod model;
mod recommend;
mod resample;
mod retrieval;
mod skipgram;
mod snapshot;
mod trainer;

pub use config::{MmdEstimator, ModelConfig, Variant};
pub use interaction::{InteractionBatch, InteractionSampler};
pub use mmd::{mmd_loss, mmd_value};
pub use model::{EpochStats, STTransRec, Schedule, StepBuffers, StepLosses, StepPhases};
pub use recommend::{
    case_study, rank_top_k, recommend_top_k, CaseStudy, CaseStudyEntry, Recommendation,
};
pub use resample::CityResampler;
pub use retrieval::{
    recommend_top_k_retrieved, retrieval_recall_at_k, Candidates, RetrievalConfig, RetrievalIndex,
    RetrievalOutcome,
};
pub use snapshot::{ModelSnapshot, PredictError};
pub use trainer::{ParallelTrainer, TimedEpoch};

// Re-exported so downstream consumers (st-serve's batcher) can hold the
// tape-free executor's scratch state without a direct st-tensor
// dependency.
pub use st_tensor::InferCtx;
