//! # st-data
//!
//! Data substrate for the ST-TransRec reproduction: the check-in data
//! model (Def. 1-3), vocabulary with word2vec-style negative sampling,
//! the textual context graph `G_vw` (Def. 2), the crossing-city
//! train/test split construction (Sec. 4.1), Table 1 statistics, and the
//! calibrated synthetic dataset generators that stand in for the
//! non-redistributable Foursquare/Yelp dumps (see DESIGN.md).
//!
//! ```
//! use st_data::{synth, CityId, CrossingCitySplit, DatasetStats};
//!
//! let (dataset, _meta) = synth::generate(&synth::SynthConfig::tiny());
//! let target = CityId(1);
//! let split = CrossingCitySplit::build(&dataset, target);
//! let stats = DatasetStats::compute(&dataset, target);
//! assert_eq!(stats.crossing_users, split.test_users.len());
//! ```

#![warn(missing_docs)]

mod context_graph;
mod dataset;
pub(crate) mod io;
pub(crate) mod lexicon;
mod model;
mod split;
mod stats;
pub mod synth;
mod vocab;

pub use context_graph::{ContextBatch, TextualContextGraph};
pub use dataset::Dataset;
pub use io::{read_dataset, write_dataset, IoError};
pub use model::{Checkin, City, CityId, Poi, PoiId, UserId, WordId};
pub use split::CrossingCitySplit;
pub use stats::DatasetStats;
pub use vocab::{NegativeTable, Vocabulary};
