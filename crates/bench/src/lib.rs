//! # st-bench
//!
//! Two binaries over this library:
//!
//! - `paper <table1|table2|table3|table4|table5|fig3_4|fig5_6|fig7_8|fig9|all>`
//!   regenerates the paper's tables and figures: one module per
//!   experiment under [`experiments`], shared dataset loading
//!   ([`runner`]), ASCII rendering in the paper's layout and JSON dumps
//!   under `results/` ([`table`]) so EXPERIMENTS.md numbers are
//!   regenerable and diffable. A bare run uses the scale and epochs the
//!   tracked result was recorded at and rewrites it; `ST_SCALE` (dataset
//!   scale factor in `(0, 1]`) and `ST_EPOCHS` (training epochs) override
//!   them for a smoke run, which prints and writes nothing.
//! - `chaos <serve|fleet|online>` replays a seeded fault schedule twice
//!   and gates on conservation, metrics agreement and bit-identical
//!   counts: [`chaos`] against one server, [`fleet`] against a routed
//!   fleet, [`online_loop`] against the streaming publish loop. Each
//!   schedule lives beside the executor that gives its phases meaning.
//!
//! Nothing here times the system; that is `benchmark/`'s job.

#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod fleet;
pub mod json;
pub mod online_loop;
pub mod runner;
pub mod table;

pub use runner::{dataset_config, eval_config, load, DatasetKind, Loaded, Settings};
pub use table::{render_metric_table, render_rows, save_json};
