//! # st-bench
//!
//! The paper record: `paper <table1|table2|table3|table4|table5|fig3_4|
//! fig5_6|fig7_8|fig9|all>` regenerates the paper's tables and figures,
//! and `paper summary` prints the table of shape-claims from the recorded
//! files ([`summary`]).
//! Tables 1-3 each have a module under [`experiments`], and every metric
//! grid (Figs. 3-9, Tables 4-5) is rows of data run by the one
//! [`experiments::grid`] runner. Shared dataset loading (`runner`), ASCII
//! rendering in the paper's layout and JSON dumps under `results/`
//! ([`table`]) keep EXPERIMENTS.md numbers regenerable and diffable. A
//! bare run uses the scale and epochs the tracked result was recorded at
//! and rewrites it; `ST_SCALE` (dataset scale factor in `(0, 1]`) and
//! `ST_EPOCHS` (training epochs) override them for a smoke run, which
//! prints and writes nothing.
//!
//! The serving tiers' seeded fault replays are tests of their own crates
//! (`st-serve`'s and `st-router`'s `tests/`, `st-online`'s `e2e`).
//! Nothing here times the system; that is `benchmark/`'s job.

#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub(crate) mod runner;
pub mod summary;
pub mod table;

pub use runner::{load, DatasetKind, Loaded, Settings};
pub use table::{render_metric_table, render_rows, save_json};
