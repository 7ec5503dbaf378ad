//! # st-online
//!
//! Closes the train→serve loop for ST-TransRec: a deterministic online
//! learning pipeline that ingests a seeded check-in event stream,
//! trains the model incrementally with row-sparse gradient steps,
//! shadow-evaluates each candidate snapshot against the currently
//! serving model on held-out recent events, and publishes accepted
//! candidates to a running `st-serve` instance via an atomic checkpoint
//! write + hot reload. See DESIGN.md §14.
//!
//! The subsystem is built from the pieces the rest of the workspace
//! already proves out:
//!
//! - `IncrementalTrainer` — streamed events → positives + unvisited
//!   same-city negatives → one sparse/lazy optimizer step per
//!   micro-batch (`st-transrec-core`).
//! - `ShadowWindow` + `gate` — held-out events the trainer never
//!   sees, ranked by the paper record's evaluator
//!   ([`st_eval::evaluate_events`]); a candidate that regresses hit
//!   rate beyond tolerance is rejected before any byte is written.
//! - [`Publisher`] — `st-tensor`'s atomic temp-file + rename checkpoint
//!   write, then `POST /admin/reload`, then `/metrics` verification of
//!   what actually serves.
//! - [`FaultPlan`] — seeded publish-path chaos (regressing candidates,
//!   crashes mid-write) so every run exercises the defenses.
//! - `run_online_loop` / [`run_embedded`] — the cycle orchestration,
//!   reproducible end to end under a fixed seed. [`OnlineLoopConfig`]
//!   holds what a caller chooses (seed, warm-up epochs, fault plan);
//!   batch sizes, negatives and the gate's settings are constants.

#![warn(missing_docs)]

mod fault;
mod pipeline;
mod publisher;
mod shadow;
mod trainer;

pub use fault::{FaultPlan, PublishFault};
pub use pipeline::{run_embedded, CycleOutcome, CycleRecord, OnlineLoopConfig, OnlineReport};
pub use publisher::{PublishOutcome, Publisher};
