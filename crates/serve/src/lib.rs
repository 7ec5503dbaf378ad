//! # st-serve
//!
//! The online serving subsystem: turns the batch-trained ST-TransRec
//! checkpoints and the batched/sharded scoring kernels into a live
//! recommendation service — the path a visitor arriving in a new city
//! actually hits.
//!
//! Std-only (no external dependencies, matching the offline build
//! environment). The bottom three modules are the **one HTTP layer of the
//! whole fleet** — `st-router` and `st-online` use them too, and no tier
//! carries a server loop, a client or a parser of its own:
//!
//! - [`http`] — the HTTP/1.1 wire codec in both directions: request and
//!   response readers with hard limits and one strict framing rule,
//!   response writers (including the byte-faithful relay).
//! - `httpd` — the server loop, [`httpd::HttpServer`]: accept thread,
//!   fixed worker pool, keep-alive, force-close shutdown, and the
//!   interval ticker; a tier plugs in as a [`httpd::Handler`].
//! - [`client`] — the keep-alive [`client::HttpClient`] every hop to a
//!   replica goes through: the router's backend pool, probe and rollout
//!   RPCs, the online publisher, the tests and the load generators.
//!
//! [`cli`] is the one strict flag parser of the three server binaries.
//!
//! On top of it, the serving engine:
//!
//! - [`batcher`] — one bounded queue drained by a scorer thread per
//!   CPU the process may run on: a `/recommend` miss is scored on
//!   arrival, never held for companions; batches (bounded, deadlined,
//!   sheddable) are the backlog that builds while every scorer is busy,
//!   and a scorer with nothing queued takes row tiles of a job in flight.
//! - `lru` — an LRU result cache keyed by
//!   `(user, city, k, model_epoch)`; the epoch component makes cache
//!   invalidation on hot-reload free.
//! - [`snapshot`] — checkpoint hot-reload: the model lives behind an
//!   `Arc`-swapped [`snapshot::ServingGeneration`], so `POST
//!   /admin/reload` swaps a new model in without dropping in-flight
//!   requests.
//! - [`server`] — the [`server::Engine`] (routing, cache, reload: a
//!   `Handler`) and the [`server::Server`] that owns its loop;
//!   [`metrics`] is the `/metrics` page (request counts, cache hit
//!   rate, batch-size distribution, latency histograms) and its
//!   scrapers.
//!
//! Large catalogs are served through two-stage retrieval: each model
//! generation carries a `st_transrec_core::RetrievalIndex` (geo-grid +
//! IVF candidate generation, built at snapshot-capture time before the
//! swap lock), so a `/recommend` miss re-ranks a bounded candidate set
//! instead of the whole city. Small catalogs and unindexed cities fall
//! back to the exact sharded scan; the fallback count and candidate-set
//! sizes are exported on `/metrics`.
//!
//! Serving is overload-safe: the batcher queue is bounded (overflow is
//! shed with `429 Too Many Requests`), queued jobs carry deadlines
//! (expired work is dropped with `503` before scoring), and above a
//! configurable queue watermark requests fall back to possibly-stale
//! cached results marked `"degraded": true` instead of queueing.
//! [`fault`] provides the deterministic fault-injection hooks (latency
//! pads, forced scorer errors, queue freezes) that the chaos tests'
//! fault plans, named and seeded, use to prove those behaviors
//! reproducibly.
//!
//! ```no_run
//! use std::sync::Arc;
//! use st_data::{synth, CityId, CrossingCitySplit};
//! use st_transrec_core::{ModelConfig, STTransRec};
//! use st_serve::server::{Engine, ServeConfig, Server};
//!
//! let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
//! let split = CrossingCitySplit::build(&dataset, CityId(1));
//! let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
//! model.fit(&dataset);
//!
//! let config = ServeConfig::default();
//! let frozen = model.snapshot();
//! let bytes = frozen.table_bytes() as u64;
//! let engine = Engine::new_frozen(Arc::new(dataset), frozen, bytes, None, &config);
//! let server = Server::start(engine, &config).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! server.wait();
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod cli;
pub mod client;
pub mod fault;
pub mod http;
pub(crate) mod httpd;
pub(crate) mod lru;
pub mod metrics;
pub mod server;
pub mod snapshot;

pub use batcher::{BatchConfig, BatchReply, BatchRequest, MicroBatcher, SubmitError};
pub use client::{HttpClient, HttpResponse};
pub use fault::FaultInjector;
pub use httpd::{Handler, HttpServer};
pub use lru::LruCache;
pub use metrics::{Metrics, StatusTally};
pub use snapshot::{ModelCell, ReloadOutcome, Reloader, ServingGeneration};
