//! # st-router
//!
//! The horizontally sharded serving front tier: a reverse proxy that
//! consistent-hashes users across a fleet of `st-serve`
//! replicas, with health-checked membership, per-replica circuit
//! breakers, and a rolling snapshot-rollout driver that upgrades
//! replicas one at a time without ever serving mixed model generations
//! to a single user.
//!
//! The crate holds routing policy only. Its HTTP is `st-serve`'s: the
//! router is a [`st_serve::Handler`] over the same
//! [`st_serve::HttpServer`] loop the replicas run, and every socket to a
//! replica — forward, probe, rollout RPC — is a
//! [`st_serve::HttpClient`].
//!
//! Five layers:
//!
//! - `ring` — a deterministic consistent-hash ring with virtual
//!   nodes; key ownership is a pure function of the configured fleet,
//!   and losing a replica remaps only its own keys (≤ ~1/N).
//! - `breaker` — clock-free per-replica circuit breakers (closed →
//!   open on consecutive failures → half-open probe → closed), the
//!   PR 5 shed/degrade philosophy applied across the fleet: a dark
//!   shard answers `503` + `Retry-After` instead of thrashing caches
//!   by failing over.
//! - [`fleet`] — membership (probe-driven health via each replica's
//!   `/metrics`), routing policy, and the rollout pinning rules that
//!   keep per-user model epochs monotone.
//! - [`rollout`] — the resumable rolling-upgrade state machine:
//!   divert → reload → verify (epoch gauge + snapshot-format one-hot)
//!   → admit; failures pause the rollout at the unverified shard.
//! - `proxy` — the [`Router`] handler and the [`RouterServer`] that
//!   owns its loop: shard choice, per-worker backend connection pools,
//!   breaker accounting, byte-faithful relay (hop-by-hop headers
//!   stripped, `X-Router-Replica` stamped), `st_router_*` metrics
//!   (`metrics`).

#![warn(missing_docs)]

pub(crate) mod breaker;
pub mod fleet;
pub(crate) mod metrics;
pub(crate) mod proxy;
pub(crate) mod ring;
pub mod rollout;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use fleet::{Fleet, FleetConfig, Generation, Replica, RouteError, DOWN_AFTER};
pub use proxy::{Router, RouterConfig, RouterServer};
pub use ring::{HashRing, ReplicaId, RouteKey};
pub use rollout::{RolloutConfig, RolloutDriver, RolloutReport, RolloutStep};
