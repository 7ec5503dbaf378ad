//! The router tier's routing policy and relay.
//!
//! [`Router`] is a [`Handler`] over the fleet's one server loop
//! ([`st_serve::httpd`]); [`RouterServer`] owns that loop plus the health
//! probe ticker. `GET /recommend` is consistent-hashed onto the replica
//! fleet and relayed *byte-faithfully* ([`HttpResponse::relay_to`]): the
//! backend's status line, headers, and body are forwarded verbatim minus
//! hop-by-hop headers, plus an `X-Router-Replica` header naming the
//! shard that answered. Backend connections ([`HttpClient`]) are pooled
//! per worker thread and kept alive; a stale pooled connection is
//! silently replaced (one retry on a fresh socket) so backend idle
//! timeouts never surface as client errors — only a fresh-connection
//! failure counts against the shard's breaker.
//!
//! The router's own routes:
//!
//! - `GET /healthz` — fleet summary (replicas up / total, rollout flag).
//! - `GET /metrics` — `st_router_*` exposition.
//! - `POST /admin/probe` — one synchronous health sweep of the fleet.
//! - `POST /admin/reload` — runs the rolling rollout across the fleet
//!   (`?format=f32|f16|int8` pins the expected snapshot format); the
//!   fleet acts as one logical server behind this endpoint.

use crate::fleet::{Fleet, RouteError};
use crate::metrics::RouterMetrics;
use crate::ring::{PartitionMode, ReplicaId, RouteKey};
use crate::rollout::{RolloutConfig, RolloutDriver};
use st_serve::http::{HttpResponse, Request, Response};
use st_serve::{Handler, HttpClient, HttpServer, StatusTally};
use st_tensor::StorageEncoding;
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads (each holds its own backend connection pool).
    pub workers: usize,
    /// Keep-alive idle timeout on client connections.
    pub idle_timeout: Duration,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Backend read timeout — generous, because an overloaded replica
    /// answers via its own deadline machinery (503 deadline-exceeded)
    /// and the router must relay that rather than racing it.
    pub read_timeout: Duration,
    /// `Retry-After` value on shed responses, seconds.
    pub retry_after_secs: u32,
    /// Background health-probe interval; `None` disables the probe
    /// thread (tests and the chaos harness drive probes explicitly).
    pub probe_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            idle_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            probe_interval: None,
        }
    }
}

/// Per-worker backend connection pool, keyed by replica index. The
/// stored address detects rejoin-at-new-port and drops the old socket.
pub type ConnPool = HashMap<usize, (SocketAddr, HttpClient)>;

/// The routing engine shared by all router workers.
pub struct Router {
    /// Fleet membership + routing state.
    pub fleet: Arc<Fleet>,
    /// Router-tier counters.
    pub metrics: Arc<RouterMetrics>,
    config: RouterConfig,
    /// Serializes rolling rollouts; `try_lock` failure means one is
    /// already running and the request gets `409`.
    rollout_lock: Mutex<()>,
}

impl Router {
    /// A router over `fleet` under `config`.
    pub fn new(fleet: Arc<Fleet>, config: RouterConfig) -> Arc<Self> {
        Arc::new(Self {
            fleet,
            metrics: Arc::new(RouterMetrics::new()),
            config,
            rollout_lock: Mutex::new(()),
        })
    }

    /// The router config.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    fn shed(&self, status: u16, message: &str) -> Response {
        Response::error(status, message)
            .with_header("Retry-After", &self.config.retry_after_secs.to_string())
    }

    /// Answers the router's own routes (`/recommend` is
    /// [`Router::proxy`]'s).
    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"replicas\":{},\"healthy\":{},\"rollout_active\":{}}}",
                    self.fleet.len(),
                    self.fleet.healthy_count(),
                    self.fleet.rollout_active()
                ),
            ),
            ("GET", "/metrics") => Response::text(200, self.metrics.render(&self.fleet)),
            ("POST", "/admin/probe") => {
                let healthy = self.fleet.probe_all();
                Response::json(
                    200,
                    format!(
                        "{{\"healthy\":{healthy},\"replicas\":{}}}",
                        self.fleet.len()
                    ),
                )
            }
            ("POST", "/admin/reload") => self.handle_rollout(req),
            (_, "/recommend")
            | (_, "/healthz")
            | (_, "/metrics")
            | (_, "/admin/probe")
            | (_, "/admin/reload") => Response::error(405, "method not allowed"),
            _ => Response::error(404, &format!("no route for {}", req.path)),
        }
    }

    /// Extracts the routing key per the fleet's partition mode. The
    /// router validates only the key parameter; everything else is the
    /// backend's to judge (and relay back).
    fn route_key(&self, req: &Request) -> Result<RouteKey, Response> {
        match self.fleet.config.partition {
            PartitionMode::ByUser => req.int_param("user").map(RouteKey::User),
            PartitionMode::ByCity => req.int_param("city").map(RouteKey::City),
        }
    }

    /// Routes one `/recommend` to its shard: the replica's reply to relay
    /// and who gave it, or the router's own answer when none could.
    fn proxy(
        &self,
        req: &Request,
        pool: &mut ConnPool,
    ) -> Result<(HttpResponse, ReplicaId), Response> {
        self.metrics
            .recommend_requests
            .fetch_add(1, Ordering::Relaxed);
        let key = self.route_key(req)?;
        let decision = self.fleet.route(key, Instant::now()).map_err(|e| {
            let (counter, why) = match e {
                RouteError::NoReplica => (
                    &self.metrics.unroutable_total,
                    "no healthy replica for shard".to_string(),
                ),
                RouteError::ShardDark(id) => (
                    &self.metrics.dark_total,
                    format!("shard {id} dark: circuit open, retry later"),
                ),
                RouteError::EpochPinned => (
                    &self.metrics.pin_total,
                    "shard behind this user's model generation, retry later".to_string(),
                ),
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.shed(503, &why)
        })?;
        let replica = &self.fleet.replicas()[decision.replica];
        let id = replica.id;
        match self.forward(pool, decision.replica, replica.addr(), &req.target) {
            Ok(raw) => {
                replica.forwarded_total.fetch_add(1, Ordering::Relaxed);
                self.metrics.forwarded_total.fetch_add(1, Ordering::Relaxed);
                if decision.remapped {
                    self.metrics.remapped_total.fetch_add(1, Ordering::Relaxed);
                }
                // Backend 5xx counts against the breaker (the shard is
                // failing); 429/4xx are the backend's own flow control.
                // A 503 carrying Retry-After is a *deliberate* shed
                // (st-serve's deadline machinery protecting itself, the
                // same contract as its 429): the replica is alive and
                // answering, so relay it without darkening the shard —
                // three overload sheds must not convert a transient
                // spike into a cooldown-long outage.
                let deliberate_shed = raw.status == 503 && raw.header("retry-after").is_some();
                if raw.status >= 500 && !deliberate_shed {
                    replica.breaker.record_failure(Instant::now());
                } else {
                    replica.breaker.record_success();
                }
                if raw.status == 200 {
                    if let Some(epoch) = raw.header("x-model-epoch").and_then(|v| v.parse().ok()) {
                        replica.last_epoch.store(epoch, Ordering::Release);
                    }
                    self.fleet.note_served(key, id);
                }
                Ok((raw, id))
            }
            Err(_) => {
                self.metrics
                    .forward_errors_total
                    .fetch_add(1, Ordering::Relaxed);
                replica.breaker.record_failure(Instant::now());
                Err(self.shed(503, &format!("shard {id} unreachable, retry later")))
            }
        }
    }

    /// Forwards one request, transparently replacing a stale pooled
    /// connection. Only a fresh-connection failure propagates.
    fn forward(
        &self,
        pool: &mut ConnPool,
        idx: usize,
        addr: SocketAddr,
        target: &str,
    ) -> std::io::Result<HttpResponse> {
        if let Some((pooled_addr, conn)) = pool.get_mut(&idx) {
            if *pooled_addr == addr {
                match conn.get(target) {
                    Ok(raw) => return Ok(raw),
                    Err(_) => {
                        // Stale keep-alive (backend idled it out): retry
                        // once on a fresh socket before judging health.
                        self.metrics
                            .conn_retries_total
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            pool.remove(&idx);
        }
        let mut conn =
            HttpClient::connect_with(addr, self.config.connect_timeout, self.config.read_timeout)?;
        let raw = conn.get(target)?;
        pool.insert(idx, (addr, conn));
        Ok(raw)
    }

    fn handle_rollout(&self, req: &Request) -> Response {
        let Ok(_guard) = self.rollout_lock.try_lock() else {
            return Response::error(409, "rollout already in progress");
        };
        let expect_format = match req.query_param("format") {
            None => None,
            Some(s) => match s.parse::<StorageEncoding>() {
                Ok(f) => Some(f),
                Err(_) => return Response::error(400, &format!("unknown snapshot format {s:?}")),
            },
        };
        // The driver is per-request, but the rollout's position lives on
        // the fleet: when one is already active this POST *resumes* it
        // at the blocking shard, preserving pins and generation labels.
        if self.fleet.rollout_active() {
            self.metrics
                .rollouts_resumed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics
                .rollouts_started
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut driver = RolloutDriver::new(
            &self.fleet,
            RolloutConfig {
                expect_format,
                rpc_timeout: Some(self.config.read_timeout),
            },
        );
        let report = driver.run();
        if report.completed {
            self.metrics
                .rollouts_completed
                .fetch_add(1, Ordering::Relaxed);
            Response::json(200, report.to_json())
        } else {
            self.metrics.rollouts_paused.fetch_add(1, Ordering::Relaxed);
            // The rollout holds position (diversion stays active);
            // re-POST once the blocking shard rejoins. 503 tells the
            // operator the fleet is not yet on the new snapshot.
            Response::json(503, report.to_json())
                .with_header("Retry-After", &self.config.retry_after_secs.to_string())
        }
    }
}

impl Handler for Router {
    /// The backend pool lives as long as the worker: keep-alive reuse
    /// across client connections.
    type Worker = ConnPool;

    fn handle<W: Write>(
        &self,
        req: &Request,
        pool: &mut ConnPool,
        out: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        self.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let own = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/recommend") => match self.proxy(req, pool) {
                Ok((raw, id)) => {
                    self.metrics.responses.record(raw.status);
                    return raw.relay_to(out, format_args!("X-Router-Replica: {id}"), keep_alive);
                }
                Err(own) => own,
            },
            _ => self.route(req),
        };
        self.metrics.responses.record(own.status);
        own.write_to(out, keep_alive)
    }

    fn responses(&self) -> &StatusTally {
        &self.metrics.responses
    }
}

/// A running router: the shared [`HttpServer`] loop over a [`Router`],
/// plus the health probe. Dropping it (or [`RouterServer::shutdown`])
/// stops the listener, workers, and probe thread.
pub struct RouterServer {
    http: HttpServer<Router>,
}

impl RouterServer {
    /// Binds and starts routing for `router`.
    pub fn start(router: Arc<Router>) -> std::io::Result<RouterServer> {
        let config = router.config();
        let mut http = HttpServer::start(
            "st-router",
            router.clone(),
            &config.addr,
            config.workers,
            config.idle_timeout,
        )?;
        if let Some(interval) = config.probe_interval {
            // The first sweep runs at once, so the fleet starts with
            // real health/epoch data.
            http.every("st-router-probe", interval, move || {
                router.fleet.probe_all();
            });
        }
        Ok(RouterServer { http })
    }

    /// The bound address (use this to learn an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The routing engine behind this server.
    pub fn router(&self) -> &Arc<Router> {
        self.http.handler()
    }

    /// Blocks the calling thread until the router stops.
    pub fn wait(self) {
        self.http.wait()
    }

    /// Stops accepting, drains workers, and joins every thread.
    pub fn shutdown(self) {
        self.http.shutdown()
    }
}
