//! The serving engine: routing, cache, and reload.
//!
//! Four routes:
//!
//! - `GET /recommend?user=U&city=C&k=K` — top-k POIs for a user in a
//!   city, answered from the LRU result cache or the micro-batcher.
//! - `GET /healthz` — liveness plus the current model epoch.
//! - `GET /metrics` — plain-text counters and histograms.
//! - `POST /admin/reload` — checkpoint hot-reload; failure keeps the
//!   old model and reports `500`.
//!
//! The [`Engine`] is a [`Handler`] over the fleet's one server loop
//! ([`crate::httpd`]: worker pool, keep-alive, `400` + close for
//! malformed requests, shutdown). Responses carry `X-Cache: HIT|MISS`
//! (or `STALE` for degraded answers) and `X-Model-Epoch` headers so
//! clients (and the load generator) can see cache and reload behaviour
//! without parsing bodies.
//!
//! Overload handling layers admission → deadline → degradation: a full
//! batcher queue sheds with `429` + `Retry-After`; jobs that age out in
//! the queue get `503 deadline-exceeded`; and above
//! [`ServeConfig::degrade_watermark`] queued jobs, requests whose
//! `(user, city, k)` exists in the epoch-agnostic stale cache are
//! answered from it immediately — marked `"degraded": true` — instead of
//! joining the queue.

use crate::batcher::{BatchConfig, BatchRequest, MicroBatcher, SubmitError};
use crate::fault::FaultInjector;
use crate::http::{Request, Response};
use crate::httpd::{Handler, HttpServer};
use crate::lru::LruCache;
use crate::metrics::{Metrics, StatusTally, LATENCY_BUCKETS_US};
use crate::snapshot::{ModelCell, ReloadOutcome, Reloader};
use st_data::{CityId, Dataset, UserId};
use st_transrec_core::{InferCtx, ModelSnapshot, Recommendation, RetrievalConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache key: a result is only reusable for the exact same question
/// answered by the exact same model generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    user: UserId,
    city: CityId,
    k: usize,
    epoch: u64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Micro-batching window and batch cap.
    pub batch: BatchConfig,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Poll interval for the checkpoint-mtime watcher; `None` disables
    /// the watcher (reloads happen only via `POST /admin/reload`).
    pub watch_interval: Option<Duration>,
    /// Keep-alive idle timeout per connection.
    pub idle_timeout: Duration,
    /// Default `k` when the query omits it.
    pub default_k: usize,
    /// Largest accepted `k`.
    pub max_k: usize,
    /// Queue depth at which requests degrade to stale cached results
    /// instead of queueing (0 disables degradation).
    pub degrade_watermark: usize,
    /// Two-stage retrieval knobs; `None` disables candidate generation
    /// entirely (every request re-ranks the full city catalog). With the
    /// default config, catalogs under `min_catalog` still scan exactly —
    /// the index only engages where it pays.
    pub retrieval: Option<RetrievalConfig>,
    /// Fault-injection hooks for chaos testing; `None` in production.
    pub fault: Option<Arc<FaultInjector>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            batch: BatchConfig::default(),
            cache_capacity: 4096,
            watch_interval: None,
            idle_timeout: Duration::from_secs(5),
            default_k: 10,
            max_k: 1000,
            degrade_watermark: 0,
            retrieval: Some(RetrievalConfig::default()),
            fault: None,
        }
    }
}

/// Key of the epoch-agnostic stale cache backing degraded serving: any
/// generation's answer to the same question is better than queueing
/// behind an overloaded batcher.
type StaleKey = (UserId, CityId, usize);

/// Everything the request handlers share.
pub struct Engine {
    dataset: Arc<Dataset>,
    cell: Arc<ModelCell>,
    reloader: Option<Reloader>,
    cache: Mutex<LruCache<CacheKey, Arc<str>>>,
    /// Last known answer per `(user, city, k)` regardless of epoch,
    /// tagged with the epoch that produced it; only consulted above the
    /// degradation watermark.
    stale: Mutex<LruCache<StaleKey, (u64, Arc<str>)>>,
    metrics: Arc<Metrics>,
    batcher: MicroBatcher,
    default_k: usize,
    max_k: usize,
    degrade_watermark: usize,
}

/// Seconds since the Unix epoch; 0 if the clock reads before 1970.
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Whole microseconds since `started`, saturating.
fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

impl Engine {
    /// Builds an engine from a frozen generation — what
    /// [`Reloader::load_frozen`] returns, served out of the mapped
    /// checkpoint without ever materializing a training model.
    /// `snapshot_bytes` is the container file size reported by the
    /// snapshot gauges; `reloader` is `None` when no checkpoint path is
    /// configured (reload disabled).
    pub fn new_frozen(
        dataset: Arc<Dataset>,
        frozen: ModelSnapshot,
        snapshot_bytes: u64,
        reloader: Option<Reloader>,
        config: &ServeConfig,
    ) -> Arc<Self> {
        let retrieval = config.retrieval.clone().map(|cfg| (dataset.clone(), cfg));
        let cell = Arc::new(ModelCell::from_frozen(
            frozen,
            Some(snapshot_bytes),
            retrieval,
        ));
        let metrics = Arc::new(Metrics::new());
        metrics
            .last_reload_unix
            .store(unix_now(), Ordering::Relaxed);
        let startup = cell.current();
        metrics.stamp_snapshot(startup.format(), startup.snapshot_bytes, startup.mapped);
        drop(startup);
        let batcher = MicroBatcher::start_with_faults(
            cell.clone(),
            metrics.clone(),
            config.batch,
            config.fault.clone(),
        );
        Arc::new(Self {
            dataset,
            cell,
            reloader,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stale: Mutex::new(LruCache::new(config.cache_capacity)),
            metrics,
            batcher,
            default_k: config.default_k,
            max_k: config.max_k,
            degrade_watermark: config.degrade_watermark,
        })
    }

    /// The serving metrics (shared with the batcher).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The model cell (snapshot access for tests and embedding tools).
    pub fn cell(&self) -> &Arc<ModelCell> {
        &self.cell
    }

    /// Hot-reloads the checkpoint, returning the verified outcome: the
    /// new epoch plus the snapshot-format gauges of the generation that
    /// just went live (what `/admin/reload` reports back to rollout
    /// drivers).
    pub fn reload(&self) -> std::io::Result<ReloadOutcome> {
        let reloader = self.reloader.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no checkpoint configured for reload",
            )
        })?;
        let started = Instant::now();
        match reloader.reload_into(&self.cell) {
            Ok(outcome) => {
                self.metrics
                    .last_reload_duration_us
                    .store(elapsed_us(started), Ordering::Relaxed);
                self.metrics.reloads_ok.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .last_reload_unix
                    .store(unix_now(), Ordering::Relaxed);
                self.metrics
                    .stamp_snapshot(outcome.format, outcome.snapshot_bytes, outcome.mapped);
                Ok(outcome)
            }
            Err(e) => {
                self.metrics.reloads_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn route(&self, req: &Request, ctx: &mut InferCtx) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/recommend") => self.handle_recommend(req, ctx),
            ("GET", "/healthz") => {
                self.metrics
                    .healthz_requests
                    .fetch_add(1, Ordering::Relaxed);
                Response::json(
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"model_epoch\":{}}}",
                        self.cell.epoch()
                    ),
                )
            }
            ("GET", "/metrics") => {
                self.metrics
                    .metrics_requests
                    .fetch_add(1, Ordering::Relaxed);
                let cache_len = self.cache.lock().expect("cache poisoned").len();
                Response::text(200, self.metrics.render(self.cell.epoch(), cache_len))
            }
            ("POST", "/admin/reload") => {
                self.metrics.reload_requests.fetch_add(1, Ordering::Relaxed);
                match self.reload() {
                    Ok(outcome) => Response::json(200, outcome.to_json()),
                    Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                        Response::error(409, &e.to_string())
                    }
                    Err(e) => Response::error(500, &format!("reload rejected: {e}")),
                }
            }
            (_, "/recommend") | (_, "/healthz") | (_, "/metrics") | (_, "/admin/reload") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, &format!("no route for {}", req.path)),
        }
    }

    fn handle_recommend(&self, req: &Request, ctx: &mut InferCtx) -> Response {
        self.metrics
            .recommend_requests
            .fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let response = self.recommend_response(req, ctx);
        self.metrics
            .latency_us
            .observe(elapsed_us(started), &LATENCY_BUCKETS_US);
        response
    }

    fn recommend_response(&self, req: &Request, ctx: &mut InferCtx) -> Response {
        // Parse and validate request input; none of it may panic.
        let user = match req.int_param("user") {
            Ok(u) => UserId(u),
            Err(response) => return response,
        };
        let city = match req.int_param("city") {
            Ok(c) => CityId(c),
            Err(response) => return response,
        };
        let k = match req.query_param("k").map(|_| req.int_param("k")) {
            Some(Ok(k)) => k,
            Some(Err(response)) => return response,
            None => self.default_k,
        };
        if k > self.max_k {
            return Response::error(400, &format!("k exceeds maximum {}", self.max_k));
        }
        if user.idx() >= self.dataset.num_users() {
            return Response::error(404, &format!("unknown user {}", user.0));
        }
        if (city.0 as usize) >= self.dataset.cities().len() {
            return Response::error(404, &format!("unknown city {}", city.0));
        }

        // Cache lookup under the current epoch.
        let key = CacheKey {
            user,
            city,
            k,
            epoch: self.cell.epoch(),
        };
        if let Some(body) = self.cache.lock().expect("cache poisoned").get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::json(200, body.as_bytes().to_vec())
                .with_header("X-Cache", "HIT")
                .with_header("X-Model-Epoch", &key.epoch.to_string());
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Degradation: above the watermark, a possibly-stale cached
        // answer beats queueing behind an overloaded batcher. Fresh-epoch
        // hits never reach here (caught above), so anything served from
        // the stale cache is explicitly marked degraded.
        if self.degrade_watermark > 0 && self.batcher.queue_depth() >= self.degrade_watermark {
            let stale = self
                .stale
                .lock()
                .expect("stale cache poisoned")
                .get(&(user, city, k))
                .cloned();
            if let Some((epoch, body)) = stale {
                self.metrics.degraded_total.fetch_add(1, Ordering::Relaxed);
                // Splice the marker into the cached body: `{"degraded":
                // true,` + the body minus its opening brace.
                let mut degraded = String::with_capacity(body.len() + 18);
                degraded.push_str("{\"degraded\":true,");
                degraded.push_str(&body[1..]);
                return Response::json(200, degraded.into_bytes())
                    .with_header("X-Cache", "STALE")
                    .with_header("X-Degraded", "true")
                    .with_header("X-Model-Epoch", &epoch.to_string());
            }
        }

        // Miss: generate candidates (two-stage retrieval when this
        // generation carries an index, exact full catalog otherwise),
        // then score through the micro-batcher.
        let generation = self.cell.current();
        let retrieved = generation
            .retrieval
            .as_deref()
            .and_then(|index| index.candidates(&generation.frozen, ctx, &self.dataset, user, city));
        let candidates = match retrieved {
            Some(c) => Arc::new(c.pois),
            None => {
                // Degraded-to-exact serving, made observable: either no
                // index covers this city or retrieval is disabled.
                self.metrics
                    .retrieval_fallback_total
                    .fetch_add(1, Ordering::Relaxed);
                Arc::new(self.dataset.pois_in_city(city).to_vec())
            }
        };
        self.metrics
            .candidate_size
            .observe(candidates.len() as u64, &crate::metrics::CANDIDATE_BUCKETS);
        let reply = match self.batcher.submit(BatchRequest {
            user,
            candidates,
            k,
        }) {
            Ok(reply) => reply,
            Err(SubmitError::QueueFull) => {
                return Response::error(429, "queue full, retry later")
                    .with_header("Retry-After", "1");
            }
            Err(SubmitError::DeadlineExceeded) => {
                // Retry-After marks this as a deliberate overload shed
                // (like the 429 above): the server is alive, the job
                // just aged out. The router relies on this marker to
                // keep deliberate sheds out of its circuit breakers.
                return Response::error(503, "deadline-exceeded").with_header("Retry-After", "1");
            }
            Err(SubmitError::ShuttingDown) => {
                return Response::error(503, "server shutting down");
            }
            Err(SubmitError::ScorerFailed) => {
                return Response::error(500, "scorer failed");
            }
            Err(SubmitError::InvalidRequest) => {
                // The snapshot the batch scored with could not address
                // this request's ids (e.g. a model generation narrower
                // than the dataset): client error, not a worker panic.
                return Response::error(400, "request not scorable by the serving model");
            }
        };
        let body: Arc<str> = render_recommend_body(user, city, k, reply.epoch, &reply.recs).into();
        self.cache.lock().expect("cache poisoned").insert(
            CacheKey {
                user,
                city,
                k,
                // Key by the epoch that actually scored the batch: a
                // reload racing this request must not poison the new
                // generation's cache with old-model results.
                epoch: reply.epoch,
            },
            body.clone(),
        );
        self.stale
            .lock()
            .expect("stale cache poisoned")
            .insert((user, city, k), (reply.epoch, body.clone()));
        Response::json(200, body.as_bytes().to_vec())
            .with_header("X-Cache", "MISS")
            .with_header("X-Model-Epoch", &reply.epoch.to_string())
    }
}

/// Renders the `/recommend` response body. Scores print via Rust's
/// shortest-roundtrip float formatting, so parsing them back yields the
/// bit-identical `f32` the scorer produced.
pub fn render_recommend_body(
    user: UserId,
    city: CityId,
    k: usize,
    epoch: u64,
    recs: &[Recommendation],
) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 + recs.len() * 32);
    let _ = write!(
        out,
        "{{\"user\":{},\"city\":{},\"k\":{k},\"model_epoch\":{epoch},\"recommendations\":[",
        user.0, city.0
    );
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"poi\":{},\"score\":{}}}", r.poi.0, r.score);
    }
    out.push_str("]}");
    out
}

impl Handler for Engine {
    /// The worker's scratch for probing the retrieval index on a miss.
    type Worker = InferCtx;

    fn handle<W: Write>(
        &self,
        req: &Request,
        ctx: &mut InferCtx,
        out: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let response = self.route(req, ctx);
        self.metrics.responses.record(response.status);
        response.write_to(out, keep_alive)
    }

    fn responses(&self) -> &StatusTally {
        &self.metrics.responses
    }
}

/// A running server: the shared [`HttpServer`] loop over an [`Engine`],
/// plus the checkpoint watcher. Dropping it (or calling
/// [`Server::shutdown`]) stops the listener, workers, batcher, and
/// watcher.
pub struct Server {
    http: HttpServer<Engine>,
}

impl Server {
    /// Binds and starts serving `engine` under `config`.
    pub fn start(engine: Arc<Engine>, config: &ServeConfig) -> std::io::Result<Server> {
        let mut http = HttpServer::start(
            "st-serve",
            engine.clone(),
            &config.addr,
            config.workers,
            config.idle_timeout,
        )?;
        if let (Some(interval), true) = (config.watch_interval, engine.reloader.is_some()) {
            http.every("st-serve-watcher", interval, move || {
                if engine
                    .reloader
                    .as_ref()
                    .is_some_and(Reloader::mtime_changed)
                {
                    // A broken half-written checkpoint is rejected; the
                    // next tick retries.
                    let _ = engine.reload();
                }
            });
        }
        Ok(Server { http })
    }

    /// The bound address (use this to learn an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<Engine> {
        self.http.handler()
    }

    /// Blocks the calling thread until the server stops.
    pub fn wait(self) {
        self.http.wait()
    }

    /// Stops accepting, drains workers, and joins every thread.
    pub fn shutdown(self) {
        self.http.shutdown()
    }
}
