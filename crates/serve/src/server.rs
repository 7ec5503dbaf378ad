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
//! (`crate::httpd`: worker pool, keep-alive, `400` + close for
//! malformed requests, shutdown). Responses carry `X-Cache: HIT|MISS`
//! (or `STALE` for degraded answers) and `X-Model-Epoch` headers so
//! clients (and the load generator) can see cache and reload behaviour
//! without parsing bodies.
//!
//! Overload handling layers admission → deadline → degradation: a full
//! batcher queue sheds with `429` + `Retry-After`; jobs that age out in
//! the queue get `503 deadline-exceeded`; and above
//! [`ServeConfig::degrade_watermark`] queued jobs, requests whose
//! `(user, city, k)` the cache holds from an older generation are
//! answered from it immediately — marked `"degraded": true` — instead of
//! joining the queue.

use crate::batcher::{recover, BatchConfig, BatchRequest, MicroBatcher, SubmitError};
use crate::fault::FaultInjector;
use crate::http::{Request, Response};
use crate::httpd::{Handler, HttpServer};
use crate::lru::LruCache;
use crate::metrics::{micros, Metrics, Stage, StatusTally};
use crate::snapshot::{ModelCell, ReloadOutcome, Reloader};
use st_data::{CityId, Dataset, UserId};
use st_transrec_core::{InferCtx, ModelSnapshot, Recommendation, RetrievalConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads. Each serves one connection, kept alive until
    /// the idle timeout, and every st-router worker pools one connection
    /// to each replica: a replica needs more workers than its router,
    /// and the default leaves room beyond the router's for the probe,
    /// the rollout driver and direct clients.
    pub workers: usize,
    /// Batcher queue bound, batch cap and queued-job deadline.
    pub batch: BatchConfig,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
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
            workers: 12,
            batch: BatchConfig::default(),
            cache_capacity: 4096,
            degrade_watermark: 0,
            retrieval: Some(RetrievalConfig::default()),
            fault: None,
        }
    }
}

/// `k` when the query omits it.
const DEFAULT_K: usize = 10;
/// Largest accepted `k`.
const MAX_K: usize = 1000;

/// The question a `/recommend` request asks.
type CacheKey = (UserId, CityId, usize);

/// Everything the request handlers share.
pub struct Engine {
    dataset: Arc<Dataset>,
    cell: Arc<ModelCell>,
    reloader: Option<Reloader>,
    /// Last answer per question, tagged with the epoch that scored it:
    /// a `HIT` when that is the serving epoch, otherwise only good for a
    /// degraded `STALE` answer above the watermark. A lock holder never
    /// leaves the map half-updated, so a poisoned lock is recovered.
    cache: Mutex<LruCache<CacheKey, (u64, Arc<str>)>>,
    metrics: Arc<Metrics>,
    batcher: MicroBatcher,
    degrade_watermark: usize,
}

/// Seconds since the Unix epoch; 0 if the clock reads before 1970.
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
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
            metrics,
            batcher,
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
                    .store(micros(started.elapsed()), Ordering::Relaxed);
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

    /// Answers `req`, whose handling began at `started`.
    fn route(&self, req: &Request, ctx: &mut InferCtx, started: Instant) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/recommend") => self.handle_recommend(req, ctx, started),
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
                let cache_len = recover(self.cache.lock()).len();
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

    fn handle_recommend(&self, req: &Request, ctx: &mut InferCtx, started: Instant) -> Response {
        self.metrics
            .recommend_requests
            .fetch_add(1, Ordering::Relaxed);
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
            None => DEFAULT_K,
        };
        if k > MAX_K {
            return Response::error(400, &format!("k exceeds maximum {MAX_K}"));
        }
        if user.idx() >= self.dataset.num_users() {
            return Response::error(404, &format!("unknown user {}", user.0));
        }
        if (city.0 as usize) >= self.dataset.cities().len() {
            return Response::error(404, &format!("unknown city {}", city.0));
        }

        // Cache lookup: an answer scored by the serving epoch is a hit.
        // The cache stage is timed from the request's start, checks
        // included: they cost less than another clock read would.
        let key = (user, city, k);
        let epoch = self.cell.epoch();
        let stale = match recover(self.cache.lock()).get(&key) {
            Some((scored, body)) if *scored == epoch => {
                self.metrics.stage(Stage::Cache).observe_since(started);
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Response::json(200, body.as_bytes().to_vec())
                    .with_header("X-Cache", "HIT")
                    .with_header("X-Model-Epoch", &epoch.to_string());
            }
            other => {
                self.metrics.stage(Stage::Cache).observe_since(started);
                other.cloned()
            }
        };
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Degradation: above the watermark, an older generation's answer
        // beats queueing behind an overloaded batcher. Fresh-epoch hits
        // never reach here (caught above), so anything served from it is
        // explicitly marked degraded.
        if self.degrade_watermark > 0 && self.batcher.queue_depth() >= self.degrade_watermark {
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
        let retrieving = Instant::now();
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
            .stage(Stage::Retrieval)
            .observe_since(retrieving);
        self.metrics.candidate_size.observe(candidates.len() as u64);
        let reply = match self.batcher.submit(BatchRequest {
            user,
            candidates,
            k,
        }) {
            Ok(reply) => reply,
            Err(SubmitError::QueueFull) => {
                return Response::shed(429, "queue full, retry later");
            }
            Err(SubmitError::DeadlineExceeded) => {
                // A shed like the 429 above: the server is alive, the
                // job just aged out.
                return Response::shed(503, "deadline-exceeded");
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
        let rendering = Instant::now();
        let body: Arc<str> = render_recommend_body(user, city, k, reply.epoch, &reply.recs).into();
        self.metrics.stage(Stage::Render).observe_since(rendering);
        // Tag with the epoch that actually scored the batch: a reload
        // racing this request must not pass old-model results off as the
        // new generation's hits.
        recover(self.cache.lock()).insert(key, (reply.epoch, body.clone()));
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
        // One clock read before routing and one after it time a
        // `/recommend`'s latency, and the second starts its write stage.
        let started = Instant::now();
        let response = self.route(req, ctx, started);
        self.metrics.responses.record(response.status);
        if (req.method.as_str(), req.path.as_str()) != ("GET", "/recommend") {
            return response.write_to(out, keep_alive);
        }
        let routed = Instant::now();
        self.metrics.latency_us.observe(micros(routed - started));
        let written = response.write_to(out, keep_alive);
        self.metrics.stage(Stage::Write).observe_since(routed);
        written
    }

    fn responses(&self) -> &StatusTally {
        &self.metrics.responses
    }
}

/// A running server: the shared [`HttpServer`] loop over an [`Engine`].
/// Dropping it (or calling [`Server::shutdown`]) stops the listener,
/// workers and batcher.
pub struct Server {
    http: HttpServer<Engine>,
}

impl Server {
    /// Binds and starts serving `engine` under `config`.
    pub fn start(engine: Arc<Engine>, config: &ServeConfig) -> std::io::Result<Server> {
        let http = HttpServer::start("st-serve", engine, &config.addr, config.workers)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;
    use st_transrec_core::{ModelConfig, STTransRec};

    fn get(engine: &Engine, target: &str) -> Response {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let req = read_request(&mut raw.as_bytes())
            .expect("well-formed")
            .expect("one request");
        engine.route(&req, &mut InferCtx::new(), Instant::now())
    }

    fn header<'a>(response: &'a Response, name: &str) -> Option<&'a str> {
        let found = response.extra_headers.iter().find(|(n, _)| n == name);
        found.map(|(_, v)| v.as_str())
    }

    /// A miss passes every stage once; a hit only looks up the cache and
    /// writes. Other routes time nothing.
    #[test]
    fn a_miss_times_every_stage_and_a_hit_only_lookup_and_write() {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        let model = STTransRec::new(&d, &split, ModelConfig::test_small());
        let engine = Engine::new_frozen(
            Arc::new(d),
            model.snapshot(),
            0,
            None,
            &ServeConfig::default(),
        );
        let target = format!("/recommend?user=0&city={}&k=5", cfg.target_city);
        for path in [target.as_str(), target.as_str(), "/healthz"] {
            let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
            let req = read_request(&mut raw.as_bytes())
                .expect("well-formed")
                .expect("one request");
            let mut wire = Vec::new();
            engine
                .handle(&req, &mut InferCtx::new(), &mut wire, true)
                .expect("written");
        }
        let counts = Stage::ALL.map(|stage| engine.metrics().stage(stage).count());
        // cache, retrieval, queue, score, topk, render, write
        assert_eq!(counts, [2, 1, 1, 1, 1, 1, 2]);
    }

    /// A request thread that panics holding the cache lock must not take
    /// the cache — or the server — down with it.
    #[test]
    fn a_poisoned_cache_lock_still_serves_misses_and_hits() {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        let model = STTransRec::new(&d, &split, ModelConfig::test_small());
        let engine = Engine::new_frozen(
            Arc::new(d),
            model.snapshot(),
            0,
            None,
            &ServeConfig::default(),
        );
        let holder = engine.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = holder.cache.lock();
            panic!("request thread dies holding the cache lock");
        })
        .join();
        assert!(panicked.is_err() && engine.cache.is_poisoned());

        let target = format!("/recommend?user=0&city={}&k=5", cfg.target_city);
        let miss = get(&engine, &target);
        assert_eq!((miss.status, header(&miss, "X-Cache")), (200, Some("MISS")));
        let hit = get(&engine, &target);
        assert_eq!((hit.status, header(&hit, "X-Cache")), (200, Some("HIT")));
        assert_eq!(hit.body, miss.body);
        let page = String::from_utf8(get(&engine, "/metrics").body).expect("utf-8");
        assert!(
            page.lines().any(|l| l == "st_serve_cache_entries 1"),
            "{page}"
        );
    }
}
