//! Chaos end-to-end tests: a real server on loopback TCP driven through
//! fault-injection scenarios — burst over capacity, deadline expiry,
//! hot-reload mid-burst, degraded serving, and a forced scorer failure —
//! first one scripted scenario per test, then a seeded [`FaultPlan`]
//! that mixes them all and is replayed twice.
//!
//! Every scenario asserts the **conservation invariant**: each submitted
//! request reaches exactly one terminal outcome (served, shed `429`,
//! expired `503`, degraded `200`, or failed `500`) — no request is lost,
//! no client hangs, and the outcome counts add up to the submissions.
//!
//! Determinism comes from the [`FaultInjector`] freeze gate, not from
//! racing timers: the gate holds the batcher off the queue, the driver
//! waits for exact queue depths via metrics, and only then injects the
//! next event. The same script therefore yields the same outcome counts
//! on every run, loaded machine or not.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{synth, CityId, CrossingCitySplit, Dataset, UserId};
use st_serve::client::HttpClient;
use st_serve::server::{render_recommend_body, Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::{BatchConfig, FaultInjector};
use st_transrec_core::{recommend_top_k, ModelConfig, STTransRec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh scratch directory per test (std-only: no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-serve-chaos-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Fixture {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    oracle: STTransRec,
}

fn fixture(tag: &str) -> Fixture {
    let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
    let mut oracle = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    oracle.train_epoch(&dataset);
    let ckpt = scratch_dir(tag).join("model.bin");
    st_tensor::save_params_atomic(oracle.params(), &ckpt).expect("save ckpt");
    Fixture {
        dataset,
        split,
        ckpt,
        oracle,
    }
}

fn start_server(fx: &Fixture, config: &ServeConfig) -> Server {
    let reloader = Reloader::new(
        fx.dataset.clone(),
        fx.split.clone(),
        ModelConfig::test_small(),
        &fx.ckpt,
    );
    let (frozen, bytes) = reloader.load_frozen().expect("load ckpt");
    let engine = Engine::new_frozen(fx.dataset.clone(), frozen, bytes, Some(reloader), config);
    Server::start(engine, config).expect("start server")
}

fn expected_body(fx: &Fixture, user: u32, k: usize, epoch: u64) -> String {
    let recs = recommend_top_k(&fx.oracle, &fx.dataset, UserId(user), CityId(1), k, &[]);
    render_recommend_body(UserId(user), CityId(1), k, epoch, &recs)
}

/// Overload-tuned config: enough HTTP workers that every parked client
/// holds a worker without starving the driver's own connections.
fn chaos_config(injector: &Arc<FaultInjector>, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: queue_capacity + 8,
        batch: BatchConfig {
            queue_capacity,
            ..BatchConfig::default()
        },
        fault: Some(injector.clone()),
        ..ServeConfig::default()
    }
}

/// Blocks until the batcher queue holds exactly `depth` jobs. With the
/// freeze gate closed the depth can only grow toward `depth`, so this is
/// a deterministic rendezvous, not a race.
fn wait_for_depth(server: &Server, depth: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = server
            .engine()
            .metrics()
            .queue_depth
            .load(Ordering::Relaxed);
        if now == depth {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "queue depth stuck at {now}, wanted {depth}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Parks `combos` requests in the (frozen) queue from background
/// threads, waits for all of them to enqueue, runs `mid` while they are
/// parked, and returns every parked request's `(status, body)`.
fn with_parked_requests(
    server: &Server,
    combos: &[(u32, usize)],
    mid: impl FnOnce(),
) -> Vec<(u16, String)> {
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = combos
            .iter()
            .map(|&(user, k)| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let resp = client
                        .get(&format!("/recommend?user={user}&city=1&k={k}"))
                        .expect("parked request resolves");
                    (resp.status, resp.body)
                })
            })
            .collect();
        wait_for_depth(server, combos.len() as u64);
        mid();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn burst_over_capacity_sheds_with_429() {
    let fx = fixture("burst");
    let injector = Arc::new(FaultInjector::new(42));
    let server = start_server(&fx, &chaos_config(&injector, 4));
    let addr = server.local_addr();

    let parked: Vec<(u32, usize)> = (0..4u32).map(|u| (u, 3)).collect();
    let excess = 3u32;
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Queue is exactly full and frozen: every extra request must be
        // shed synchronously with 429 + Retry-After, never queued.
        let mut client = HttpClient::connect(addr).expect("connect");
        for i in 0..excess {
            let user = 10 + i;
            let resp = client
                .get(&format!("/recommend?user={user}&city=1&k=3"))
                .expect("shed request resolves");
            assert_eq!(resp.status, 429, "body: {}", resp.body);
            assert_eq!(resp.header("retry-after"), Some("1"));
            assert!(resp.body.contains("queue full"), "{}", resp.body);
        }
        injector.thaw();
    });

    // Thawed: every parked request is served exactly, nothing lost.
    let mut served = 0;
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert_eq!(*body, expected_body(&fx, i as u32, 3, 1));
        served += 1;
    }

    // Conservation: submitted == served + shed, and metrics agree.
    let metrics = server.engine().metrics();
    assert_eq!(served + excess as usize, parked.len() + excess as usize);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), excess as u64);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);

    // The shed counter is on /metrics for operators.
    let mut client = HttpClient::connect(addr).expect("connect");
    let scrape = client.get("/metrics").expect("metrics");
    assert!(
        scrape.body.contains("st_serve_shed_total 3"),
        "{}",
        scrape.body
    );
    assert!(
        scrape.body.contains("st_serve_queue_depth 0"),
        "{}",
        scrape.body
    );

    server.shutdown();
}

#[test]
fn deadline_expiry_returns_503() {
    let fx = fixture("deadline");
    let injector = Arc::new(FaultInjector::new(7));
    let mut config = chaos_config(&injector, 8);
    config.batch.deadline = Duration::from_millis(100);
    let server = start_server(&fx, &config);

    let parked: Vec<(u32, usize)> = (0..3u32).map(|u| (u, 4)).collect();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Hold the freeze well past the deadline; only then may the
        // batcher see (and expire) the queued jobs.
        std::thread::sleep(Duration::from_millis(400));
        injector.thaw();
    });

    for (status, body) in &outcomes {
        assert_eq!(*status, 503, "body: {body}");
        assert!(body.contains("deadline-exceeded"), "{body}");
    }

    let metrics = server.engine().metrics();
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 3);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);

    // The storm is over: a fresh request scores normally.
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client.get("/recommend?user=0&city=1&k=4").expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected_body(&fx, 0, 4, 1));

    server.shutdown();
}

#[test]
fn hot_reload_mid_burst_loses_zero_requests() {
    let mut fx = fixture("reload-burst");
    // Generation 2 = one more training epoch, saved over the checkpoint
    // so /admin/reload picks it up mid-burst.
    let gen1: Vec<String> = (0..5u32).map(|u| expected_body(&fx, u, 5, 1)).collect();
    fx.oracle.train_epoch(&fx.dataset);
    let gen2: Vec<String> = (0..5u32).map(|u| expected_body(&fx, u, 5, 2)).collect();

    let injector = Arc::new(FaultInjector::new(9));
    let server = start_server(&fx, &chaos_config(&injector, 8));
    let addr = server.local_addr();
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let parked: Vec<(u32, usize)> = (0..5u32).map(|u| (u, 5)).collect();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Swap the model while five requests sit in the queue.
        let mut client = HttpClient::connect(addr).expect("connect");
        let reload = client.post("/admin/reload").expect("reload");
        assert_eq!(reload.status, 200, "body: {}", reload.body);
        assert!(reload.body.contains("\"model_epoch\":2"), "{}", reload.body);
        injector.thaw();
    });

    // Zero loss: every parked request is served by exactly one model
    // generation — whichever epoch scored its batch — never torn.
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert!(
            *body == gen1[i] || *body == gen2[i],
            "user {i} got a body matching neither generation: {body}"
        );
    }
    let metrics = server.engine().metrics();
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);

    server.shutdown();
}

#[test]
fn repeated_publishes_mid_burst_lose_zero_requests() {
    // The online publisher's steady state: every few seconds a freshly
    // trained checkpoint is written atomically and /admin/reload is
    // posted while scoring traffic is in flight. Three consecutive
    // publish cycles, each with five requests parked in the queue during
    // the swap — every request must be served by exactly one generation.
    let mut fx = fixture("repeat-publish");
    let injector = Arc::new(FaultInjector::new(17));
    let server = start_server(&fx, &chaos_config(&injector, 8));
    let addr = server.local_addr();

    for cycle in 1..=3u64 {
        // Fresh users each cycle so the result cache cannot answer the
        // burst before it reaches the queue (tiny has 60 users).
        let users: Vec<(u32, usize)> = (0..5u32).map(|u| (cycle as u32 * 10 + u, 5)).collect();
        let old_gen: Vec<String> = users
            .iter()
            .map(|&(u, k)| expected_body(&fx, u, k, cycle))
            .collect();

        // Next generation: one more epoch, published through the same
        // atomic temp-file + rename path the online loop uses.
        fx.oracle.train_epoch(&fx.dataset);
        st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("atomic publish");
        let new_gen: Vec<String> = users
            .iter()
            .map(|&(u, k)| expected_body(&fx, u, k, cycle + 1))
            .collect();

        injector.freeze();
        let outcomes = with_parked_requests(&server, &users, || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let reload = client.post("/admin/reload").expect("reload");
            assert_eq!(reload.status, 200, "cycle {cycle}: {}", reload.body);
            assert!(
                reload
                    .body
                    .contains(&format!("\"model_epoch\":{}", cycle + 1)),
                "cycle {cycle}: {}",
                reload.body
            );
            injector.thaw();
        });

        for (i, (status, body)) in outcomes.iter().enumerate() {
            assert_eq!(*status, 200, "cycle {cycle} request {i}: {body}");
            assert!(
                *body == old_gen[i] || *body == new_gen[i],
                "cycle {cycle} request {i}: body matches neither generation: {body}"
            );
        }
    }

    // Conservation across all three publishes, and the publish trail is
    // visible to operators: epoch 4 serving, three clean reloads, a
    // last-reload timestamp an external staleness alert can key on.
    let metrics = server.engine().metrics();
    assert_eq!(metrics.reloads_ok.load(Ordering::Relaxed), 3);
    assert_eq!(metrics.reloads_failed.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);

    let mut client = HttpClient::connect(addr).expect("connect");
    let scrape = client.get("/metrics").expect("metrics").body;
    assert!(scrape.contains("st_serve_model_epoch 4"), "{scrape}");
    let stamp: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("st_serve_last_reload_timestamp_seconds "))
        .expect("timestamp gauge exported")
        .trim()
        .parse()
        .expect("timestamp is an integer");
    assert!(stamp > 0, "last-reload timestamp never stamped");

    server.shutdown();
}

#[test]
fn degraded_mode_serves_cached_results_under_overload() {
    let fx = fixture("degraded");
    let injector = Arc::new(FaultInjector::new(11));
    let mut config = chaos_config(&injector, 8);
    config.degrade_watermark = 2;
    let server = start_server(&fx, &config);
    let addr = server.local_addr();

    // Warm the caches for two keys at epoch 1.
    let mut client = HttpClient::connect(addr).expect("connect");
    for user in [0u32, 1] {
        let resp = client
            .get(&format!("/recommend?user={user}&city=1&k=5"))
            .expect("warm request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected_body(&fx, user, 5, 1));
    }

    // Hot-reload from the same checkpoint: the epoch bumps to 2, so the
    // warmed keys' entries are no longer hits — only a degraded answer
    // from those stale entries can answer them now.
    let reload = client.post("/admin/reload").expect("reload");
    assert_eq!(reload.status, 200, "body: {}", reload.body);

    // Overload: freeze and fill the queue to the watermark with keys
    // nothing has cached.
    let parked: Vec<(u32, usize)> = [(10u32, 3usize), (11, 3)].to_vec();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Above the watermark, warmed keys are answered from the stale
        // cache immediately — degraded, stale epoch, but served.
        for user in [0u32, 1] {
            let resp = client
                .get(&format!("/recommend?user={user}&city=1&k=5"))
                .expect("degraded request");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            assert_eq!(resp.header("x-cache"), Some("STALE"));
            assert_eq!(resp.header("x-degraded"), Some("true"));
            assert_eq!(resp.header("x-model-epoch"), Some("1"));
            let expected = format!(
                "{{\"degraded\":true,{}",
                &expected_body(&fx, user, 5, 1)[1..]
            );
            assert_eq!(resp.body, expected);
        }
        // A key with no stale entry cannot degrade; at depth == capacity
        // it would queue, so keep it out of this frozen phase.
        injector.thaw();
    });

    // The parked cold-key requests were served fresh after the thaw.
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert_eq!(*body, expected_body(&fx, 10 + i as u32, 3, 2));
    }

    // Conservation: 2 warm + 2 degraded + 2 fresh == 6 submissions, and
    // the degraded counter saw exactly the stale serves.
    let metrics = server.engine().metrics();
    assert_eq!(metrics.degraded_total.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.recommend_requests.load(Ordering::Relaxed), 6);

    // Below the watermark again, the same warmed key is served fresh —
    // scored at epoch 2, no degraded marker.
    let resp = client.get("/recommend?user=0&city=1&k=5").expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-degraded"), None);
    assert_eq!(resp.body, expected_body(&fx, 0, 5, 2));

    server.shutdown();
}

#[test]
fn injected_scorer_failure_fails_the_batch_cleanly() {
    let fx = fixture("scorer-failure");
    let injector = Arc::new(FaultInjector::new(13));
    let server = start_server(&fx, &chaos_config(&injector, 8));

    let parked: Vec<(u32, usize)> = (0..2u32).map(|u| (u, 3)).collect();
    injector.freeze();
    injector.fail_next_batches(1);
    let outcomes = with_parked_requests(&server, &parked, || injector.thaw());

    for (status, body) in &outcomes {
        assert_eq!(*status, 500, "body: {body}");
        assert!(body.contains("scorer failed"), "{body}");
    }
    let metrics = server.engine().metrics();
    assert_eq!(metrics.injected_failures_total.load(Ordering::Relaxed), 2);

    // The failure budget is spent; the server recovers on its own.
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client.get("/recommend?user=0&city=1&k=3").expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected_body(&fx, 0, 3, 1));

    server.shutdown();
}

// ---------------------------------------------------------------------
// Seeded replay
// ---------------------------------------------------------------------

/// One step of a seeded schedule. Counts are in requests; every
/// request's terminal outcome follows from the phase parameters alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosPhase {
    /// Plain traffic with fresh keys: every request scores, `200`.
    Normal { requests: usize },
    /// Traffic under a latency-padded scorer (`pad_us` + seeded jitter
    /// per batch): still every request `200`.
    PaddedTraffic { requests: usize, pad_us: u64 },
    /// Freeze, fill the queue, then send `excess` more: each sheds with
    /// `429`, and the thaw serves the queued ones.
    Burst { excess: usize },
    /// Freeze, queue `queued`, hold the freeze past the deadline: every
    /// queued request expires with `503`.
    DeadlineExpiry { queued: usize },
    /// Warm `warm` keys, hot-reload (so their entries are an older
    /// epoch's), freeze, fill the queue to the watermark, then ask for
    /// warmed keys `hits` times: each is answered degraded.
    DegradedServe { warm: usize, hits: usize },
    /// Freeze, queue `queued`, hot-reload, thaw: all are served.
    ReloadMidBurst { queued: usize },
    /// Freeze, queue `queued`, arm one failing batch, thaw: every queued
    /// request gets a clean `500`.
    ScorerFailure { queued: usize },
}

/// A seed-reproducible schedule: the same seed always yields the same
/// phases with the same parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultPlan {
    seed: u64,
    phases: Vec<ChaosPhase>,
}

impl FaultPlan {
    /// One deck of all seven phases (drawn in mode order, then
    /// shuffled), then `extra_phases` drawn at random. The serving
    /// limits bound the parameters so each outcome is exact: queued
    /// counts never exceed the capacity and a burst always sheds.
    fn from_seed(
        seed: u64,
        queue_capacity: usize,
        degrade_watermark: usize,
        extra_phases: usize,
    ) -> Self {
        assert!(queue_capacity >= 2, "chaos needs a queue to fill");
        assert!(
            (1..=queue_capacity).contains(&degrade_watermark),
            "watermark must be within the queue capacity"
        );
        let draw = |rng: &mut SmallRng, mode: usize| match mode {
            0 => ChaosPhase::Normal {
                requests: rng.gen_range(4..=12),
            },
            1 => ChaosPhase::PaddedTraffic {
                requests: rng.gen_range(3..=8),
                pad_us: rng.gen_range(200..=2_000),
            },
            2 => ChaosPhase::Burst {
                excess: rng.gen_range(1..=queue_capacity),
            },
            3 => ChaosPhase::DeadlineExpiry {
                queued: rng.gen_range(2..=queue_capacity),
            },
            4 => ChaosPhase::DegradedServe {
                warm: rng.gen_range(2..=4),
                hits: rng.gen_range(2..=6),
            },
            5 => ChaosPhase::ReloadMidBurst {
                queued: rng.gen_range(2..=queue_capacity),
            },
            _ => ChaosPhase::ScorerFailure {
                queued: rng.gen_range(2..=queue_capacity),
            },
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut phases: Vec<ChaosPhase> = (0..7).map(|mode| draw(&mut rng, mode)).collect();
        for i in (1..phases.len()).rev() {
            let j = rng.gen_range(0..=i);
            phases.swap(i, j);
        }
        for _ in 0..extra_phases {
            let mode = rng.gen_range(0..7);
            phases.push(draw(&mut rng, mode));
        }
        Self { seed, phases }
    }
}

/// Serving limits the replay runs under: small, so every fault mode
/// overflows and recovers in seconds.
const QUEUE_CAPACITY: usize = 6;
const DEGRADE_WATERMARK: usize = 4;
const DEADLINE: Duration = Duration::from_millis(300);

/// Terminal-outcome tallies of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ChaosCounts {
    submitted: usize,
    served: usize,
    shed: usize,
    expired: usize,
    degraded: usize,
    failed: usize,
}

/// One pass's driving state. Unexpected outcomes are collected, not
/// asserted on the spot: a panic while requests are parked behind the
/// freeze gate would leave their threads waiting forever.
struct Driver<'a> {
    server: &'a Server,
    injector: &'a FaultInjector,
    num_users: usize,
    /// Mints never-before-seen `(user, k)` keys, so a fresh request
    /// cannot be answered from the cache.
    combo: usize,
    counts: ChaosCounts,
    unexpected: Vec<String>,
}

impl Driver<'_> {
    fn fresh_combo(&mut self) -> (u32, usize) {
        let user = (self.combo % self.num_users) as u32;
        let k = 1 + self.combo / self.num_users;
        self.combo += 1;
        (user, k)
    }

    fn fresh_combos(&mut self, n: usize) -> Vec<(u32, usize)> {
        (0..n).map(|_| self.fresh_combo()).collect()
    }

    fn expect(&mut self, what: &str, got: u16, want: u16) {
        if got != want {
            self.unexpected
                .push(format!("{what}: expected {want}, got {got}"));
        }
    }

    /// Sends one request and checks its status.
    fn request(&mut self, client: &mut HttpClient, (user, k): (u32, usize), want: u16) -> String {
        let path = format!("/recommend?user={user}&city=1&k={k}");
        self.counts.submitted += 1;
        let resp = client.get(&path).expect("request resolves");
        self.expect(&path, resp.status, want);
        resp.body
    }

    /// Parks `combos` behind the (frozen) gate, runs `mid` once all are
    /// queued, and checks every parked request's status.
    fn park(&mut self, combos: &[(u32, usize)], want: u16, mid: impl FnOnce(&mut Self)) {
        self.counts.submitted += combos.len();
        let server = self.server;
        for (status, _) in with_parked_requests(server, combos, || mid(self)) {
            self.expect("parked", status, want);
        }
    }

    fn run_phase(&mut self, phase: ChaosPhase, client: &mut HttpClient) {
        match phase {
            ChaosPhase::Normal { requests } => {
                for _ in 0..requests {
                    let combo = self.fresh_combo();
                    self.request(client, combo, 200);
                }
                self.counts.served += requests;
            }
            ChaosPhase::PaddedTraffic { requests, pad_us } => {
                self.injector.set_latency_pad(pad_us, pad_us / 4);
                for _ in 0..requests {
                    let combo = self.fresh_combo();
                    self.request(client, combo, 200);
                }
                self.injector.set_latency_pad(0, 0);
                self.counts.served += requests;
            }
            ChaosPhase::Burst { excess } => {
                let parked = self.fresh_combos(QUEUE_CAPACITY);
                let over = self.fresh_combos(excess);
                self.injector.freeze();
                self.park(&parked, 200, |drv| {
                    // Queue exactly full and frozen: every extra request
                    // sheds synchronously.
                    for &combo in &over {
                        drv.request(client, combo, 429);
                    }
                    drv.injector.thaw();
                });
                self.counts.shed += excess;
                self.counts.served += QUEUE_CAPACITY;
            }
            ChaosPhase::DeadlineExpiry { queued } => {
                let parked = self.fresh_combos(queued);
                self.injector.freeze();
                self.park(&parked, 503, |drv| {
                    // Hold the freeze well past the deadline before the
                    // batcher may see (and expire) the queued jobs.
                    std::thread::sleep(DEADLINE + DEADLINE);
                    drv.injector.thaw();
                });
                self.counts.expired += queued;
            }
            ChaosPhase::DegradedServe { warm, hits } => {
                // Warm the cache, make every warmed entry stale with a
                // reload (the epoch bump), then overload to the watermark.
                let warmed = self.fresh_combos(warm);
                for &combo in &warmed {
                    self.request(client, combo, 200);
                }
                self.counts.served += warm;
                let reload = client.post("/admin/reload").expect("reload resolves");
                self.expect("/admin/reload", reload.status, 200);

                let parked = self.fresh_combos(DEGRADE_WATERMARK);
                self.injector.freeze();
                self.park(&parked, 200, |drv| {
                    for i in 0..hits {
                        let body = drv.request(client, warmed[i % warmed.len()], 200);
                        if !body.starts_with("{\"degraded\":true,") {
                            drv.unexpected
                                .push(format!("missing degraded marker: {body}"));
                        }
                    }
                    drv.injector.thaw();
                });
                self.counts.degraded += hits;
                self.counts.served += DEGRADE_WATERMARK;
            }
            ChaosPhase::ReloadMidBurst { queued } => {
                let parked = self.fresh_combos(queued);
                self.injector.freeze();
                self.park(&parked, 200, |drv| {
                    let reload = client.post("/admin/reload").expect("reload resolves");
                    drv.expect("/admin/reload mid-burst", reload.status, 200);
                    drv.injector.thaw();
                });
                self.counts.served += queued;
            }
            ChaosPhase::ScorerFailure { queued } => {
                let parked = self.fresh_combos(queued);
                self.injector.freeze();
                self.injector.fail_next_batches(1);
                self.park(&parked, 500, |drv| drv.injector.thaw());
                self.counts.failed += queued;
            }
        }
    }
}

/// Replays `plan` once against a fresh server and returns its tallies,
/// after asserting that every response carried the status its phase
/// predicts, that the tallies conserve, and that the server's own
/// counters agree with them.
fn run_pass(fx: &Fixture, plan: &FaultPlan) -> ChaosCounts {
    let injector = Arc::new(FaultInjector::new(plan.seed));
    let mut config = chaos_config(&injector, QUEUE_CAPACITY);
    // Every parked request pins an HTTP worker, so the pool exceeds the
    // deepest overload (capacity + watermark) with room to spare.
    config.workers = 2 * QUEUE_CAPACITY + 8;
    config.batch.deadline = DEADLINE;
    config.degrade_watermark = DEGRADE_WATERMARK;
    let server = start_server(fx, &config);

    let mut driver = Driver {
        server: &server,
        injector: &injector,
        num_users: fx.dataset.num_users(),
        combo: 0,
        counts: ChaosCounts::default(),
        unexpected: Vec::new(),
    };
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    for &phase in &plan.phases {
        driver.run_phase(phase, &mut client);
    }
    let (c, unexpected) = (driver.counts, driver.unexpected);
    assert!(
        unexpected.is_empty(),
        "unexpected outcomes: {unexpected:#?}"
    );
    assert_eq!(
        c.served + c.shed + c.expired + c.degraded + c.failed,
        c.submitted,
        "conservation: {c:?}"
    );

    let metrics = server.engine().metrics();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed) as usize;
    assert_eq!(load(&metrics.shed_total), c.shed);
    assert_eq!(load(&metrics.expired_total), c.expired);
    assert_eq!(load(&metrics.degraded_total), c.degraded);
    assert_eq!(load(&metrics.injected_failures_total), c.failed);
    assert_eq!(load(&metrics.queue_depth), 0);
    server.shutdown();
    c
}

#[test]
fn seeded_chaos_run_holds_every_invariant() {
    // What CI replays on the optimized build: seed 42, three phases past
    // the deck, two passes against fresh servers.
    let plan = FaultPlan::from_seed(42, QUEUE_CAPACITY, DEGRADE_WATERMARK, 3);
    let fx = fixture("seeded");
    let first = run_pass(&fx, &plan);
    assert_eq!(
        first,
        ChaosCounts {
            submitted: 62,
            served: 42,
            shed: 5,
            expired: 10,
            degraded: 2,
            failed: 3,
        }
    );
    assert_eq!(run_pass(&fx, &plan), first, "same seed, same counts");
}

#[test]
fn seed_42_schedule_is_pinned() {
    // The schedule CI replays for seed 42: no change to the plan may
    // move any seed's schedule.
    let plan = FaultPlan::from_seed(42, QUEUE_CAPACITY, DEGRADE_WATERMARK, 3);
    assert_eq!(
        format!("{:?}", plan.phases),
        "[PaddedTraffic { requests: 4, pad_us: 1971 }, ReloadMidBurst { queued: 5 }, \
         Normal { requests: 11 }, Burst { excess: 5 }, DegradedServe { warm: 3, hits: 2 }, \
         DeadlineExpiry { queued: 5 }, ScorerFailure { queued: 3 }, \
         DeadlineExpiry { queued: 3 }, Normal { requests: 9 }, DeadlineExpiry { queued: 2 }]"
    );
}

#[test]
fn plans_are_reproducible_and_cover_every_mode() {
    let a = FaultPlan::from_seed(7, 8, 6, 5);
    let b = FaultPlan::from_seed(7, 8, 6, 5);
    assert_eq!(a, b, "same seed, same plan");
    assert_eq!(a.phases.len(), 12);
    let c = FaultPlan::from_seed(8, 8, 6, 5);
    assert_ne!(a, c, "different seed, different plan");

    // The base deck covers all seven fault modes.
    let short = FaultPlan::from_seed(3, 8, 6, 0);
    let mut seen = [false; 7];
    for p in &short.phases {
        let idx = match p {
            ChaosPhase::Normal { .. } => 0,
            ChaosPhase::PaddedTraffic { .. } => 1,
            ChaosPhase::Burst { .. } => 2,
            ChaosPhase::DeadlineExpiry { .. } => 3,
            ChaosPhase::DegradedServe { .. } => 4,
            ChaosPhase::ReloadMidBurst { .. } => 5,
            ChaosPhase::ScorerFailure { .. } => 6,
        };
        seen[idx] = true;
    }
    assert!(seen.iter().all(|&s| s), "missing a fault mode: {seen:?}");
}

#[test]
fn plan_parameters_respect_serving_limits() {
    for seed in 0..50 {
        let plan = FaultPlan::from_seed(seed, 6, 4, 8);
        for phase in &plan.phases {
            match *phase {
                ChaosPhase::Burst { excess } => {
                    assert!((1..=6).contains(&excess))
                }
                ChaosPhase::DeadlineExpiry { queued }
                | ChaosPhase::ReloadMidBurst { queued }
                | ChaosPhase::ScorerFailure { queued } => {
                    assert!((2..=6).contains(&queued))
                }
                ChaosPhase::DegradedServe { warm, hits } => {
                    assert!(warm >= 2 && hits >= 2)
                }
                ChaosPhase::Normal { requests } | ChaosPhase::PaddedTraffic { requests, .. } => {
                    assert!(requests >= 3)
                }
            }
        }
    }
}
