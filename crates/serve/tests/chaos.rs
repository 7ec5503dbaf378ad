//! Chaos end-to-end tests: a real server on loopback TCP driven through
//! a [`FaultPlan`] of fault-injection phases — plain and latency-padded
//! traffic, a burst over capacity, deadline expiry, hot-reload mid-burst,
//! degraded serving, and a forced scorer failure. Each named plan is one
//! scenario with its counts pinned; the seeded plan mixes them all and
//! is replayed twice.
//!
//! Every pass asserts the **conservation invariant**: each submitted
//! request reaches exactly one terminal outcome (served, shed `429`,
//! expired `503`, degraded `200`, or failed `500`) — no request is lost,
//! no client hangs, and the outcome counts add up to the submissions.
//! Every answer is checked as well: a served body is byte-identical to
//! the oracle's at the epoch that served it, a refusal carries its
//! status, message and `Retry-After`, and a degraded answer is the older
//! epoch's body with the marker spliced in. After the pass, the server's
//! `/metrics` scrape must agree with the driver's tallies.
//!
//! Determinism comes from the [`FaultInjector`] freeze gate, not from
//! racing timers: the gate holds the batcher off the queue, the driver
//! waits for exact queue depths via metrics, and only then injects the
//! next event. The same plan therefore yields the same outcome counts
//! on every run, loaded machine or not.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{synth, CityId, CrossingCitySplit, Dataset, UserId};
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::server::{render_recommend_body, Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::{BatchConfig, FaultInjector};
use st_transrec_core::{recommend_top_k, ModelConfig, STTransRec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// A fresh scratch directory per test (std-only: no tempfile crate);
/// the fixture that holds it removes it on drop.
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

impl Drop for Fixture {
    /// Removes the scratch directory, also when a test panics. Unlinking
    /// a checkpoint a server still maps is safe.
    fn drop(&mut self) {
        if let Some(dir) = self.ckpt.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
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

fn unix_now() -> u64 {
    let since = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH);
    since.expect("clock after 1970").as_secs()
}

/// Blocks until the batcher queue holds exactly `depth` jobs. With the
/// freeze gate closed the depth can only grow toward `depth`, so this is
/// a deterministic rendezvous, not a race. A depth that never arrives
/// thaws the gate before failing, so the parked clients resolve and the
/// test reports the stuck depth instead of waiting out their timeouts.
fn wait_for_depth(server: &Server, injector: &FaultInjector, depth: u64) {
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
        if Instant::now() >= deadline {
            injector.thaw();
            panic!("queue depth stuck at {now}, wanted {depth}");
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One step of a plan. Counts are in requests; every request's terminal
/// outcome follows from the phase parameters alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosPhase {
    /// Plain traffic: every request scores, `200`. It first asks again
    /// the keys the last degraded phase answered stale, which below the
    /// watermark score fresh.
    Normal { requests: usize },
    /// `Normal` under a latency-padded scorer (`pad_us` + seeded jitter
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
    /// Train the next generation and publish it atomically, freeze,
    /// queue `queued`, hot-reload, thaw: all are served, each by one
    /// generation whole.
    ReloadMidBurst { queued: usize },
    /// Freeze, queue `queued`, arm one failing batch, thaw: every queued
    /// request gets a clean `500`.
    ScorerFailure { queued: usize },
}

/// A plan of phases. A named plan lists them by hand; `from_seed` draws
/// them, and the same seed always yields the same phases with the same
/// parameters.
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

/// Serving limits every plan runs under: small, so every fault mode
/// overflows and recovers in seconds.
const QUEUE_CAPACITY: usize = 6;
const DEGRADE_WATERMARK: usize = 4;
const DEADLINE: Duration = Duration::from_millis(300);

/// Terminal-outcome tallies of one pass, and the reloads it posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ChaosCounts {
    submitted: usize,
    served: usize,
    shed: usize,
    expired: usize,
    degraded: usize,
    failed: usize,
    reloads: usize,
}

/// One pass's driving state. Unexpected answers are collected, not
/// asserted on the spot: a panic while requests are parked behind the
/// freeze gate would leave their threads waiting forever.
struct Driver<'a> {
    server: &'a Server,
    injector: &'a FaultInjector,
    /// The pass's own fixture: its oracle is the generation the
    /// checkpoint holds, one epoch further after each `ReloadMidBurst`.
    fx: Fixture,
    /// The epoch the server is serving.
    epoch: u64,
    /// Unix seconds just before the server last stamped its reload time
    /// (at start-up, then at each reload).
    stamped_after: u64,
    /// Mints never-before-seen `(user, k)` keys, so a fresh request
    /// cannot be answered from the cache.
    combo: usize,
    /// Keys the last degraded phase answered stale.
    stale: Vec<(u32, usize)>,
    counts: ChaosCounts,
    unexpected: Vec<String>,
}

impl Driver<'_> {
    fn fresh_combo(&mut self) -> (u32, usize) {
        let num_users = self.fx.dataset.num_users();
        let (user, k) = (self.combo % num_users, 1 + self.combo / num_users);
        self.combo += 1;
        (user as u32, k)
    }

    fn fresh_combos(&mut self, n: usize) -> Vec<(u32, usize)> {
        (0..n).map(|_| self.fresh_combo()).collect()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.unexpected.push(what());
        }
    }

    fn get(&mut self, client: &mut HttpClient, (user, k): (u32, usize)) -> HttpResponse {
        self.counts.submitted += 1;
        let path = format!("/recommend?user={user}&city=1&k={k}");
        client.get(&path).expect("request resolves")
    }

    /// A fresh answer: `200` with the oracle's body at the serving epoch.
    fn check_served(&mut self, resp: &HttpResponse, (user, k): (u32, usize)) {
        let want = expected_body(&self.fx, user, k, self.epoch);
        self.check(resp.status == 200 && resp.body == want, || {
            format!("user {user} k {k}: want 200 {want}, got {resp:?}")
        });
    }

    /// A refusal: `status` with `message` in its body, and `Retry-After:
    /// 1` exactly when it is a deliberate shed rather than a failure.
    fn check_refused(&mut self, resp: &HttpResponse, status: u16, message: &str) {
        let shed = status != 500;
        let ok = resp.status == status
            && resp.body.contains(message)
            && (resp.header("retry-after") == Some("1")) == shed;
        self.check(ok, || format!("want {status} {message}, got {resp:?}"));
    }

    /// A degraded answer: the marked body `combo` got at `epoch`, with
    /// `X-Cache: STALE`, `X-Degraded: true` and that epoch.
    fn check_degraded(&mut self, resp: &HttpResponse, (user, k): (u32, usize), epoch: u64) {
        let old = expected_body(&self.fx, user, k, epoch);
        let want = format!("{{\"degraded\":true,{}", &old[1..]);
        let ok = resp.status == 200
            && resp.header("x-cache") == Some("STALE")
            && resp.header("x-degraded") == Some("true")
            && resp.header("x-model-epoch") == Some(epoch.to_string().as_str())
            && resp.body == want;
        self.check(ok, || format!("want degraded {want}, got {resp:?}"));
    }

    /// Asks for `combo` below the watermark: it is served fresh.
    fn serve(&mut self, client: &mut HttpClient, combo: (u32, usize)) {
        let resp = self.get(client, combo);
        self.check_served(&resp, combo);
        self.counts.served += 1;
    }

    /// `requests` of plain traffic: stale keys first, then fresh ones.
    fn traffic(&mut self, client: &mut HttpClient, requests: usize) {
        for _ in 0..requests {
            let combo = self.stale.pop().unwrap_or_else(|| self.fresh_combo());
            self.serve(client, combo);
        }
    }

    /// Posts a reload; it must go live as the next epoch.
    fn reload(&mut self, client: &mut HttpClient) {
        self.stamped_after = unix_now();
        let resp = client.post("/admin/reload").expect("reload resolves");
        self.epoch += 1;
        self.counts.reloads += 1;
        let want = format!("\"model_epoch\":{}", self.epoch);
        self.check(resp.status == 200 && resp.body.contains(&want), || {
            format!("/admin/reload: want 200 {want}, got {resp:?}")
        });
    }

    /// Parks `combos` behind the (frozen) gate from background threads,
    /// runs `mid` once all are queued, and returns the parked requests'
    /// answers.
    fn park(&mut self, combos: &[(u32, usize)], mid: impl FnOnce(&mut Self)) -> Vec<HttpResponse> {
        self.counts.submitted += combos.len();
        let addr = self.server.local_addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = combos
                .iter()
                .map(|&(user, k)| {
                    scope.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("connect");
                        client
                            .get(&format!("/recommend?user={user}&city=1&k={k}"))
                            .expect("parked request resolves")
                    })
                })
                .collect();
            wait_for_depth(self.server, self.injector, combos.len() as u64);
            mid(self);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn run_phase(&mut self, phase: ChaosPhase, client: &mut HttpClient) {
        match phase {
            ChaosPhase::Normal { requests } => self.traffic(client, requests),
            ChaosPhase::PaddedTraffic { requests, pad_us } => {
                self.injector.set_latency_pad(pad_us, pad_us / 4);
                self.traffic(client, requests);
                self.injector.set_latency_pad(0, 0);
            }
            ChaosPhase::Burst { excess } => {
                let parked = self.fresh_combos(QUEUE_CAPACITY);
                let over = self.fresh_combos(excess);
                self.injector.freeze();
                let answers = self.park(&parked, |drv| {
                    // Queue exactly full and frozen: every extra request
                    // sheds synchronously.
                    for &combo in &over {
                        let resp = drv.get(client, combo);
                        drv.check_refused(&resp, 429, "queue full");
                    }
                    drv.injector.thaw();
                });
                for (resp, &combo) in answers.iter().zip(&parked) {
                    self.check_served(resp, combo);
                }
                self.counts.shed += excess;
                self.counts.served += QUEUE_CAPACITY;
            }
            ChaosPhase::DeadlineExpiry { queued } => {
                let parked = self.fresh_combos(queued);
                self.injector.freeze();
                let answers = self.park(&parked, |drv| {
                    // Hold the freeze well past the deadline before the
                    // batcher may see (and expire) the queued jobs.
                    std::thread::sleep(DEADLINE + DEADLINE);
                    drv.injector.thaw();
                });
                for resp in &answers {
                    self.check_refused(resp, 503, "deadline-exceeded");
                }
                self.counts.expired += queued;
            }
            ChaosPhase::DegradedServe { warm, hits } => {
                // Warm the cache, make every warmed entry stale with a
                // reload (the epoch bump), then overload to the watermark.
                let warmed = self.fresh_combos(warm);
                for &combo in &warmed {
                    self.serve(client, combo);
                }
                let stale_epoch = self.epoch;
                self.reload(client);

                let parked = self.fresh_combos(DEGRADE_WATERMARK);
                self.injector.freeze();
                let answers = self.park(&parked, |drv| {
                    for i in 0..hits {
                        let combo = warmed[i % warmed.len()];
                        let resp = drv.get(client, combo);
                        drv.check_degraded(&resp, combo, stale_epoch);
                    }
                    drv.injector.thaw();
                });
                for (resp, &combo) in answers.iter().zip(&parked) {
                    self.check_served(resp, combo);
                }
                self.counts.degraded += hits;
                self.counts.served += DEGRADE_WATERMARK;
                self.stale = warmed;
            }
            ChaosPhase::ReloadMidBurst { queued } => {
                let parked = self.fresh_combos(queued);
                let old: Vec<String> = parked
                    .iter()
                    .map(|&(user, k)| expected_body(&self.fx, user, k, self.epoch))
                    .collect();
                // The next generation: one more epoch, published through
                // the atomic temp-file + rename path the online loop uses.
                self.fx.oracle.train_epoch(&self.fx.dataset);
                st_tensor::save_params_atomic(self.fx.oracle.params(), &self.fx.ckpt)
                    .expect("atomic publish");
                self.injector.freeze();
                let answers = self.park(&parked, |drv| {
                    drv.reload(client);
                    drv.injector.thaw();
                });
                // Zero loss, and every request served by one generation
                // whole, whichever scored its batch — never torn.
                for ((resp, &(user, k)), old) in answers.iter().zip(&parked).zip(&old) {
                    let new = expected_body(&self.fx, user, k, self.epoch);
                    let ok = resp.status == 200 && (resp.body == *old || resp.body == new);
                    self.check(ok, || format!("want {old} or {new}, got {resp:?}"));
                }
                self.counts.served += queued;
            }
            ChaosPhase::ScorerFailure { queued } => {
                let parked = self.fresh_combos(queued);
                self.injector.freeze();
                self.injector.fail_next_batches(1);
                let answers = self.park(&parked, |drv| drv.injector.thaw());
                for resp in &answers {
                    self.check_refused(resp, 500, "scorer failed");
                }
                self.counts.failed += queued;
            }
        }
    }
}

/// The value of `name`'s line in a `/metrics` scrape.
fn scraped(scrape: &str, name: &str) -> u64 {
    let line = scrape.lines().find_map(|l| l.strip_prefix(name));
    let value = line.unwrap_or_else(|| panic!("{name} missing from {scrape}"));
    value.trim().parse().expect("integer gauge")
}

/// Replays `plan` once against a fresh server on a fresh fixture and
/// returns its tallies, after asserting that every answer was the one
/// its phase predicts, that the tallies conserve, and that the server's
/// `/metrics` scrape agrees with them.
fn run_pass(plan: &FaultPlan) -> ChaosCounts {
    let fx = fixture("plan");
    let injector = Arc::new(FaultInjector::new(plan.seed));
    let config = ServeConfig {
        // Every parked request pins an HTTP worker, so the pool exceeds
        // the deepest overload (capacity + watermark) with room to spare.
        workers: 2 * QUEUE_CAPACITY + 8,
        batch: BatchConfig {
            queue_capacity: QUEUE_CAPACITY,
            deadline: DEADLINE,
            ..BatchConfig::default()
        },
        degrade_watermark: DEGRADE_WATERMARK,
        fault: Some(injector.clone()),
        ..ServeConfig::default()
    };
    let stamped_after = unix_now();
    let server = start_server(&fx, &config);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let mut driver = Driver {
        server: &server,
        injector: &injector,
        fx,
        epoch: 1,
        stamped_after,
        combo: 0,
        stale: Vec::new(),
        counts: ChaosCounts::default(),
        unexpected: Vec::new(),
    };
    for &phase in &plan.phases {
        driver.run_phase(phase, &mut client);
    }
    let scrape = client.get("/metrics").expect("metrics").body;
    let Driver {
        counts: c,
        unexpected,
        stamped_after,
        ..
    } = driver;
    server.shutdown();

    assert!(unexpected.is_empty(), "unexpected answers: {unexpected:#?}");
    assert_eq!(
        c.served + c.shed + c.expired + c.degraded + c.failed,
        c.submitted,
        "conservation: {c:?}"
    );
    let tallies = [
        ("st_serve_requests_total{route=\"recommend\"} ", c.submitted),
        ("st_serve_shed_total ", c.shed),
        ("st_serve_expired_total ", c.expired),
        ("st_serve_degraded_total ", c.degraded),
        ("st_serve_injected_failures_total ", c.failed),
        ("st_serve_queue_depth ", 0),
        ("st_serve_reloads_ok_total ", c.reloads),
        ("st_serve_reloads_failed_total ", 0),
        ("st_serve_model_epoch ", 1 + c.reloads),
    ];
    for (name, want) in tallies {
        assert_eq!(scraped(&scrape, name), want as u64, "{name}");
    }
    // The stamp an external staleness alert keys on is the last reload's.
    let stamp = scraped(&scrape, "st_serve_last_reload_timestamp_seconds ");
    assert!(stamp >= stamped_after, "stale reload stamp {stamp}");
    c
}

/// Runs a named plan: one scripted scenario's phases.
fn run_named(phases: &[ChaosPhase]) -> ChaosCounts {
    run_pass(&FaultPlan {
        seed: 0,
        phases: phases.to_vec(),
    })
}

#[test]
fn burst_over_capacity_sheds_with_429() {
    let counts = run_named(&[ChaosPhase::Burst { excess: 3 }]);
    let want = ChaosCounts {
        submitted: 9,
        served: 6,
        shed: 3,
        ..ChaosCounts::default()
    };
    assert_eq!(counts, want);
}

#[test]
fn deadline_expiry_returns_503() {
    // The storm is over: the next request scores normally.
    let counts = run_named(&[
        ChaosPhase::DeadlineExpiry { queued: 3 },
        ChaosPhase::Normal { requests: 1 },
    ]);
    let want = ChaosCounts {
        submitted: 4,
        served: 1,
        expired: 3,
        ..ChaosCounts::default()
    };
    assert_eq!(counts, want);
}

#[test]
fn repeated_publishes_mid_burst_lose_zero_requests() {
    // The online publisher's steady state: three freshly trained
    // generations, each published and reloaded with five requests parked
    // in the queue during the swap.
    let counts = run_named(&[ChaosPhase::ReloadMidBurst { queued: 5 }; 3]);
    let want = ChaosCounts {
        submitted: 15,
        served: 15,
        reloads: 3,
        ..ChaosCounts::default()
    };
    assert_eq!(counts, want);
}

#[test]
fn degraded_mode_serves_cached_results_under_overload() {
    // Back below the watermark, the warmed keys score fresh again.
    let counts = run_named(&[
        ChaosPhase::DegradedServe { warm: 2, hits: 2 },
        ChaosPhase::Normal { requests: 2 },
    ]);
    let want = ChaosCounts {
        submitted: 10,
        served: 8,
        degraded: 2,
        reloads: 1,
        ..ChaosCounts::default()
    };
    assert_eq!(counts, want);
}

#[test]
fn injected_scorer_failure_fails_the_batch_cleanly() {
    // The failure budget is spent; the server recovers on its own.
    let counts = run_named(&[
        ChaosPhase::ScorerFailure { queued: 2 },
        ChaosPhase::Normal { requests: 1 },
    ]);
    let want = ChaosCounts {
        submitted: 3,
        served: 1,
        failed: 2,
        ..ChaosCounts::default()
    };
    assert_eq!(counts, want);
}

#[test]
fn seeded_chaos_run_holds_every_invariant() {
    // What CI replays on the optimized build: seed 42, three phases past
    // the deck, two passes against fresh servers.
    let plan = FaultPlan::from_seed(42, QUEUE_CAPACITY, DEGRADE_WATERMARK, 3);
    let first = run_pass(&plan);
    assert_eq!(
        first,
        ChaosCounts {
            submitted: 62,
            served: 42,
            shed: 5,
            expired: 10,
            degraded: 2,
            failed: 3,
            reloads: 2,
        }
    );
    assert_eq!(run_pass(&plan), first, "same seed, same counts");
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
