//! Seeded chaos harness: the [`FaultPlan`] schedule and the executor
//! that replays it against a real `st-serve` server and asserts the
//! overload invariants.
//!
//! The plan expands from a single `u64` seed through the deterministic
//! `st-rand` generator: the same seed always yields the same phases with
//! the same parameters, so every phase's expected outcome is computable
//! up front. Execution is gate-based (the [`FaultInjector`] freeze gate
//! plus exact queue-depth rendezvous) rather than timer-based, so the
//! same seed always produces the same terminal-outcome counts — which is
//! exactly what the report asserts:
//!
//! - **Conservation**: every submitted request reaches exactly one
//!   terminal outcome, and `served + shed + expired + degraded + failed
//!   == submitted`.
//! - **No request lost**: every client call returns a response with the
//!   status its phase predicts (a hung or torn response fails the run).
//! - **Metrics agree**: the server's own shed/expired/degraded/failure
//!   counters match the client-side tallies, and the queue drains to 0.
//! - **Shedding stays fast**: a `429` is a synchronous rejection, so the
//!   p99 latency of shed requests is bounded even while the scorer is
//!   frozen solid.
//!
//! `chaos serve --seed N` runs the plan twice and additionally requires
//! the two passes to produce identical counts (the seed-reproducibility
//! contract).

use crate::json_object_impl;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_serve::client::HttpClient;
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::{BatchConfig, FaultInjector};
use st_transrec_core::{ModelConfig, STTransRec};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a chaos schedule. Counts below are in requests; the
/// harness derives the expected terminal outcome of every request in the
/// phase from the phase parameters alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhase {
    /// Plain traffic with distinct users: every request scores, `200`.
    Normal {
        /// Requests to issue.
        requests: usize,
    },
    /// Traffic under a latency-padded scorer: still every request `200`,
    /// but each batch sleeps `pad_us` (+ seeded jitter) first.
    PaddedTraffic {
        /// Requests to issue.
        requests: usize,
        /// Base pad per batch, microseconds.
        pad_us: u64,
    },
    /// Freeze the batcher, submit `queue capacity + excess` concurrent
    /// requests: exactly `capacity` enqueue, exactly `excess` shed with
    /// `429`, then the thaw serves the queued ones.
    Burst {
        /// Requests beyond the queue capacity (each one sheds).
        excess: usize,
    },
    /// Freeze the batcher, queue `queued` requests, hold the freeze past
    /// the deadline: every queued request expires with `503`.
    DeadlineExpiry {
        /// Requests to park in the queue (at most the capacity).
        queued: usize,
    },
    /// Warm the caches for `warm` keys, hot-reload (invalidating the
    /// fresh epoch-keyed cache), freeze, fill the queue to the
    /// high-watermark, then issue `hits` requests for warmed keys: all
    /// `hits` are answered degraded from the stale cache.
    DegradedServe {
        /// Keys to warm before the overload.
        warm: usize,
        /// Requests for warmed keys under overload (each one degrades).
        hits: usize,
    },
    /// Freeze, queue `queued` requests, hot-reload mid-burst, thaw: all
    /// queued requests are served (by whichever epoch scores them) —
    /// zero requests lost.
    ReloadMidBurst {
        /// Requests to park in the queue (at most the capacity).
        queued: usize,
    },
    /// Freeze, queue `queued` requests, arm a forced scorer failure,
    /// thaw: every queued request gets a clean `500`.
    ScorerFailure {
        /// Requests to park in the queue (at most one batch).
        queued: usize,
    },
}

/// A seed-reproducible chaos schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed that generated (and reproduces) this plan.
    pub seed: u64,
    /// Phases in execution order.
    pub phases: Vec<ChaosPhase>,
}

impl FaultPlan {
    /// Expands `seed` into a chaos schedule sized against the serving
    /// limits it will run under. The plan always covers every fault mode
    /// at least once (one deck of all seven phases), then appends
    /// `extra_phases` more drawn at random; order and parameters are
    /// fully determined by the seed.
    ///
    /// `queue_capacity` and `degrade_watermark` bound the phase
    /// parameters so each phase's outcome is exact: queued counts never
    /// exceed the capacity, burst excess is at least 1, and degraded
    /// phases never warm more keys than the watermark leaves room for.
    pub fn from_seed(
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
        let mut rng = SmallRng::seed_from_u64(seed);
        let draw = |rng: &mut SmallRng, idx: usize| -> ChaosPhase {
            match idx {
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
            }
        };
        let phases = seeded_deck(&mut rng, 7, extra_phases, Deal::DrawThenShuffle, draw);
        Self { seed, phases }
    }
}

/// When a plan draws its deck's parameters, relative to the shuffle.
/// The two plans have always differed here; each order consumes the
/// seed's random stream differently, so it is part of what a seed means.
#[derive(Clone, Copy)]
pub(crate) enum Deal {
    /// Draw every mode in index order, then shuffle ([`FaultPlan`]).
    DrawThenShuffle,
    /// Shuffle the modes, then draw in that order (`FleetFaultPlan`).
    ShuffleThenDraw,
}

/// The shape both seeded plans share: one deck holding every mode
/// `0..modes` once, in seed-shuffled order, then `extras` more phases of
/// modes drawn at random. `draw(rng, mode)` draws one phase's parameters.
pub(crate) fn seeded_deck<P>(
    rng: &mut SmallRng,
    modes: usize,
    extras: usize,
    deal: Deal,
    draw: impl Fn(&mut SmallRng, usize) -> P,
) -> Vec<P> {
    fn shuffle<T>(rng: &mut SmallRng, deck: &mut [T]) {
        for i in (1..deck.len()).rev() {
            let j = rng.gen_range(0..=i);
            deck.swap(i, j);
        }
    }
    let mut phases: Vec<P> = match deal {
        Deal::DrawThenShuffle => {
            let mut deck: Vec<P> = (0..modes).map(|mode| draw(rng, mode)).collect();
            shuffle(rng, &mut deck);
            deck
        }
        Deal::ShuffleThenDraw => {
            let mut deck: Vec<usize> = (0..modes).collect();
            shuffle(rng, &mut deck);
            deck.into_iter().map(|mode| draw(rng, mode)).collect()
        }
    };
    for _ in 0..extras {
        let mode = rng.gen_range(0..modes);
        phases.push(draw(rng, mode));
    }
    phases
}

/// Serving limits the chaos plan is sized against. Small on purpose:
/// tiny queues overflow (and recover) quickly, so every fault mode is
/// exercised in seconds.
pub const QUEUE_CAPACITY: usize = 6;
/// Queue depth at which requests degrade to stale cached results.
pub const DEGRADE_WATERMARK: usize = 4;
/// Queued-request deadline during the run.
pub const DEADLINE: Duration = Duration::from_millis(300);

/// Terminal-outcome tallies for one chaos pass. Conservation means the
/// last five sum to `submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosCounts {
    /// `/recommend` requests issued.
    pub submitted: usize,
    /// Served fresh with `200` (includes post-thaw parked requests).
    pub served: usize,
    /// Shed at admission with `429`.
    pub shed: usize,
    /// Expired in queue with `503 deadline-exceeded`.
    pub expired: usize,
    /// Served stale with `200` and a `"degraded": true` marker.
    pub degraded: usize,
    /// Failed by an injected scorer fault with `500`.
    pub failed: usize,
}

json_object_impl!(ChaosCounts {
    submitted,
    served,
    shed,
    expired,
    degraded,
    failed,
});

impl ChaosCounts {
    /// Whether every submission reached exactly one terminal outcome.
    pub fn conserved(&self) -> bool {
        self.served + self.shed + self.expired + self.degraded + self.failed == self.submitted
    }
}

/// The report `chaos serve` prints and gates on.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// The seed that generated (and reproduces) the plan.
    pub seed: u64,
    /// Phases executed per pass.
    pub phases: usize,
    /// Queue bound the server ran with.
    pub queue_capacity: usize,
    /// Degradation watermark the server ran with.
    pub degrade_watermark: usize,
    /// Queued-request deadline, milliseconds.
    pub deadline_ms: u64,
    /// Outcome tallies of the first pass.
    pub counts: ChaosCounts,
    /// p99 client-side latency of shed (`429`) responses, microseconds
    /// (0 when the plan shed nothing).
    pub shed_p99_us: u64,
    /// `served + shed + expired + degraded + failed == submitted`.
    pub conservation_ok: bool,
    /// Server-side counters matched the client-side tallies and the
    /// queue drained to zero.
    pub metrics_consistent: bool,
    /// Every response carried the status its phase predicted.
    pub all_outcomes_expected: bool,
    /// Two passes with the same seed produced identical counts (only
    /// meaningful from `run_chaos_twice`).
    pub reproducible: bool,
}

json_object_impl!(ChaosReport {
    schema,
    seed,
    phases,
    queue_capacity,
    degrade_watermark,
    deadline_ms,
    counts,
    shed_p99_us,
    conservation_ok,
    metrics_consistent,
    all_outcomes_expected,
    reproducible,
});

impl ChaosReport {
    /// Whether every invariant the run gates on held.
    pub fn ok(&self) -> bool {
        self.conservation_ok
            && self.metrics_consistent
            && self.all_outcomes_expected
            && self.reproducible
    }
}

/// Dataset + trained checkpoint shared by every pass.
struct ChaosFixture {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
}

fn build_fixture(seed: u64) -> ChaosFixture {
    let cfg = synth::SynthConfig::tiny();
    let (dataset, _) = synth::generate(&cfg);
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(
        &dataset,
        CityId(cfg.target_city as u16),
    ));
    let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    model.train_epoch(&dataset);
    let dir = std::env::temp_dir().join(format!("st-chaos-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create chaos scratch dir");
    let ckpt = dir.join("model.bin");
    st_tensor::save_params_atomic(model.params(), &ckpt).expect("save ckpt");
    ChaosFixture {
        dataset,
        split,
        ckpt,
    }
}

/// One pass's mutable driving state.
struct Driver<'a> {
    server: &'a Server,
    injector: &'a Arc<FaultInjector>,
    city: u16,
    num_users: usize,
    /// Monotone counter minting never-before-seen `(user, k)` combos so
    /// fresh submissions cannot hit any cache.
    combo: usize,
    counts: ChaosCounts,
    shed_latencies_us: Vec<u64>,
    unexpected: Vec<String>,
}

impl<'a> Driver<'a> {
    /// A `(user, k)` pair no previous request in this pass has used.
    fn fresh_combo(&mut self) -> (usize, usize) {
        let user = self.combo % self.num_users;
        let k = 1 + self.combo / self.num_users;
        self.combo += 1;
        (user, k)
    }

    fn path(&self, user: usize, k: usize) -> String {
        format!("/recommend?user={user}&city={}&k={k}", self.city)
    }

    fn expect(&mut self, what: &str, got: u16, want: u16) {
        if got != want {
            self.unexpected
                .push(format!("{what}: expected {want}, got {got}"));
        }
    }

    /// Blocks until the batcher queue holds exactly `depth` jobs; with
    /// the gate frozen the depth only grows toward it.
    fn wait_for_depth(&self, depth: usize) {
        let metrics = self.server.engine().metrics();
        let deadline = Instant::now() + Duration::from_secs(20);
        while metrics.queue_depth.load(Ordering::Relaxed) != depth as u64 {
            assert!(Instant::now() < deadline, "queue never reached {depth}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Parks `combos` requests in the (frozen) queue on background
    /// threads, runs `mid` once they are all queued, and returns every
    /// parked request's status.
    fn with_parked(&mut self, combos: &[(usize, usize)], mid: impl FnOnce(&mut Self)) -> Vec<u16> {
        let addr = self.server.local_addr();
        let city = self.city;
        self.counts.submitted += combos.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = combos
                .iter()
                .map(|&(user, k)| {
                    scope.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("connect");
                        client
                            .get(&format!("/recommend?user={user}&city={city}&k={k}"))
                            .expect("parked request resolves")
                            .status
                    })
                })
                .collect();
            self.wait_for_depth(combos.len());
            mid(self);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Issues one fresh-combo request expecting a normal `200`.
    fn serve_one(&mut self, client: &mut HttpClient) {
        let (user, k) = self.fresh_combo();
        let path = self.path(user, k);
        self.counts.submitted += 1;
        let status = client.get(&path).expect("request resolves").status;
        self.expect(&path, status, 200);
        self.counts.served += 1;
    }

    fn run_phase(&mut self, phase: &ChaosPhase, client: &mut HttpClient) {
        match *phase {
            ChaosPhase::Normal { requests } => {
                for _ in 0..requests {
                    self.serve_one(client);
                }
            }
            ChaosPhase::PaddedTraffic { requests, pad_us } => {
                self.injector.set_latency_pad(pad_us, pad_us / 4);
                for _ in 0..requests {
                    self.serve_one(client);
                }
                self.injector.set_latency_pad(0, 0);
            }
            ChaosPhase::Burst { excess } => {
                let parked: Vec<_> = (0..QUEUE_CAPACITY).map(|_| self.fresh_combo()).collect();
                let over: Vec<_> = (0..excess).map(|_| self.fresh_combo()).collect();
                self.injector.freeze();
                let statuses = self.with_parked(&parked, |drv| {
                    // Queue exactly full and frozen: every extra request
                    // sheds synchronously; time each rejection.
                    for &(user, k) in &over {
                        let path = drv.path(user, k);
                        drv.counts.submitted += 1;
                        let sent = Instant::now();
                        let status = client.get(&path).expect("shed resolves").status;
                        let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                        drv.shed_latencies_us.push(us);
                        drv.expect(&path, status, 429);
                        drv.counts.shed += 1;
                    }
                    drv.injector.thaw();
                });
                for status in statuses {
                    self.expect("burst parked", status, 200);
                    self.counts.served += 1;
                }
            }
            ChaosPhase::DeadlineExpiry { queued } => {
                let parked: Vec<_> = (0..queued).map(|_| self.fresh_combo()).collect();
                self.injector.freeze();
                let statuses = self.with_parked(&parked, |drv| {
                    // Hold the freeze well past the deadline before the
                    // batcher may see (and expire) the queued jobs.
                    std::thread::sleep(DEADLINE + DEADLINE);
                    drv.injector.thaw();
                });
                for status in statuses {
                    self.expect("deadline parked", status, 503);
                    self.counts.expired += 1;
                }
            }
            ChaosPhase::DegradedServe { warm, hits } => {
                // Warm the stale cache, then invalidate the fresh cache
                // by hot-reloading (the epoch bump strands the warmed
                // epoch), then overload past the watermark.
                let warmed: Vec<_> = (0..warm).map(|_| self.fresh_combo()).collect();
                for &(user, k) in &warmed {
                    let path = self.path(user, k);
                    self.counts.submitted += 1;
                    let status = client.get(&path).expect("warm resolves").status;
                    self.expect(&path, status, 200);
                    self.counts.served += 1;
                }
                let reload = client.post("/admin/reload").expect("reload resolves");
                self.expect("/admin/reload", reload.status, 200);

                let parked: Vec<_> = (0..DEGRADE_WATERMARK).map(|_| self.fresh_combo()).collect();
                self.injector.freeze();
                let statuses = self.with_parked(&parked, |drv| {
                    for i in 0..hits {
                        let (user, k) = warmed[i % warmed.len()];
                        let path = drv.path(user, k);
                        drv.counts.submitted += 1;
                        let resp = client.get(&path).expect("degraded resolves");
                        drv.expect(&path, resp.status, 200);
                        if !resp.body.starts_with("{\"degraded\":true,") {
                            drv.unexpected
                                .push(format!("{path}: missing degraded marker: {}", resp.body));
                        }
                        drv.counts.degraded += 1;
                    }
                    drv.injector.thaw();
                });
                for status in statuses {
                    self.expect("degraded parked", status, 200);
                    self.counts.served += 1;
                }
            }
            ChaosPhase::ReloadMidBurst { queued } => {
                let parked: Vec<_> = (0..queued).map(|_| self.fresh_combo()).collect();
                self.injector.freeze();
                let statuses = self.with_parked(&parked, |drv| {
                    let reload = client.post("/admin/reload").expect("reload resolves");
                    drv.expect("/admin/reload mid-burst", reload.status, 200);
                    drv.injector.thaw();
                });
                for status in statuses {
                    self.expect("reload-burst parked", status, 200);
                    self.counts.served += 1;
                }
            }
            ChaosPhase::ScorerFailure { queued } => {
                let parked: Vec<_> = (0..queued).map(|_| self.fresh_combo()).collect();
                self.injector.freeze();
                self.injector.fail_next_batches(1);
                let statuses = self.with_parked(&parked, |drv| drv.injector.thaw());
                for status in statuses {
                    self.expect("scorer-failure parked", status, 500);
                    self.counts.failed += 1;
                }
            }
        }
    }
}

/// Runs one full pass of the plan for `seed`, returning the tallies, the
/// shed-latency samples, the list of unexpected outcomes, and whether
/// the server's own counters agreed with the client-side view.
fn run_pass(fx: &ChaosFixture, plan: &FaultPlan) -> (ChaosCounts, Vec<u64>, Vec<String>, bool) {
    let injector = Arc::new(FaultInjector::new(plan.seed));
    let config = ServeConfig {
        // Every parked request pins an HTTP worker, so the pool must
        // exceed the deepest possible overload (capacity + watermark).
        workers: 2 * QUEUE_CAPACITY + 8,
        batch: BatchConfig {
            window: Duration::ZERO,
            queue_capacity: QUEUE_CAPACITY,
            deadline: DEADLINE,
            ..BatchConfig::default()
        },
        degrade_watermark: DEGRADE_WATERMARK,
        fault: Some(injector.clone()),
        ..ServeConfig::default()
    };
    let reloader = Reloader::new(
        fx.dataset.clone(),
        fx.split.clone(),
        ModelConfig::test_small(),
        &fx.ckpt,
    );
    let (frozen, bytes) = reloader.load_frozen().expect("load ckpt");
    let engine = Engine::new_frozen(fx.dataset.clone(), frozen, bytes, Some(reloader), &config);
    let server = Server::start(engine, &config).expect("start server");

    let mut driver = Driver {
        server: &server,
        injector: &injector,
        city: fx.split.target_city.0,
        num_users: fx.dataset.num_users(),
        combo: 0,
        counts: ChaosCounts::default(),
        shed_latencies_us: Vec::new(),
        unexpected: Vec::new(),
    };
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    for phase in &plan.phases {
        driver.run_phase(phase, &mut client);
    }

    let metrics = server.engine().metrics();
    let counts = driver.counts;
    let metrics_consistent = metrics.shed_total.load(Ordering::Relaxed) == counts.shed as u64
        && metrics.expired_total.load(Ordering::Relaxed) == counts.expired as u64
        && metrics.degraded_total.load(Ordering::Relaxed) == counts.degraded as u64
        && metrics.injected_failures_total.load(Ordering::Relaxed) == counts.failed as u64
        && metrics.queue_depth.load(Ordering::Relaxed) == 0;
    let (shed_latencies, unexpected) = (driver.shed_latencies_us, driver.unexpected);
    server.shutdown();
    (counts, shed_latencies, unexpected, metrics_consistent)
}

/// Runs the seeded plan twice against fresh servers and assembles the
/// gating report: conservation, metrics agreement, expected outcomes,
/// and pass-to-pass reproducibility of every count.
pub fn run_chaos_twice(seed: u64, extra_phases: usize) -> ChaosReport {
    let plan = FaultPlan::from_seed(seed, QUEUE_CAPACITY, DEGRADE_WATERMARK, extra_phases);
    let fx = build_fixture(seed);

    let (counts, mut shed_lat, unexpected_a, metrics_a) = run_pass(&fx, &plan);
    let (counts_b, _, unexpected_b, metrics_b) = run_pass(&fx, &plan);

    for msg in unexpected_a.iter().chain(&unexpected_b) {
        eprintln!("chaos: unexpected outcome: {msg}");
    }
    shed_lat.sort_unstable();
    let shed_p99_us = shed_lat
        .get(((shed_lat.len().saturating_sub(1)) as f64 * 0.99).round() as usize)
        .copied()
        .unwrap_or(0);

    ChaosReport {
        schema: "st-transrec-chaos/v1".into(),
        seed,
        phases: plan.phases.len(),
        queue_capacity: QUEUE_CAPACITY,
        degrade_watermark: DEGRADE_WATERMARK,
        deadline_ms: DEADLINE.as_millis() as u64,
        counts,
        shed_p99_us,
        conservation_ok: counts.conserved() && counts_b.conserved(),
        metrics_consistent: metrics_a && metrics_b,
        all_outcomes_expected: unexpected_a.is_empty() && unexpected_b.is_empty(),
        reproducible: counts == counts_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn seed_42_schedule_is_pinned() {
        // The schedule CI replays for seed 42, as `from_seed` produced it
        // before it shared `seeded_deck` with `fleet::FleetFaultPlan`: the
        // helper must not move any seed's schedule.
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
                    ChaosPhase::Normal { requests }
                    | ChaosPhase::PaddedTraffic { requests, .. } => {
                        assert!(requests >= 3)
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_chaos_run_holds_every_invariant() {
        // One pass per phase deck is enough for the unit tier; the CI
        // smoke runs the full two-pass gate in release mode.
        let report = run_chaos_twice(42, 0);
        assert!(report.conservation_ok, "conservation broke: {report:?}");
        assert!(report.metrics_consistent, "metrics diverged: {report:?}");
        assert!(report.all_outcomes_expected, "bad outcomes: {report:?}");
        assert!(report.reproducible, "counts not reproducible: {report:?}");
        assert!(report.counts.shed > 0, "plan never shed: {report:?}");
        assert!(report.counts.expired > 0, "plan never expired: {report:?}");
        assert!(
            report.counts.degraded > 0,
            "plan never degraded: {report:?}"
        );
        assert!(report.counts.failed > 0, "plan never failed: {report:?}");
        let text = report.to_json().to_string();
        assert!(text.contains("\"schema\":\"st-transrec-chaos/v1\""));
        assert!(text.contains("\"reproducible\":true"));
        assert!(!text.contains('\n'), "the report is one line");
    }
}
