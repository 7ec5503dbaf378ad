//! Fleet-level serving suite behind `chaos fleet`: boots N real
//! `st-serve` replicas plus an `st-router` front tier in-process and
//! proves the two claims the sharded serving tier makes. (What the hop
//! costs is the benchmark's `fleet_hot`, not anything here.)
//!
//! - **Zero-loss rolling reload** — a full rolling snapshot rollout runs
//!   while clients hammer the router; every submitted request must come
//!   back `200`.
//! - **Reproducible fleet chaos** — a seeded [`FleetFaultPlan`] replays
//!   replica kills, batcher hangs, and rolling reloads twice against
//!   fresh fleets; both passes must produce bit-identical count
//!   signatures, conservation must balance, and the router's own ledger
//!   must agree with the client tallies. The plan extends
//!   [`crate::chaos::FaultPlan`] one tier up and lives here, beside the
//!   `run_phase` that gives its phases their meaning.

use crate::chaos::{seeded_deck, Deal};
use crate::json_object_impl;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_router::{
    BreakerConfig, BreakerState, Fleet, FleetConfig, PartitionMode, ReplicaId, RolloutConfig,
    RolloutDriver, RolloutStep, RouteKey, Router, RouterConfig, RouterServer,
};
use st_serve::client::HttpClient;
use st_serve::fault::FaultInjector;
use st_serve::metrics::scrape_gauge;
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::BatchConfig;
use st_transrec_core::{ModelConfig, STTransRec};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Router-breaker threshold used across the suite.
pub const BREAKER_THRESHOLD: u32 = 3;
/// Probe sweeps before a dead replica is marked down.
pub const DOWN_AFTER: u32 = 2;
/// Batcher queue capacity in the chaos fleet.
pub const QUEUE_CAPACITY: usize = 6;
/// Batcher deadline in the chaos fleet (hang phases expire against it).
pub const DEADLINE: Duration = Duration::from_millis(300);

/// Concurrent clients per shard in the rollout run.
pub const CLIENTS_PER_SHARD: usize = 2;
/// Injected per-batch scoring cost in the rollout run, µs: keeps
/// requests in flight across each replica's swap.
const ROLLOUT_PAD_US: u64 = 1000;

/// One phase of a fleet chaos schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetChaosPhase {
    /// Baseline traffic spread across every shard; all answers 200.
    Normal {
        /// Requests per replica's key space.
        per_shard: usize,
    },
    /// Kill one replica: its users see `503`s (fresh-connect failures,
    /// then breaker-open fast rejects) until probes mark it down and
    /// remap them to the ring successor; the replica then rejoins on a
    /// new port and traffic returns to it.
    ReplicaOutage {
        /// Which replica dies (index into the fleet).
        victim: u16,
        /// Requests sent into the dark window. Must exceed the breaker
        /// threshold so the open transition is observed.
        while_dark: usize,
        /// Requests after probes mark the victim down (served remapped).
        remapped: usize,
        /// Requests after the victim rejoins (served by it again).
        after: usize,
    },
    /// Freeze one replica's batcher so queued requests die of deadline
    /// expiry: the backend's Retry-After-stamped 503 sheds are relayed
    /// and must *not* trip the router breaker (deliberate flow control
    /// is breaker-exempt). The phase then forces scorer failures —
    /// genuine unexpected 5xx — on the same replica to trip the breaker,
    /// observes fast dark-shard rejects, forces half-open, and closes it
    /// with a successful probe request.
    HangBreaker {
        /// Which replica hangs (and then fails its scorer).
        victim: u16,
        /// Requests parked in the frozen queue (≥ breaker threshold,
        /// ≤ the harness queue capacity) — enough sheds that the old
        /// 5xx-counts-all accounting would have darkened the shard.
        hung: usize,
        /// Fast dark-shard rejects observed while the breaker is open.
        dark: usize,
    },
    /// Publish a new checkpoint and roll it across the fleet one replica
    /// at a time, interleaving traffic between steps; per-user epochs
    /// must be non-decreasing throughout.
    RollingReload {
        /// Requests per shard between rollout steps.
        per_shard: usize,
    },
}

/// A seeded fleet chaos schedule.
#[derive(Debug, Clone)]
pub struct FleetFaultPlan {
    /// The seed the phases were expanded from.
    pub seed: u64,
    /// Fleet size the plan was sized for.
    pub replicas: u16,
    /// Phases in execution order.
    pub phases: Vec<FleetChaosPhase>,
}

impl FleetFaultPlan {
    /// Expands `seed` into a schedule for a fleet of `replicas`. The
    /// plan covers every fault mode at least once, then appends
    /// `extra_phases` more drawn at random; victims, counts, and order
    /// are fully determined by the seed.
    ///
    /// `breaker_threshold` and `queue_capacity` bound phase parameters
    /// so every scheduled fault actually manifests: dark windows are
    /// long enough to trip breakers, hang phases fit in the victim's
    /// batcher queue.
    pub fn from_seed(
        seed: u64,
        replicas: u16,
        breaker_threshold: u32,
        queue_capacity: usize,
        extra_phases: usize,
    ) -> Self {
        assert!(replicas >= 2, "fleet chaos needs at least two replicas");
        assert!(
            queue_capacity >= breaker_threshold as usize,
            "hang phases must be able to trip the breaker within the queue"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let draw = |rng: &mut SmallRng, idx: usize| -> FleetChaosPhase {
            match idx {
                0 => FleetChaosPhase::Normal {
                    per_shard: rng.gen_range(2..=4),
                },
                1 => FleetChaosPhase::ReplicaOutage {
                    victim: rng.gen_range(0..replicas),
                    while_dark: rng.gen_range(
                        breaker_threshold as usize + 1
                            ..=queue_capacity.max(breaker_threshold as usize + 2),
                    ),
                    remapped: rng.gen_range(2..=4),
                    after: rng.gen_range(1..=3),
                },
                2 => FleetChaosPhase::HangBreaker {
                    victim: rng.gen_range(0..replicas),
                    hung: rng.gen_range(breaker_threshold as usize..=queue_capacity),
                    dark: rng.gen_range(1..=3),
                },
                _ => FleetChaosPhase::RollingReload {
                    per_shard: rng.gen_range(1..=2),
                },
            }
        };
        let mut phases = seeded_deck(&mut rng, 4, extra_phases, Deal::ShuffleThenDraw, draw);
        // Always end on normal traffic: proves the fleet recovered.
        phases.push(FleetChaosPhase::Normal { per_shard: 2 });
        Self {
            seed,
            replicas,
            phases,
        }
    }
}

/// Dataset + trained checkpoint shared by every fleet.
struct FleetFixture {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    oracle: STTransRec,
}

fn build_fixture(tag: &str) -> FleetFixture {
    let cfg = synth::SynthConfig::tiny();
    let (dataset, _) = synth::generate(&cfg);
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(
        &dataset,
        CityId(cfg.target_city as u16),
    ));
    let mut oracle = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    oracle.train_epoch(&dataset);
    let dir = std::env::temp_dir().join(format!("st-fleet-bench-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fleet bench scratch dir");
    let ckpt = dir.join("model.bin");
    st_tensor::save_params_atomic(oracle.params(), &ckpt).expect("save ckpt");
    FleetFixture {
        dataset,
        split,
        ckpt,
        oracle,
    }
}

/// N in-process replicas fronted by one router, all on loopback.
struct FleetHarness {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    serve_config: ServeConfig,
    servers: Vec<Option<Server>>,
    injectors: Vec<Arc<FaultInjector>>,
    fleet: Arc<Fleet>,
    router: Option<RouterServer>,
}

impl FleetHarness {
    fn start(fx: &FleetFixture, n: usize, mut serve_config: ServeConfig, pad_us: u64) -> Self {
        serve_config.addr = "127.0.0.1:0".into();
        let mut harness = Self {
            dataset: fx.dataset.clone(),
            split: fx.split.clone(),
            ckpt: fx.ckpt.clone(),
            serve_config,
            servers: Vec::with_capacity(n),
            injectors: Vec::with_capacity(n),
            fleet: Arc::new(Fleet::new(&[], fleet_config())),
            router: None,
        };
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let (server, injector) = harness.boot_replica(i as u64, pad_us);
            addrs.push(server.local_addr());
            harness.servers.push(Some(server));
            harness.injectors.push(injector);
        }
        harness.fleet = Arc::new(Fleet::new(&addrs, fleet_config()));
        let router = Router::new(
            harness.fleet.clone(),
            RouterConfig {
                workers: 16,
                probe_interval: None, // the harness drives probes itself
                idle_timeout: Duration::from_secs(60),
                ..RouterConfig::default()
            },
        );
        harness.router = Some(RouterServer::start(router).expect("start router"));
        harness
    }

    fn boot_replica(&self, seed: u64, pad_us: u64) -> (Server, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(seed));
        if pad_us > 0 {
            // Zero jitter: the pad is a stand-in for deterministic
            // model-inference cost, not for noise.
            injector.set_latency_pad(pad_us, 0);
        }
        let config = ServeConfig {
            fault: Some(injector.clone()),
            ..self.serve_config.clone()
        };
        let reloader = Reloader::new(
            self.dataset.clone(),
            self.split.clone(),
            ModelConfig::test_small(),
            &self.ckpt,
        );
        let (frozen, bytes) = reloader.load_frozen().expect("load ckpt");
        let engine =
            Engine::new_frozen(self.dataset.clone(), frozen, bytes, Some(reloader), &config);
        let server = Server::start(engine, &config).expect("start replica");
        (server, injector)
    }

    fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").local_addr()
    }

    fn kill(&mut self, id: usize) {
        if let Some(server) = self.servers[id].take() {
            server.shutdown();
        }
    }

    fn rejoin(&mut self, id: usize, pad_us: u64) {
        let (server, injector) = self.boot_replica(1000 + id as u64, pad_us);
        let addr = server.local_addr();
        self.servers[id] = Some(server);
        self.injectors[id] = injector;
        self.fleet.update_addr(ReplicaId(id as u16), addr);
        assert!(self.fleet.probe(ReplicaId(id as u16)), "rejoin probe");
    }

    fn probe_down(&self) {
        for _ in 0..DOWN_AFTER {
            self.fleet.probe_all();
        }
    }

    /// Every dataset user statically owned by replica `id`.
    fn users_owned_by(&self, id: usize) -> Vec<u32> {
        let total = self.dataset.num_users() as u32;
        (0..total)
            .filter(|u| self.fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(id as u16)))
            .collect()
    }

    fn wait_for_depth(&self, id: usize, depth: usize) {
        let server = self.servers[id].as_ref().expect("replica alive");
        let metrics = server.engine().metrics();
        let deadline = Instant::now() + Duration::from_secs(20);
        while metrics.queue_depth.load(Ordering::Relaxed) != depth as u64 {
            assert!(
                Instant::now() < deadline,
                "replica {id} queue never reached {depth}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn shutdown(mut self) {
        for slot in &mut self.servers {
            if let Some(server) = slot.take() {
                server.shutdown();
            }
        }
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        vnodes: 128,
        partition: PartitionMode::ByUser,
        breaker: BreakerConfig {
            failure_threshold: BREAKER_THRESHOLD,
            // Recovery is probe- and harness-driven, never clock-driven,
            // so the chaos signatures cannot race the cooldown.
            cooldown: Duration::from_secs(3600),
        },
        down_after: DOWN_AFTER,
        probe_timeout: Duration::from_millis(500),
    }
}

// ---------------------------------------------------------------------
// Zero-loss rolling reload
// ---------------------------------------------------------------------

/// Outcome of the rolling-reload-under-load scenario.
#[derive(Debug, Clone)]
pub struct RolloutLossResult {
    /// Fleet size.
    pub replicas: usize,
    /// Requests submitted while the rollout ran.
    pub requests: usize,
    /// `200` responses.
    pub ok_200: usize,
    /// Anything else (each one is a lost request).
    pub non_200: usize,
    /// The rollout endpoint reported every shard upgraded and verified.
    pub rollout_completed: bool,
    /// The router's own request ledger matches the client tallies.
    pub ledger_consistent: bool,
    /// `non_200 == 0 && rollout_completed`.
    pub zero_loss: bool,
}

json_object_impl!(RolloutLossResult {
    replicas,
    requests,
    ok_200,
    non_200,
    rollout_completed,
    ledger_consistent,
    zero_loss,
});

fn run_rollout_loss(fx: &mut FleetFixture, replicas: usize) -> RolloutLossResult {
    // Cache off, so every request is in a batcher when its replica swaps.
    let serve_config = ServeConfig {
        cache_capacity: 0,
        workers: CLIENTS_PER_SHARD * 2 + 2,
        ..ServeConfig::default()
    };
    let harness = FleetHarness::start(fx, replicas, serve_config, ROLLOUT_PAD_US);
    let addr = harness.router_addr();
    let target_city = fx.split.target_city.0;

    // Publish the next generation for the rollout to pick up.
    fx.oracle.train_epoch(&fx.dataset);
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for shard in 0..replicas {
        let users = Arc::new(harness.users_owned_by(shard));
        assert!(!users.is_empty(), "shard {shard} owns no users");
        for t in 0..CLIENTS_PER_SHARD {
            let users = users.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect router");
                let (mut ok, mut bad) = (0usize, 0usize);
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let user = users[(t * 31 + i * 7) % users.len()];
                    i += 1;
                    let resp = client
                        .get(&format!("/recommend?user={user}&city={target_city}&k=10"))
                        .expect("request");
                    if resp.status == 200 {
                        ok += 1;
                    } else {
                        bad += 1;
                    }
                }
                (ok, bad)
            }));
        }
    }

    // Let traffic establish, roll the fleet, let traffic settle.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = HttpClient::connect(addr).expect("connect admin");
    let resp = admin.post("/admin/reload?format=f32").expect("rollout rpc");
    let rollout_completed = resp.status == 200 && resp.body.contains("\"completed\":true");
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);

    let (mut ok_200, mut non_200) = (0usize, 0usize);
    for handle in handles {
        let (ok, bad) = handle.join().expect("client thread");
        ok_200 += ok;
        non_200 += bad;
    }
    let requests = ok_200 + non_200;

    // The router's ledger must agree: every submitted request forwarded,
    // none shed.
    let metrics = admin.get("/metrics").expect("metrics").body;
    let scrape = |name| scrape_gauge(&metrics, name);
    let ledger_consistent = scrape("st_router_recommend_requests_total") == Some(requests as u64)
        && scrape("st_router_forwarded_total") == Some(requests as u64)
        && scrape("st_router_rollouts_completed_total") == Some(1);
    harness.shutdown();

    RolloutLossResult {
        replicas,
        requests,
        ok_200,
        non_200,
        rollout_completed,
        ledger_consistent,
        zero_loss: non_200 == 0 && rollout_completed,
    }
}

// ---------------------------------------------------------------------
// Fleet chaos
// ---------------------------------------------------------------------

/// The count signature of one chaos pass. Two passes under the same
/// seed must produce bit-identical values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetCounts {
    /// Requests submitted across all phases.
    pub submitted: usize,
    /// `200`s served by the user's own shard.
    pub served: usize,
    /// `200`s served by a ring successor while the owner was down.
    pub served_remapped: usize,
    /// `503`s from fresh-connect failures before the breaker opened.
    pub unreachable_503: usize,
    /// Fast `503`s while a breaker was open.
    pub dark_503: usize,
    /// Relayed backend `503`s from deadline expiry in hang phases
    /// (deliberate sheds: breaker-exempt).
    pub expired_503: usize,
    /// Relayed backend `500`s from forced scorer failures (unexpected
    /// 5xx: these are what trip the breaker in hang phases).
    pub failed_500: usize,
    /// Breaker open transitions observed.
    pub breaker_opened: usize,
    /// Breakers closed again via half-open probes.
    pub breaker_closed: usize,
    /// Rolling reloads driven to completion.
    pub rollouts_completed: usize,
}

json_object_impl!(FleetCounts {
    submitted,
    served,
    served_remapped,
    unreachable_503,
    dark_503,
    expired_503,
    failed_500,
    breaker_opened,
    breaker_closed,
    rollouts_completed,
});

/// Report of the two-pass chaos replay.
#[derive(Debug, Clone)]
pub struct FleetChaosReport {
    /// Seed the plan was expanded from.
    pub seed: u64,
    /// Fleet size.
    pub replicas: usize,
    /// Phases executed per pass.
    pub phases: usize,
    /// First pass's count signature.
    pub counts: FleetCounts,
    /// `submitted = served + served_remapped + every shed/error class`.
    pub conservation_ok: bool,
    /// Router metrics agree with the client-side tallies.
    pub metrics_consistent: bool,
    /// Both passes produced identical signatures.
    pub reproducible: bool,
}

json_object_impl!(FleetChaosReport {
    seed,
    replicas,
    phases,
    counts,
    conservation_ok,
    metrics_consistent,
    reproducible,
});

impl FleetChaosReport {
    /// Every chaos invariant held.
    pub fn ok(&self) -> bool {
        self.conservation_ok && self.metrics_consistent && self.reproducible
    }
}

/// Executes one full pass of `plan` against a fresh fleet.
struct ChaosDriver {
    harness: FleetHarness,
    client: HttpClient,
    target_city: u16,
    /// Per-shard owned users and a rotating cursor, so request targets
    /// are a pure function of the phase sequence.
    shard_users: Vec<Vec<u32>>,
    cursors: Vec<usize>,
    counts: FleetCounts,
    unexpected: Vec<String>,
}

impl ChaosDriver {
    fn new(fx: &FleetFixture, replicas: usize) -> Self {
        let serve_config = ServeConfig {
            batch: BatchConfig {
                queue_capacity: QUEUE_CAPACITY,
                deadline: DEADLINE,
                ..BatchConfig::default()
            },
            cache_capacity: 0,
            workers: QUEUE_CAPACITY + 2,
            ..ServeConfig::default()
        };
        let harness = FleetHarness::start(fx, replicas, serve_config, 0);
        let client = HttpClient::connect(harness.router_addr()).expect("connect router");
        let shard_users: Vec<Vec<u32>> = (0..replicas)
            .map(|r| {
                let users = harness.users_owned_by(r);
                assert!(!users.is_empty(), "shard {r} owns no users");
                users
            })
            .collect();
        Self {
            harness,
            client,
            target_city: fx.split.target_city.0,
            cursors: vec![0; replicas],
            shard_users,
            counts: FleetCounts::default(),
            unexpected: Vec::new(),
        }
    }

    fn next_user(&mut self, shard: usize) -> u32 {
        let users = &self.shard_users[shard];
        let user = users[self.cursors[shard] % users.len()];
        self.cursors[shard] += 1;
        user
    }

    fn get(&mut self, user: u32) -> st_serve::client::HttpResponse {
        self.counts.submitted += 1;
        self.client
            .get(&format!(
                "/recommend?user={user}&city={}&k=10",
                self.target_city
            ))
            .expect("request resolves")
    }

    fn expect(&mut self, what: &str, ok: bool, detail: String) {
        if !ok {
            self.unexpected.push(format!("{what}: {detail}"));
        }
    }

    fn run_phase(&mut self, phase: &FleetChaosPhase) {
        match *phase {
            FleetChaosPhase::Normal { per_shard } => {
                for shard in 0..self.shard_users.len() {
                    for _ in 0..per_shard {
                        let user = self.next_user(shard);
                        let resp = self.get(user);
                        let routed = resp.header("x-router-replica").map(str::to_owned);
                        self.expect(
                            "normal",
                            resp.status == 200 && routed.as_deref() == Some(&shard.to_string()),
                            format!("user {user}: {} via {routed:?}", resp.status),
                        );
                        self.counts.served += 1;
                    }
                }
            }
            FleetChaosPhase::ReplicaOutage {
                victim,
                while_dark,
                remapped,
                after,
            } => {
                let victim = victim as usize;
                self.harness.kill(victim);
                // Fresh-connect failures until the breaker opens, then
                // fast dark-shard rejects; the split is fixed by the
                // breaker threshold.
                for i in 0..while_dark {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    let expect_unreachable = i < BREAKER_THRESHOLD as usize;
                    let want = if expect_unreachable {
                        "unreachable"
                    } else {
                        "dark"
                    };
                    self.expect(
                        "outage dark window",
                        resp.status == 503 && resp.body.contains(want),
                        format!("request {i}: {} {}", resp.status, resp.body),
                    );
                    if expect_unreachable {
                        self.counts.unreachable_503 += 1;
                    } else {
                        self.counts.dark_503 += 1;
                    }
                }
                let open = self
                    .harness
                    .fleet
                    .replica(ReplicaId(victim as u16))
                    .breaker
                    .state()
                    == BreakerState::Open;
                self.expect("outage breaker", open, "breaker not open".into());
                self.counts.breaker_opened += 1;
                // Probes mark the corpse down; its keys remap.
                self.harness.probe_down();
                for _ in 0..remapped {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    let routed = resp.header("x-router-replica").map(str::to_owned);
                    self.expect(
                        "outage remap",
                        resp.status == 200 && routed.as_deref() != Some(&victim.to_string()),
                        format!("user {user}: {} via {routed:?}", resp.status),
                    );
                    self.counts.served_remapped += 1;
                }
                // Rejoin on a fresh port: probe restores health and
                // resets the breaker; traffic returns home.
                self.harness.rejoin(victim, 0);
                self.counts.breaker_closed += 1;
                for _ in 0..after {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    let routed = resp.header("x-router-replica").map(str::to_owned);
                    self.expect(
                        "outage rejoin",
                        resp.status == 200 && routed.as_deref() == Some(&victim.to_string()),
                        format!("user {user}: {} via {routed:?}", resp.status),
                    );
                    self.counts.served += 1;
                }
            }
            FleetChaosPhase::HangBreaker { victim, hung, dark } => {
                let victim = victim as usize;
                self.harness.injectors[victim].freeze();
                // Park `hung` requests in the frozen queue from parallel
                // connections, hold the freeze past the deadline, thaw:
                // every parked request comes back a relayed 503 shed
                // (deadline-exceeded + Retry-After).
                let addr = self.harness.router_addr();
                let city = self.target_city;
                let users: Vec<u32> = (0..hung).map(|_| self.next_user(victim)).collect();
                self.counts.submitted += hung;
                let sheds: Vec<(u16, bool)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = users
                        .iter()
                        .map(|&user| {
                            scope.spawn(move || {
                                let mut c = HttpClient::connect(addr).expect("connect");
                                let resp = c
                                    .get(&format!("/recommend?user={user}&city={city}&k=10"))
                                    .expect("parked request resolves");
                                (resp.status, resp.header("retry-after").is_some())
                            })
                        })
                        .collect();
                    self.harness.wait_for_depth(victim, hung);
                    std::thread::sleep(DEADLINE + DEADLINE);
                    self.harness.injectors[victim].thaw();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for (i, (status, retry_after)) in sheds.iter().enumerate() {
                    self.expect(
                        "hang expiry",
                        *status == 503 && *retry_after,
                        format!("parked request {i}: {status} retry-after={retry_after}"),
                    );
                    self.counts.expired_503 += 1;
                }
                // Deliberate sheds are breaker-exempt: `hung` consecutive
                // overload 503s (≥ threshold) must leave the shard lit.
                {
                    let breaker = &self.harness.fleet.replica(ReplicaId(victim as u16)).breaker;
                    self.expect(
                        "hang sheds breaker-exempt",
                        breaker.state() == BreakerState::Closed,
                        format!("state {}", breaker.state()),
                    );
                }
                // Now trip the breaker with *unexpected* 5xx: force the
                // next `threshold` batches to fail their scorer; each
                // request comes back a relayed 500.
                self.harness.injectors[victim].fail_next_batches(BREAKER_THRESHOLD as u64);
                for i in 0..BREAKER_THRESHOLD as usize {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    self.expect(
                        "hang scorer failure",
                        resp.status == 500 && resp.body.contains("scorer failed"),
                        format!("request {i}: {} {}", resp.status, resp.body),
                    );
                    self.counts.failed_500 += 1;
                }
                let breaker = &self.harness.fleet.replica(ReplicaId(victim as u16)).breaker;
                self.expect(
                    "hang breaker open",
                    breaker.state() == BreakerState::Open,
                    format!("state {}", breaker.state()),
                );
                self.counts.breaker_opened += 1;
                for i in 0..dark {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    self.expect(
                        "hang dark",
                        resp.status == 503 && resp.body.contains("dark"),
                        format!("request {i}: {} {}", resp.status, resp.body),
                    );
                    self.counts.dark_503 += 1;
                }
                // Half-open: exactly one probe request is admitted; the
                // thawed replica answers and the breaker closes.
                self.harness
                    .fleet
                    .replica(ReplicaId(victim as u16))
                    .breaker
                    .force_half_open();
                let user = self.next_user(victim);
                let resp = self.get(user);
                let breaker = &self.harness.fleet.replica(ReplicaId(victim as u16)).breaker;
                self.expect(
                    "hang recovery",
                    resp.status == 200 && breaker.state() == BreakerState::Closed,
                    format!("{} then {}", resp.status, breaker.state()),
                );
                self.counts.served += 1;
                self.counts.breaker_closed += 1;
            }
            FleetChaosPhase::RollingReload { per_shard } => {
                // Roll the checkpoint across the fleet shard by shard
                // (reloading the same file still bumps each replica's
                // epoch), interleaving traffic between steps.
                let fleet = self.harness.fleet.clone();
                let mut driver = RolloutDriver::new(&fleet, RolloutConfig::default());
                loop {
                    match driver.step() {
                        RolloutStep::Upgraded { .. } => {
                            for shard in 0..self.shard_users.len() {
                                for _ in 0..per_shard {
                                    let user = self.next_user(shard);
                                    let resp = self.get(user);
                                    self.expect(
                                        "rollout traffic",
                                        resp.status == 200,
                                        format!("user {user}: {}", resp.status),
                                    );
                                    self.counts.served += 1;
                                }
                            }
                        }
                        RolloutStep::Done => break,
                        RolloutStep::Paused { replica, reason } => {
                            self.expect(
                                "rollout pause",
                                false,
                                format!("unexpected pause at {replica}: {reason}"),
                            );
                            driver.abort();
                            break;
                        }
                    }
                }
                self.counts.rollouts_completed += 1;
            }
        }
    }

    /// Cross-checks the router's ledger against the client tallies.
    fn metrics_consistent(&mut self) -> bool {
        let metrics = self.client.get("/metrics").expect("metrics").body;
        let scrape = |name| scrape_gauge(&metrics, name);
        let c = &self.counts;
        scrape("st_router_recommend_requests_total") == Some(c.submitted as u64)
            && scrape("st_router_forwarded_total")
                == Some((c.served + c.served_remapped + c.expired_503 + c.failed_500) as u64)
            && scrape("st_router_forward_errors_total") == Some(c.unreachable_503 as u64)
            && scrape("st_router_dark_shard_503_total") == Some(c.dark_503 as u64)
            && scrape("st_router_epoch_pin_503_total") == Some(0)
            && scrape("st_router_remapped_total") == Some(c.served_remapped as u64)
    }
}

fn run_chaos_pass(fx: &FleetFixture, plan: &FleetFaultPlan) -> (FleetCounts, bool, Vec<String>) {
    let mut driver = ChaosDriver::new(fx, plan.replicas as usize);
    for phase in &plan.phases {
        driver.run_phase(phase);
    }
    let metrics_ok = driver.metrics_consistent();
    let ChaosDriver {
        harness,
        counts,
        unexpected,
        ..
    } = driver;
    harness.shutdown();
    (counts, metrics_ok, unexpected)
}

/// Full fleet suite: zero-loss rolling reload and the two-pass chaos
/// replay.
pub fn run_fleet_suite(seed: u64, extra_phases: usize) -> FleetBenchReport {
    let mut fx = build_fixture("suite");

    let rollout = run_rollout_loss(&mut fx, 2);

    let plan = FleetFaultPlan::from_seed(seed, 3, BREAKER_THRESHOLD, QUEUE_CAPACITY, extra_phases);
    let (counts_a, metrics_a, unexpected_a) = run_chaos_pass(&fx, &plan);
    let (counts_b, metrics_b, unexpected_b) = run_chaos_pass(&fx, &plan);
    for line in unexpected_a.iter().chain(&unexpected_b) {
        eprintln!("  chaos unexpected: {line}");
    }
    let c = &counts_a;
    let conservation_ok = c.submitted
        == c.served
            + c.served_remapped
            + c.unreachable_503
            + c.dark_503
            + c.expired_503
            + c.failed_500;
    let chaos = FleetChaosReport {
        seed,
        replicas: plan.replicas as usize,
        phases: plan.phases.len(),
        counts: counts_a.clone(),
        conservation_ok,
        metrics_consistent: metrics_a
            && metrics_b
            && unexpected_a.is_empty()
            && unexpected_b.is_empty(),
        reproducible: counts_a == counts_b,
    };

    let zero_loss_rollout = rollout.zero_loss && rollout.ledger_consistent;
    let acceptance = FleetAcceptance {
        zero_loss_rollout,
        chaos_ok: chaos.ok(),
        all_gates: zero_loss_rollout && chaos.ok(),
    };

    FleetBenchReport {
        schema: "st-loadgen/fleet/v2".into(),
        host_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        clients_per_shard: CLIENTS_PER_SHARD,
        rollout,
        chaos,
        acceptance,
    }
}

/// The acceptance gates the fleet suite must clear.
#[derive(Debug, Clone)]
pub struct FleetAcceptance {
    /// No request lost during the rolling reload, ledger agreed.
    pub zero_loss_rollout: bool,
    /// Chaos conservation + metrics + two-pass reproducibility.
    pub chaos_ok: bool,
    /// Every gate at once (what the binary's exit code reports).
    pub all_gates: bool,
}

json_object_impl!(FleetAcceptance {
    zero_loss_rollout,
    chaos_ok,
    all_gates,
});

/// The full fleet report `chaos fleet` prints.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Hardware threads on the benching host (= scorers per replica).
    pub host_threads: usize,
    /// Concurrent clients per shard in the rollout run.
    pub clients_per_shard: usize,
    /// Rolling reload under load.
    pub rollout: RolloutLossResult,
    /// Two-pass seeded chaos replay.
    pub chaos: FleetChaosReport,
    /// Gate summary.
    pub acceptance: FleetAcceptance,
}

json_object_impl!(FleetBenchReport {
    schema,
    host_threads,
    clients_per_shard,
    rollout,
    chaos,
    acceptance,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_schedule_is_pinned() {
        // The schedule CI replays for seed 42, as `from_seed` produced it
        // before it shared `seeded_deck` with `chaos::FaultPlan`: the
        // helper must not move any seed's schedule.
        let plan = FleetFaultPlan::from_seed(42, 3, BREAKER_THRESHOLD, QUEUE_CAPACITY, 2);
        assert_eq!(
            format!("{:?}", plan.phases),
            "[HangBreaker { victim: 2, hung: 6, dark: 2 }, \
             ReplicaOutage { victim: 0, while_dark: 5, remapped: 2, after: 3 }, \
             Normal { per_shard: 3 }, RollingReload { per_shard: 2 }, \
             HangBreaker { victim: 0, hung: 4, dark: 2 }, Normal { per_shard: 2 }, \
             Normal { per_shard: 2 }]"
        );
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FleetFaultPlan::from_seed(42, 3, 3, 6, 4);
        let b = FleetFaultPlan::from_seed(42, 3, 3, 6, 4);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.phases.len(), 4 + 4 + 1);
    }

    #[test]
    fn different_seeds_differ() {
        let plans: Vec<_> = (0..8u64)
            .map(|s| FleetFaultPlan::from_seed(s, 3, 3, 6, 4).phases)
            .collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn covers_every_mode_and_bounds_parameters() {
        for seed in 0..16u64 {
            let plan = FleetFaultPlan::from_seed(seed, 4, 3, 6, 3);
            let (mut normal, mut outage, mut hang, mut reload) = (0, 0, 0, 0);
            for phase in &plan.phases {
                match *phase {
                    FleetChaosPhase::Normal { per_shard } => {
                        normal += 1;
                        assert!(per_shard >= 1);
                    }
                    FleetChaosPhase::ReplicaOutage {
                        victim, while_dark, ..
                    } => {
                        outage += 1;
                        assert!(victim < 4);
                        assert!(while_dark > 3, "dark window must trip the breaker");
                    }
                    FleetChaosPhase::HangBreaker { victim, hung, .. } => {
                        hang += 1;
                        assert!(victim < 4);
                        assert!((3..=6).contains(&hung));
                    }
                    FleetChaosPhase::RollingReload { per_shard } => {
                        reload += 1;
                        assert!(per_shard >= 1);
                    }
                }
            }
            assert!(normal >= 1 && outage >= 1 && hang >= 1 && reload >= 1);
        }
    }
}
