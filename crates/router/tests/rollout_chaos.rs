//! Fleet chaos over real TCP: replica deaths, hung batchers and
//! rolling rollouts, with the three fleet invariants held end to end:
//!
//! 1. The rollout **pauses** at the dead shard (it never skips ahead or
//!    abandons verification) and resumes exactly there after rejoin.
//! 2. **Epochs never mix for one user**: every user's observed
//!    `X-Model-Epoch` sequence is non-decreasing for the whole run, in
//!    every city they ask about — the crossing-city traveller is one
//!    user, wherever they go — and a user pinned to the new generation
//!    is shed (`503` + Retry-After) rather than answered by an
//!    old-generation replica.
//! 3. **Conservation**: every submitted request is accounted for —
//!    `submitted = served + shed` — and the router's ledger agrees
//!    with the client-side tally.
//!
//! The first tests script one scenario each: a mid-rollout replica
//! death, its resume over HTTP, and the pin rule when the *upgraded*
//! owner itself dies (the one case where serving at all would mix
//! epochs). Then a rollout runs under closed-loop load and must lose
//! nothing, and a seeded [`FleetFaultPlan`] mixing kills, hangs and
//! rollouts is replayed twice against fresh fleets.

mod common;

use common::{FleetFixture, BREAKER_THRESHOLD};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_router::{BreakerState, ReplicaId, RolloutConfig, RolloutDriver, RolloutStep};
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::metrics::scrape_gauge;
use st_serve::server::ServeConfig;
use st_serve::BatchConfig;
use st_tensor::StorageEncoding;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client-side tally across the whole run.
#[derive(Default)]
struct Tally {
    submitted: usize,
    served: usize,
}

/// One request per tracked user and city of the fixture: everyone must
/// be served (`200`), and nobody's `X-Model-Epoch` may regress — the
/// client-visible form of "epochs never mix per user", which holds
/// across remaps and across cities too. The floor is per user, not per
/// (user, city): a traveller who saw the new generation in one city
/// must not meet the old one in the next.
fn sweep(
    client: &mut HttpClient,
    users: &[u32],
    cities: usize,
    last_epoch: &mut HashMap<u32, u64>,
    tally: &mut Tally,
) {
    for &user in users {
        for city in 0..cities {
            tally.submitted += 1;
            let resp = client
                .get(&format!("/recommend?user={user}&city={city}&k=4"))
                .expect("request resolves");
            assert_eq!(resp.status, 200, "user {user} city {city}: {}", resp.body);
            tally.served += 1;
            let epoch: u64 = resp
                .header("x-model-epoch")
                .expect("epoch header")
                .parse()
                .expect("numeric epoch");
            let floor = last_epoch.entry(user).or_insert(epoch);
            assert!(
                epoch >= *floor,
                "user {user} regressed from epoch {floor} to {epoch} in city {city}"
            );
            *floor = epoch;
        }
    }
}

#[test]
fn replica_death_mid_rollout_pauses_without_mixing_epochs() {
    let mut fx = FleetFixture::start("rollout-chaos", 3, ServeConfig::default());
    // Two users on the shard that upgrades first, one on each other.
    let mut users: Vec<u32> = fx.users_owned_by(0, 2);
    users.push(fx.user_owned_by(1));
    users.push(fx.user_owned_by(2));
    let cities = fx.dataset.cities().len();
    assert!(cities >= 2, "a traveller needs a city besides home");
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");
    let mut last_epoch = HashMap::new();
    let mut tally = Tally::default();

    // Baseline traffic at epoch 1.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // Publish generation 2 and start the rollout.
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    let fleet = fx.fleet.clone();
    let mut driver = RolloutDriver::new(
        &fleet,
        RolloutConfig {
            expect_format: Some(StorageEncoding::F32),
        },
    );

    // Shard 0 upgrades and verifies; its users see epoch 2 and pin.
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(0),
            epoch: 2
        },
        "first step"
    );
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert!(fx.fleet.pinned_count() >= 2, "shard-0 users are pinned");

    // Replica 1 dies before its turn. The rollout pauses — and keeps
    // pausing at the same shard — until it rejoins.
    fx.kill_replica(1);
    fx.probe_down();
    for _ in 0..2 {
        match driver.step() {
            RolloutStep::Paused { replica, reason } => {
                assert_eq!(replica, ReplicaId(1));
                assert_eq!(reason, "replica down");
            }
            other => panic!("expected pause at dead shard, got {other:?}"),
        }
    }
    assert!(fx.fleet.rollout_active(), "rollout holds position");

    // Mid-pause traffic: shard 1's user remaps to a live successor (old
    // or new generation — either is fine for an unpinned user) and
    // nobody's epoch regresses.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // The corpse rejoins on a fresh port; the driver resumes exactly
    // where it paused — shard 1, then shard 2 — and verification still
    // gates every step.
    fx.rejoin_replica(1);
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(1),
            epoch: 2
        },
        "resumes at the paused shard"
    );
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(2),
            epoch: 2
        }
    );
    assert_eq!(driver.step(), RolloutStep::Done);
    assert!(!fx.fleet.rollout_active());
    assert_eq!(fx.fleet.pinned_count(), 0, "pins drop with the rollout");

    // Post-rollout traffic: everyone lands on epoch 2.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    for (&user, &epoch) in &last_epoch {
        assert_eq!(epoch, 2, "user {user} never reached the new generation");
    }

    // Conservation: nothing was lost across death, pause, and resume —
    // and the router's ledger agrees with the client-side tally.
    assert_eq!(tally.submitted, 5 * users.len() * cities, "five sweeps");
    assert_eq!(tally.submitted, tally.served);
    let metrics = client.get("/metrics").expect("metrics");
    let scrape = |name: &str| -> usize {
        metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(scrape("st_router_forwarded_total "), tally.served);
    assert_eq!(
        scrape("st_router_recommend_requests_total "),
        tally.submitted
    );
    assert_eq!(scrape("st_router_epoch_pin_503_total "), 0);
    assert!(
        scrape("st_router_remapped_total ") >= 1,
        "the dead shard's traffic was never diverted"
    );

    fx.shutdown();
}

#[test]
fn reposting_admin_reload_resumes_paused_rollout_over_http() {
    // The HTTP path builds a fresh RolloutDriver per POST; this drives
    // pause/resume purely through /admin/reload to prove a re-POST
    // continues the paused rollout (preserving upgraded shards and
    // pins) instead of restarting it.
    let mut fx = FleetFixture::start("rollout-resume", 3, ServeConfig::default());
    let users: Vec<u32> = (0..3).map(|shard| fx.user_owned_by(shard)).collect();
    let cities = fx.dataset.cities().len();
    assert!(cities >= 2, "a traveller needs a city besides home");
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");
    let mut last_epoch = HashMap::new();
    let mut tally = Tally::default();
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // Publish generation 2, kill shard 1, and start the rollout: shard 0
    // upgrades, then the rollout pauses at the corpse.
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    fx.kill_replica(1);
    fx.probe_down();
    let paused = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(paused.status, 503, "body: {}", paused.body);
    assert!(
        paused.body.contains("\"completed\":false"),
        "{}",
        paused.body
    );
    assert!(
        paused.body.contains("{\"replica\":0,\"model_epoch\":2}"),
        "shard 0 upgraded before the pause: {}",
        paused.body
    );

    // Shard 0's user is served by the new generation and pins to it.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert_eq!(last_epoch[&users[0]], 2);
    assert!(fx.fleet.pinned_count() >= 1, "shard-0 user is pinned");

    // Re-POST while the shard is still down: the rollout must *resume*
    // at shard 1 — not restart. A restart would re-reload shard 0
    // (bumping it to epoch 3) and clear the pin set.
    let still = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(still.status, 503, "body: {}", still.body);
    assert!(
        still.body.contains("\"upgraded\":[]"),
        "resume must not re-upgrade shard 0: {}",
        still.body
    );
    assert!(fx.fleet.pinned_count() >= 1, "resume must not clear pins");
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert_eq!(
        last_epoch[&users[0]], 2,
        "shard 0 must not be reloaded twice"
    );

    // Rejoin and re-POST: the rollout finishes from where it paused,
    // upgrading exactly shards 1 and 2.
    fx.rejoin_replica(1);
    let done = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(done.status, 200, "body: {}", done.body);
    assert!(done.body.contains("\"completed\":true"), "{}", done.body);
    assert!(
        done.body.contains(
            "\"upgraded\":[{\"replica\":1,\"model_epoch\":2},{\"replica\":2,\"model_epoch\":2}]"
        ),
        "resume finishes the remaining shards only: {}",
        done.body
    );
    assert!(!fx.fleet.rollout_active());
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    for (&user, &epoch) in &last_epoch {
        assert_eq!(epoch, 2, "user {user} never reached the new generation");
    }
    assert_eq!(tally.submitted, 4 * users.len() * cities, "four sweeps");
    assert_eq!(tally.submitted, tally.served, "nothing lost across resume");

    // The ledger distinguishes the fresh start from the two resumes.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("st_router_rollouts_started_total 1"));
    assert!(metrics.body.contains("st_router_rollouts_resumed_total 2"));
    assert!(metrics
        .body
        .contains("st_router_rollouts_completed_total 1"));

    fx.shutdown();
}

#[test]
fn pinned_users_shed_when_their_upgraded_owner_dies() {
    // The pin rule in isolation, on a 2-replica fleet: once a user is
    // served by the new generation, the only acceptable answers are
    // new-generation or 503 — never the old model.
    let mut fx = FleetFixture::start("pin-floor", 2, ServeConfig::default());
    let user = fx.user_owned_by(0);
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");

    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    let fleet = fx.fleet.clone();
    let mut driver = RolloutDriver::new(&fleet, RolloutConfig::default());
    assert!(matches!(driver.step(), RolloutStep::Upgraded { .. }));

    let path = format!("/recommend?user={user}&city=1&k=5");
    let resp = client.get(&path).expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-model-epoch"), Some("2"));
    assert_eq!(fx.fleet.pinned_count(), 1);

    // The upgraded owner dies; the ring successor is old-generation, so
    // the pinned user is shed until the rollout catches up.
    fx.kill_replica(0);
    fx.probe_down();
    let shed = client.get(&path).expect("request");
    assert_eq!(shed.status, 503, "body: {}", shed.body);
    assert!(shed.body.contains("generation"), "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // An unpinned user of the same dead shard simply remaps.
    let unpinned = fx
        .users_owned_by(0, 4)
        .into_iter()
        .find(|u| *u != user)
        .expect("another shard-0 user");
    let remapped = client
        .get(&format!("/recommend?user={unpinned}&city=1&k=5"))
        .expect("request");
    assert_eq!(remapped.status, 200, "body: {}", remapped.body);
    assert_eq!(remapped.header("x-router-replica"), Some("1"));

    // After rejoin the paused rollout finishes (upgrading shard 1), and
    // the pinned user is served again by a verified new-generation
    // replica.
    fx.rejoin_replica(0);
    let report = driver.run();
    assert!(report.completed, "paused: {:?}", report.paused);
    let back = client.get(&path).expect("request");
    assert_eq!(back.status, 200, "body: {}", back.body);

    fx.shutdown();
}

// ---------------------------------------------------------------------
// A rollout under load
// ---------------------------------------------------------------------

/// Concurrent clients per shard while the rollout runs.
const CLIENTS_PER_SHARD: usize = 2;
/// Injected per-batch scoring cost, µs: keeps requests in flight across
/// each replica's swap.
const ROLLOUT_PAD_US: u64 = 1000;

#[test]
fn rolling_reload_under_load_loses_no_request() {
    // Cache off, so every request is in a batcher when its replica swaps.
    let serve_config = ServeConfig {
        cache_capacity: 0,
        workers: CLIENTS_PER_SHARD * 2 + 2,
        ..ServeConfig::default()
    };
    let mut fx = FleetFixture::start("rollout-load", 2, serve_config);
    for slot in &fx.replicas {
        // Zero jitter: the pad stands in for inference cost, not noise.
        slot.injector.set_latency_pad(ROLLOUT_PAD_US, 0);
    }
    let addr = fx.router_addr();

    // Publish the next generation for the rollout to pick up.
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for shard in 0..fx.replicas.len() {
        let users = Arc::new(fx.all_users_owned_by(shard));
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
                        .get(&format!("/recommend?user={user}&city=1&k=10"))
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
    let rollout = admin.post("/admin/reload?format=f32").expect("rollout rpc");
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);

    let (mut ok_200, mut non_200) = (0usize, 0usize);
    for handle in handles {
        let (ok, bad) = handle.join().expect("client thread");
        ok_200 += ok;
        non_200 += bad;
    }
    assert_eq!(rollout.status, 200, "body: {}", rollout.body);
    assert!(
        rollout.body.contains("\"completed\":true"),
        "{}",
        rollout.body
    );
    assert_eq!(non_200, 0, "{non_200} lost beside {ok_200} served");

    // The router's ledger agrees: every request forwarded, none shed.
    let metrics = admin.get("/metrics").expect("metrics").body;
    let scrape = |name| scrape_gauge(&metrics, name);
    let requests = Some(ok_200 as u64);
    assert_eq!(scrape("st_router_recommend_requests_total"), requests);
    assert_eq!(scrape("st_router_forwarded_total"), requests);
    assert_eq!(scrape("st_router_rollouts_completed_total"), Some(1));

    fx.shutdown();
}

// ---------------------------------------------------------------------
// Seeded replay
// ---------------------------------------------------------------------

/// Batcher queue capacity of every replica in the replay.
const QUEUE_CAPACITY: usize = 6;
/// Batcher deadline in the replay (hang phases expire against it).
const DEADLINE: Duration = Duration::from_millis(300);

/// One phase of a seeded fleet schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetChaosPhase {
    /// `per_shard` requests to every shard; all `200` from the owner.
    Normal { per_shard: usize },
    /// Kill `victim`: `while_dark` requests see fresh-connect `503`s
    /// until its breaker opens, then fast dark-shard `503`s; after the
    /// probes mark it down, `remapped` requests are served by the ring
    /// successor; it then rejoins on a new port and serves `after`.
    ReplicaOutage {
        victim: u16,
        while_dark: usize,
        remapped: usize,
        after: usize,
    },
    /// Freeze `victim`'s batcher so `hung` parked requests expire: the
    /// relayed Retry-After `503`s are deliberate flow control and must
    /// not trip the breaker. Forced scorer failures (genuine `500`s)
    /// then trip it, `dark` requests see fast rejects, and a forced
    /// half-open closes it with one successful request.
    HangBreaker {
        victim: u16,
        hung: usize,
        dark: usize,
    },
    /// Roll the checkpoint across the fleet one replica at a time, with
    /// `per_shard` requests to every shard after each step.
    RollingReload { per_shard: usize },
}

/// A seeded fleet schedule.
#[derive(Debug, Clone)]
struct FleetFaultPlan {
    replicas: u16,
    phases: Vec<FleetChaosPhase>,
}

impl FleetFaultPlan {
    /// One deck of all four modes (shuffled, then drawn in that order),
    /// `extra_phases` drawn at random, and a closing `Normal` that shows
    /// the fleet recovered. `breaker_threshold` and `queue_capacity`
    /// bound the parameters so every fault manifests: dark windows trip
    /// breakers, hang phases fit in the victim's queue.
    fn from_seed(
        seed: u64,
        replicas: u16,
        breaker_threshold: u32,
        queue_capacity: usize,
        extra_phases: usize,
    ) -> Self {
        assert!(replicas >= 2, "fleet chaos needs at least two replicas");
        let threshold = breaker_threshold as usize;
        assert!(
            queue_capacity >= threshold,
            "hang phases must be able to trip the breaker within the queue"
        );
        let draw = |rng: &mut SmallRng, mode: usize| match mode {
            0 => FleetChaosPhase::Normal {
                per_shard: rng.gen_range(2..=4),
            },
            1 => FleetChaosPhase::ReplicaOutage {
                victim: rng.gen_range(0..replicas),
                while_dark: rng.gen_range(threshold + 1..=queue_capacity.max(threshold + 2)),
                remapped: rng.gen_range(2..=4),
                after: rng.gen_range(1..=3),
            },
            2 => FleetChaosPhase::HangBreaker {
                victim: rng.gen_range(0..replicas),
                hung: rng.gen_range(threshold..=queue_capacity),
                dark: rng.gen_range(1..=3),
            },
            _ => FleetChaosPhase::RollingReload {
                per_shard: rng.gen_range(1..=2),
            },
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut modes: Vec<usize> = (0..4).collect();
        for i in (1..modes.len()).rev() {
            let j = rng.gen_range(0..=i);
            modes.swap(i, j);
        }
        let mut phases: Vec<FleetChaosPhase> =
            modes.into_iter().map(|mode| draw(&mut rng, mode)).collect();
        for _ in 0..extra_phases {
            let mode = rng.gen_range(0..4);
            phases.push(draw(&mut rng, mode));
        }
        phases.push(FleetChaosPhase::Normal { per_shard: 2 });
        Self { replicas, phases }
    }
}

/// The count signature of one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FleetCounts {
    submitted: usize,
    /// `200`s from the user's own shard.
    served: usize,
    /// `200`s from a ring successor while the owner was down.
    served_remapped: usize,
    /// Fresh-connect `503`s before a breaker opened.
    unreachable_503: usize,
    /// Fast `503`s while a breaker was open.
    dark_503: usize,
    /// Relayed deadline `503`s of hang phases (breaker-exempt).
    expired_503: usize,
    /// Relayed forced scorer `500`s (these trip the breaker).
    failed_500: usize,
    breaker_opened: usize,
    breaker_closed: usize,
    rollouts_completed: usize,
}

/// One pass's driving state. Unexpected outcomes are collected, not
/// asserted on the spot: a panic while requests are parked behind a
/// frozen batcher would leave their threads waiting.
struct ChaosDriver {
    fx: FleetFixture,
    client: HttpClient,
    /// Per-shard owned users and a rotating cursor, so request targets
    /// are a pure function of the phase sequence.
    shard_users: Vec<Vec<u32>>,
    cursors: Vec<usize>,
    counts: FleetCounts,
    unexpected: Vec<String>,
}

impl ChaosDriver {
    fn new(replicas: usize) -> Self {
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
        let fx = FleetFixture::start("fleet-chaos", replicas, serve_config);
        let client = HttpClient::connect(fx.router_addr()).expect("connect router");
        let shard_users: Vec<Vec<u32>> = (0..replicas)
            .map(|r| {
                let users = fx.all_users_owned_by(r);
                assert!(!users.is_empty(), "shard {r} owns no users");
                users
            })
            .collect();
        Self {
            fx,
            client,
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

    fn get(&mut self, user: u32) -> HttpResponse {
        self.counts.submitted += 1;
        self.client
            .get(&format!("/recommend?user={user}&city=1&k=10"))
            .expect("request resolves")
    }

    fn expect(&mut self, what: &str, ok: bool, detail: String) {
        if !ok {
            self.unexpected.push(format!("{what}: {detail}"));
        }
    }

    fn breaker(&self, victim: usize) -> BreakerState {
        self.fx
            .fleet
            .replica(ReplicaId(victim as u16))
            .breaker
            .state()
    }

    /// `n` requests to `shard`'s own users, each expecting a `200` routed
    /// by `routed_ok`.
    fn serve_shard(
        &mut self,
        what: &str,
        shard: usize,
        n: usize,
        routed_ok: impl Fn(&str) -> bool,
    ) {
        for _ in 0..n {
            let user = self.next_user(shard);
            let resp = self.get(user);
            let routed = resp.header("x-router-replica").unwrap_or("");
            let ok = resp.status == 200 && routed_ok(routed);
            let detail = format!("user {user}: {} via {routed:?}", resp.status);
            self.expect(what, ok, detail);
        }
    }

    fn run_phase(&mut self, phase: FleetChaosPhase) {
        match phase {
            FleetChaosPhase::Normal { per_shard } => {
                for shard in 0..self.shard_users.len() {
                    let home = shard.to_string();
                    self.serve_shard("normal", shard, per_shard, |r| r == home);
                    self.counts.served += per_shard;
                }
            }
            FleetChaosPhase::ReplicaOutage {
                victim,
                while_dark,
                remapped,
                after,
            } => {
                let victim = victim as usize;
                self.fx.kill_replica(victim);
                // Fresh-connect failures until the breaker opens, then
                // fast dark-shard rejects; the threshold fixes the split.
                for i in 0..while_dark {
                    let user = self.next_user(victim);
                    let resp = self.get(user);
                    let unreachable = i < BREAKER_THRESHOLD as usize;
                    let want = if unreachable { "unreachable" } else { "dark" };
                    self.expect(
                        "outage dark window",
                        resp.status == 503 && resp.body.contains(want),
                        format!("request {i}: {} {}", resp.status, resp.body),
                    );
                    if unreachable {
                        self.counts.unreachable_503 += 1;
                    } else {
                        self.counts.dark_503 += 1;
                    }
                }
                let state = self.breaker(victim);
                self.expect(
                    "outage breaker",
                    state == BreakerState::Open,
                    format!("{state}"),
                );
                self.counts.breaker_opened += 1;
                // Probes mark the corpse down; its keys remap.
                self.fx.probe_down();
                let home = victim.to_string();
                self.serve_shard("outage remap", victim, remapped, |r| r != home);
                self.counts.served_remapped += remapped;
                // Rejoin on a fresh port: the probe restores health and
                // resets the breaker; traffic returns home.
                self.fx.rejoin_replica(victim);
                self.counts.breaker_closed += 1;
                self.serve_shard("outage rejoin", victim, after, |r| r == home);
                self.counts.served += after;
            }
            FleetChaosPhase::HangBreaker { victim, hung, dark } => {
                let victim = victim as usize;
                let injector = self.fx.replicas[victim].injector.clone();
                injector.freeze();
                // Park `hung` requests in the frozen queue, hold the
                // freeze past the deadline, thaw: each comes back a
                // relayed 503 shed (deadline-exceeded + Retry-After).
                let addr = self.fx.router_addr();
                let users: Vec<u32> = (0..hung).map(|_| self.next_user(victim)).collect();
                self.counts.submitted += hung;
                let sheds: Vec<(u16, bool)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = users
                        .iter()
                        .map(|&user| {
                            scope.spawn(move || {
                                let mut c = HttpClient::connect(addr).expect("connect");
                                let resp = c
                                    .get(&format!("/recommend?user={user}&city=1&k=10"))
                                    .expect("parked request resolves");
                                (resp.status, resp.header("retry-after").is_some())
                            })
                        })
                        .collect();
                    self.fx.wait_for_depth(victim, hung);
                    std::thread::sleep(DEADLINE + DEADLINE);
                    injector.thaw();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for (i, (status, retry_after)) in sheds.into_iter().enumerate() {
                    self.expect(
                        "hang expiry",
                        status == 503 && retry_after,
                        format!("parked request {i}: {status} retry-after={retry_after}"),
                    );
                }
                self.counts.expired_503 += hung;
                // Deliberate sheds are breaker-exempt: `hung` overload
                // 503s (≥ threshold) must leave the shard lit.
                let state = self.breaker(victim);
                self.expect(
                    "hang sheds breaker-exempt",
                    state == BreakerState::Closed,
                    format!("{state}"),
                );
                // Trip the breaker with *unexpected* 5xx: the next
                // `threshold` batches fail their scorer.
                injector.fail_next_batches(u64::from(BREAKER_THRESHOLD));
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
                let state = self.breaker(victim);
                self.expect(
                    "hang breaker open",
                    state == BreakerState::Open,
                    format!("{state}"),
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
                // Half-open admits exactly one probe request; the thawed
                // replica answers and the breaker closes.
                let replica = ReplicaId(victim as u16);
                self.fx.fleet.replica(replica).breaker.force_half_open();
                let user = self.next_user(victim);
                let status = self.get(user).status;
                let state = self.breaker(victim);
                self.expect(
                    "hang recovery",
                    status == 200 && state == BreakerState::Closed,
                    format!("{status} then {state}"),
                );
                self.counts.served += 1;
                self.counts.breaker_closed += 1;
            }
            FleetChaosPhase::RollingReload { per_shard } => {
                // Roll the checkpoint across the fleet shard by shard
                // (reloading the same file still bumps each epoch),
                // with traffic between steps.
                let fleet = self.fx.fleet.clone();
                let mut driver = RolloutDriver::new(&fleet, RolloutConfig::default());
                loop {
                    match driver.step() {
                        RolloutStep::Upgraded { .. } => {
                            for shard in 0..self.shard_users.len() {
                                self.serve_shard("rollout traffic", shard, per_shard, |_| true);
                                self.counts.served += per_shard;
                            }
                        }
                        RolloutStep::Done => break,
                        RolloutStep::Paused { replica, reason } => {
                            self.expect("rollout pause", false, format!("at {replica}: {reason}"));
                            driver.abort();
                            break;
                        }
                    }
                }
                self.counts.rollouts_completed += 1;
            }
        }
    }
}

/// Replays `plan` once against a fresh fleet and returns its count
/// signature, after asserting that every response was the one its phase
/// predicts, that the counts conserve, and that the router's ledger
/// agrees with them.
fn run_chaos_pass(plan: &FleetFaultPlan) -> FleetCounts {
    let mut driver = ChaosDriver::new(plan.replicas as usize);
    for &phase in &plan.phases {
        driver.run_phase(phase);
    }
    let ChaosDriver {
        fx,
        mut client,
        counts: c,
        unexpected,
        ..
    } = driver;
    assert!(
        unexpected.is_empty(),
        "unexpected outcomes: {unexpected:#?}"
    );
    assert_eq!(
        c.served
            + c.served_remapped
            + c.unreachable_503
            + c.dark_503
            + c.expired_503
            + c.failed_500,
        c.submitted,
        "conservation: {c:?}"
    );

    let metrics = client.get("/metrics").expect("metrics").body;
    let scrape = |name| scrape_gauge(&metrics, name).map(|v| v as usize);
    let forwarded = c.served + c.served_remapped + c.expired_503 + c.failed_500;
    assert_eq!(
        scrape("st_router_recommend_requests_total"),
        Some(c.submitted)
    );
    assert_eq!(scrape("st_router_forwarded_total"), Some(forwarded));
    assert_eq!(
        scrape("st_router_forward_errors_total"),
        Some(c.unreachable_503)
    );
    assert_eq!(scrape("st_router_dark_shard_503_total"), Some(c.dark_503));
    assert_eq!(scrape("st_router_epoch_pin_503_total"), Some(0));
    assert_eq!(scrape("st_router_remapped_total"), Some(c.served_remapped));
    fx.shutdown();
    c
}

#[test]
fn seeded_fleet_chaos_holds_every_invariant() {
    // What CI replays on the optimized build: seed 42, two phases past
    // the deck, three replicas, two passes against fresh fleets.
    let plan = FleetFaultPlan::from_seed(42, 3, BREAKER_THRESHOLD, QUEUE_CAPACITY, 2);
    let first = run_chaos_pass(&plan);
    assert_eq!(
        first,
        FleetCounts {
            submitted: 71,
            served: 44,
            served_remapped: 2,
            unreachable_503: 3,
            dark_503: 6,
            expired_503: 10,
            failed_500: 6,
            breaker_opened: 3,
            breaker_closed: 3,
            rollouts_completed: 1,
        }
    );
    assert_eq!(run_chaos_pass(&plan), first, "same seed, same counts");
}

#[test]
fn seed_42_schedule_is_pinned() {
    // The schedule CI replays for seed 42: no change to the plan may
    // move any seed's schedule.
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
