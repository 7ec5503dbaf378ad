//! Fleet fault plans over real TCP: replica deaths, hung batchers and
//! rolling rollouts, all run by one executor (`run_pass`) that holds
//! every answer to the three fleet invariants:
//!
//! 1. A rollout **pauses** at a dead shard (it never skips ahead or
//!    abandons verification) and resumes exactly there after rejoin.
//! 2. **Epochs never mix for one user**: a `200`'s `X-Model-Epoch` is
//!    the epoch of the replica that answered, and never below the
//!    highest this user has seen in any city — the crossing-city
//!    traveller is one user, wherever they go. A user pinned to the new
//!    generation is shed (`503` + Retry-After) rather than answered by
//!    an old-generation replica.
//! 3. **Conservation**: every submitted request is accounted for, and
//!    the router's ledger agrees with the executor's tally.
//!
//!
//! A named plan is one scripted scenario (a replica death mid-rollout,
//! a replica death behind the breaker, a rollout under load, ...) whose
//! test pins its counts; a seeded [`FleetFaultPlan`] mixes kills, hangs
//! and rollouts and is replayed twice against fresh fleets. The tests
//! live in `rollout_chaos.rs` and `e2e.rs`.

use super::{FleetFixture, BREAKER_THRESHOLD};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_router::{BreakerState, ReplicaId, RolloutConfig, RolloutDriver, RolloutStep, RouteKey};
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::metrics::scrape_gauge;
use st_serve::server::ServeConfig;
use st_serve::BatchConfig;
use st_tensor::StorageEncoding;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use Expect::*;
use FleetChaosPhase::*;
use Outcome::*;

/// Batcher queue capacity of every replica.
pub const QUEUE_CAPACITY: usize = 6;
/// Batcher deadline (hang phases expire against it).
const DEADLINE: Duration = Duration::from_millis(300);
/// Injected per-batch scoring cost of a loaded rollout, µs: keeps
/// requests in flight across each replica's swap.
const LOAD_PAD_US: u64 = 1000;
/// The pause reason of a rollout step at a dead shard.
pub const DOWN: &str = "replica down";
/// Every driver step verifies the f32 checkpoint the fixture writes.
const F32: RolloutConfig = RolloutConfig {
    expect_format: Some(StorageEncoding::F32),
};

/// One phase of a fleet schedule. The first four make up
/// [`FleetFaultPlan::from_seed`]'s deck; the rest are named plans' only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetChaosPhase {
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
    /// [`Hang`] on `victim`, then forced scorer failures (genuine
    /// `500`s) trip its breaker, `dark` requests see fast rejects, and a
    /// forced half-open closes it with one successful request.
    HangBreaker {
        victim: u16,
        hung: usize,
        dark: usize,
    },
    /// Roll the checkpoint across the fleet one replica at a time, with
    /// `per_shard` requests to every shard after each step.
    RollingReload { per_shard: usize },
    /// Rename the next generation (trained before the client connects)
    /// over the checkpoint.
    Publish,
    /// Kill this replica and probe it down, with no request between.
    Kill(u16),
    /// Boot this replica again at its predecessor's epoch, probe it up.
    Rejoin(u16),
    /// The first this many users of every shard (all, for `usize::MAX`),
    /// each in every city; whatever answers come back are booked, none is
    /// expected.
    Sweep(usize),
    /// Freeze `victim`'s batcher so `hung` parked requests expire: the
    /// relayed Retry-After `503`s are deliberate flow control and must
    /// not trip the breaker.
    Hang { victim: u16, hung: usize },
    /// One step of a fresh rollout driver, which must report this.
    Step(Expect),
    /// `POST /admin/reload` through the router: the rollout upgrades
    /// `upgraded` in order, then completes or pauses at `paused`.
    AdminReload {
        format: Option<&'static str>,
        upgraded: &'static [u16],
        paused: Option<(u16, &'static str)>,
    },
    /// This many clients per shard send requests without a pause while
    /// `POST /admin/reload?format=f32` rolls the fleet; every request
    /// must be served.
    LoadedRollout(usize),
}

/// What one rollout driver step must report (a pause is at a dead shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Upgraded(u16),
    Paused(u16),
    Done,
}

/// A fleet schedule: named, or expanded from a seed.
#[derive(Debug, Clone)]
pub struct FleetFaultPlan {
    pub replicas: u16,
    pub phases: Vec<FleetChaosPhase>,
}

impl FleetFaultPlan {
    /// One deck of all four modes (shuffled, then drawn in that order),
    /// `extra_phases` drawn at random, and a closing `Normal` that shows
    /// the fleet recovered. `breaker_threshold` and `queue_capacity`
    /// bound the parameters so every fault manifests: dark windows trip
    /// breakers, hang phases fit in the victim's queue.
    pub fn from_seed(
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
            0 => Normal {
                per_shard: rng.gen_range(2..=4),
            },
            1 => ReplicaOutage {
                victim: rng.gen_range(0..replicas),
                while_dark: rng.gen_range(threshold + 1..=queue_capacity.max(threshold + 2)),
                remapped: rng.gen_range(2..=4),
                after: rng.gen_range(1..=3),
            },
            2 => HangBreaker {
                victim: rng.gen_range(0..replicas),
                hung: rng.gen_range(threshold..=queue_capacity),
                dark: rng.gen_range(1..=3),
            },
            _ => RollingReload {
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
        phases.push(Normal { per_shard: 2 });
        Self { replicas, phases }
    }
}

/// The count signature of one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetCounts {
    pub submitted: usize,
    /// `200`s from the user's own shard.
    pub served: usize,
    /// `200`s from another replica (health remap or rollout diversion).
    pub served_remapped: usize,
    /// Fresh-connect `503`s before a breaker opened.
    pub unreachable_503: usize,
    /// Fast `503`s while a breaker was open.
    pub dark_503: usize,
    /// Relayed deadline `503`s of hang phases (breaker-exempt).
    pub expired_503: usize,
    /// Relayed forced scorer `500`s (these trip the breaker).
    pub failed_500: usize,
    /// `503`s that kept a pinned user off the old generation.
    pub pinned_503: usize,
    pub breaker_opened: usize,
    pub breaker_closed: usize,
    pub rollouts_completed: usize,
}

/// What one `/recommend` answer was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Home,
    Remapped,
    Unreachable,
    Dark,
    Expired,
    Failed,
    Pinned,
}

impl FleetCounts {
    fn book(&mut self, outcome: Outcome) {
        *match outcome {
            Home => &mut self.served,
            Remapped => &mut self.served_remapped,
            Unreachable => &mut self.unreachable_503,
            Dark => &mut self.dark_503,
            Expired => &mut self.expired_503,
            Failed => &mut self.failed_500,
            Pinned => &mut self.pinned_503,
        } += 1;
    }
}

/// Names the answer a user of shard `home` got, or `None` for one no
/// phase can produce. The router's own sheds carry Retry-After and no
/// shard stamp; the backend's relayed answers carry the stamp.
fn classify(resp: &HttpResponse, home: usize) -> Option<Outcome> {
    let stamped = resp.header("x-router-replica");
    let shed = |why| {
        resp.status == 503 && resp.header("retry-after") == Some("1") && resp.body.contains(why)
    };
    Some(match (resp.status, stamped) {
        (200, Some(r)) if r == home.to_string() => Home,
        (200, Some(_)) => Remapped,
        (500, Some(_)) if resp.body.contains("scorer failed") => Failed,
        (_, Some(_)) if shed("deadline-exceeded") => Expired,
        (_, None) if shed("unreachable") => Unreachable,
        (_, None) if shed("dark") => Dark,
        (_, None) if shed("generation") => Pinned,
        _ => return None,
    })
}

/// The replica a `200` names and the epoch it stamps.
fn stamp(resp: &HttpResponse) -> Option<(usize, u64)> {
    let replica = resp.header("x-router-replica")?.parse().ok()?;
    Some((replica, resp.header("x-model-epoch")?.parse().ok()?))
}

/// Raises `user`'s epoch floor (one per user, across cities) to `epoch`,
/// or says how the user regressed.
fn raise_floor(floors: &mut HashMap<u32, u64>, user: u32, epoch: u64) -> Result<(), String> {
    let floor = floors.entry(user).or_insert(epoch);
    if epoch < *floor {
        return Err(format!("user {user} went from epoch {floor} to {epoch}"));
    }
    *floor = epoch;
    Ok(())
}

/// One client of a loaded rollout: requests `users` of shard `home` in
/// turn, over every city, until `stop`. Every answer must be a `200`
/// stamped with the answering replica's epoch before or after its
/// reload (`before[r]` or one more), and no user's epoch may go below
/// their floor. Returns the client's counts, floors and surprises.
fn load_client(
    addr: std::net::SocketAddr,
    (home, mut floors, users): (usize, HashMap<u32, u64>, Vec<u32>),
    cities: usize,
    before: &[u64],
    stop: &AtomicBool,
) -> (FleetCounts, HashMap<u32, u64>, Vec<String>) {
    let mut client = HttpClient::connect(addr).expect("connect router");
    let (mut counts, mut unexpected) = (FleetCounts::default(), Vec::new());
    let mut i = 0;
    while !stop.load(Ordering::Acquire) {
        let (user, city) = (users[i % users.len()], i / users.len() % cities);
        i += 1;
        counts.submitted += 1;
        let resp = client
            .get(&format!("/recommend?user={user}&city={city}&k=10"))
            .expect("request resolves");
        let outcome = classify(&resp, home).filter(|o| matches!(o, Home | Remapped));
        let held = match (outcome, stamp(&resp)) {
            (Some(o), Some((r, epoch))) if (before[r]..=before[r] + 1).contains(&epoch) => {
                counts.book(o);
                raise_floor(&mut floors, user, epoch)
            }
            _ => Err(format!("{} {}", resp.status, resp.body)),
        };
        if let Err(why) = held {
            unexpected.push(format!("loaded rollout, user {user}: {why}"));
        }
    }
    (counts, floors, unexpected)
}

/// One pass's driving state, with the fleet as the executor expects it.
/// Unexpected outcomes are collected, not asserted on the spot: a panic
/// while requests are parked behind a frozen batcher would leave their
/// threads waiting.
struct ChaosDriver {
    fx: FleetFixture,
    client: HttpClient,
    /// Per-shard owned users and a rotating cursor, so request targets
    /// are a pure function of the phase sequence.
    shard_users: Vec<Vec<u32>>,
    cursors: Vec<usize>,
    cities: usize,
    /// The next generation's checkpoint, for `Publish`.
    next_generation: Option<PathBuf>,
    /// Each replica's model epoch.
    epochs: Vec<u64>,
    /// Replicas verified onto the new generation by the active rollout.
    upgraded: Vec<bool>,
    rollout: bool,
    /// Users served by an upgraded replica during the active rollout.
    pins: HashSet<u32>,
    /// Each user's highest epoch seen, in any city.
    floors: HashMap<u32, u64>,
    /// `/admin/reload` POSTs that started, resumed, completed and paused
    /// a rollout.
    posts: [u64; 4],
    counts: FleetCounts,
    unexpected: Vec<String>,
}

impl ChaosDriver {
    fn new(plan: &FleetFaultPlan) -> Self {
        let replicas = plan.replicas as usize;
        let serve_config = ServeConfig {
            batch: BatchConfig {
                queue_capacity: QUEUE_CAPACITY,
                deadline: DEADLINE,
                ..BatchConfig::default()
            },
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut fx = FleetFixture::start("fleet-chaos", replicas, serve_config);
        // Trained before the client connects, which the router drops
        // after 5 s idle: training can take longer on a busy machine.
        let next_generation = plan.phases.contains(&Publish).then(|| {
            fx.oracle.train_epoch(&fx.dataset.clone());
            let path = fx.ckpt.with_file_name("next.bin");
            st_tensor::save_params_atomic(fx.oracle.params(), &path).expect("save generation 2");
            path
        });
        let client = HttpClient::connect(fx.router_addr()).expect("connect router");
        let shard_users: Vec<_> = (0..replicas).map(|r| fx.users_owned_by(r)).collect();
        assert!(
            shard_users.iter().all(|users| users.len() >= 2),
            "{shard_users:?}"
        );
        Self {
            cities: fx.dataset.cities().len(),
            fx,
            client,
            shard_users,
            cursors: vec![0; replicas],
            next_generation,
            epochs: vec![1; replicas],
            upgraded: vec![false; replicas],
            rollout: false,
            pins: HashSet::new(),
            floors: HashMap::new(),
            posts: [0; 4],
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

    fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.unexpected.push(format!("{what}: {}", detail()));
        }
    }

    fn breaker(&self, victim: usize) -> BreakerState {
        let replica = self.fx.fleet.replica(ReplicaId(victim as u16));
        replica.breaker.state()
    }

    fn expect_breaker(&mut self, what: &str, victim: usize, want: BreakerState) {
        let state = self.breaker(victim);
        self.expect(what, state == want, || format!("{state}, wanted {want}"));
    }

    /// Books one answer to `user`. A `200` must carry the answering
    /// replica's epoch, must not take the user below their floor, and
    /// pins the user when an upgraded replica gave it.
    fn book(&mut self, user: u32, resp: &HttpResponse) -> Option<Outcome> {
        let home = self.fx.fleet.static_owner(RouteKey::User(user)).unwrap();
        let outcome = classify(resp, home.0 as usize);
        match outcome {
            Some(o) => self.counts.book(o),
            None => self.expect("answer", false, || {
                format!("user {user}: {} {}", resp.status, resp.body)
            }),
        }
        if matches!(outcome, Some(Home | Remapped)) {
            let (replica, epoch) = stamp(resp).expect("a 200 names its replica and epoch");
            let want = self.epochs[replica];
            self.expect("epoch", epoch == want, || {
                format!("user {user} got epoch {epoch} from replica {replica} at {want}")
            });
            if let Err(why) = raise_floor(&mut self.floors, user, epoch) {
                self.expect("epoch floor", false, || why);
            }
            if self.rollout && self.upgraded[replica] {
                self.pins.insert(user);
            }
        }
        outcome
    }

    fn request(&mut self, user: u32, city: usize) -> Option<Outcome> {
        self.counts.submitted += 1;
        let resp = self
            .client
            .get(&format!("/recommend?user={user}&city={city}&k=10"))
            .expect("request resolves");
        self.book(user, &resp)
    }

    /// `n` requests to `shard`'s own users, cities in turn, each
    /// answered `want`.
    fn expect_n(&mut self, what: &str, shard: usize, n: usize, want: Outcome) {
        for _ in 0..n {
            let user = self.next_user(shard);
            let got = self.request(user, self.counts.submitted % self.cities);
            self.expect(what, got == Some(want), || format!("user {user}: {got:?}"));
        }
    }

    fn begin_rollout(&mut self) {
        if !self.rollout {
            self.rollout = true;
            self.upgraded.fill(false);
        }
    }

    fn finish_rollout(&mut self) {
        self.rollout = false;
        self.upgraded.fill(false);
        self.pins.clear();
        self.counts.rollouts_completed += 1;
    }

    /// One rollout driver step, booked: an upgrade must verify the
    /// replica's next epoch, a pause must be at a dead shard.
    fn step(&mut self, driver: &mut RolloutDriver<'_>) -> RolloutStep {
        let step = driver.step();
        self.begin_rollout();
        match &step {
            RolloutStep::Upgraded { replica, epoch } => {
                let r = replica.0 as usize;
                let want = self.epochs[r] + 1;
                self.expect("upgrade", *epoch == want, || format!("{r} at {epoch}"));
                (self.epochs[r], self.upgraded[r]) = (*epoch, true);
            }
            RolloutStep::Paused { replica, reason } => {
                self.expect("pause", reason == DOWN, || format!("{replica}: {reason}"));
            }
            RolloutStep::Done => self.finish_rollout(),
        }
        step
    }

    /// One `POST /admin/reload`, whose report must be exactly the one
    /// the executor's fleet predicts: `order` upgraded, then completed or
    /// paused.
    fn admin_reload(&mut self, format: Option<&str>, order: &[u16], paused: Option<(u16, &str)>) {
        self.posts[usize::from(self.rollout)] += 1;
        self.begin_rollout();
        let mut report = format!("{{\"completed\":{},\"upgraded\":[", paused.is_none());
        for (i, &r) in order.iter().enumerate() {
            let (r, sep) = (r as usize, if i > 0 { "," } else { "" });
            (self.epochs[r], self.upgraded[r]) = (self.epochs[r] + 1, true);
            let epoch = self.epochs[r];
            let _ = write!(report, "{sep}{{\"replica\":{r},\"model_epoch\":{epoch}}}");
        }
        report.push(']');
        if let Some((r, why)) = paused {
            if why != DOWN {
                // The reload ran; its verification failed.
                self.epochs[r as usize] += 1;
            }
            let _ = write!(
                report,
                ",\"paused\":{{\"replica\":{r},\"reason\":\"{why}\"}}"
            );
            self.posts[3] += 1;
        } else {
            self.posts[2] += 1;
            self.finish_rollout();
        }
        report.push('}');
        let target = match format {
            Some(f) => format!("/admin/reload?format={f}"),
            None => "/admin/reload".into(),
        };
        let resp = self.client.post(&target).expect("rollout rpc");
        let got = (resp.status, resp.body);
        let want = (if paused.is_some() { 503 } else { 200 }, report);
        self.expect("admin reload", got == want, || {
            format!("{got:?}, wanted {want:?}")
        });
    }

    fn down(&mut self, victim: usize) {
        self.fx.probe_down();
        let healthy = self.fx.fleet.replica(ReplicaId(victim as u16)).healthy();
        self.expect("probed down", !healthy, || format!("replica {victim}"));
    }

    /// Rejoins `victim` at its predecessor's epoch: healthy, breaker
    /// closed (a close of the breaker if it was open).
    fn rejoin(&mut self, victim: usize) {
        if self.breaker(victim) == BreakerState::Open {
            self.counts.breaker_closed += 1;
        }
        self.fx.rejoin_replica(victim, self.epochs[victim]);
        self.expect_breaker("rejoin", victim, BreakerState::Closed);
    }

    /// Parks `hung` requests to `victim` behind its frozen batcher, holds
    /// the freeze past the deadline and thaws: each comes back a relayed
    /// `503` shed that leaves the breaker closed.
    fn hang(&mut self, victim: usize, hung: usize) {
        let injector = self.fx.replicas[victim].injector.clone();
        injector.freeze();
        let addr = self.fx.router_addr();
        let first = self.counts.submitted;
        let parked: Vec<_> = (first..first + hung)
            .map(|n| (self.next_user(victim), n % self.cities))
            .collect();
        self.counts.submitted += hung;
        let fx = &self.fx;
        let answers: Vec<HttpResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = parked
                .iter()
                .map(|&(user, city)| {
                    scope.spawn(move || {
                        let mut c = HttpClient::connect(addr).expect("connect");
                        c.get(&format!("/recommend?user={user}&city={city}&k=10"))
                            .expect("parked request resolves")
                    })
                })
                .collect();
            fx.wait_for_depth(victim, hung);
            std::thread::sleep(DEADLINE + DEADLINE);
            injector.thaw();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (&(user, _), resp) in parked.iter().zip(&answers) {
            let got = self.book(user, resp);
            self.expect("hang expiry", got == Some(Expired), || format!("{got:?}"));
        }
        self.expect_breaker("hang sheds breaker-exempt", victim, BreakerState::Closed);
    }

    fn run_phase(&mut self, phase: FleetChaosPhase) {
        let shards = self.shard_users.len();
        match phase {
            Normal { per_shard } => {
                for shard in 0..shards {
                    self.expect_n("normal", shard, per_shard, Home);
                }
            }
            ReplicaOutage {
                victim,
                while_dark,
                remapped,
                after,
            } => {
                let victim = victim as usize;
                self.fx.kill_replica(victim);
                // Fresh-connect failures until the breaker opens, then
                // fast dark-shard rejects; the threshold fixes the split.
                let threshold = BREAKER_THRESHOLD as usize;
                self.expect_n("outage unreachable", victim, threshold, Unreachable);
                self.expect_breaker("outage breaker", victim, BreakerState::Open);
                self.expect_n("outage dark", victim, while_dark - threshold, Dark);
                self.counts.breaker_opened += 1;
                // Probes mark the corpse down; its keys remap.
                self.down(victim);
                self.expect_n("outage remap", victim, remapped, Remapped);
                // The probe restores health and resets the breaker;
                // traffic returns home.
                self.rejoin(victim);
                self.expect_n("outage rejoin", victim, after, Home);
            }
            HangBreaker { victim, hung, dark } => {
                let victim = victim as usize;
                self.hang(victim, hung);
                // Trip the breaker with *unexpected* 5xx: the next
                // `threshold` batches fail their scorer.
                let injector = self.fx.replicas[victim].injector.clone();
                injector.fail_next_batches(u64::from(BREAKER_THRESHOLD));
                let threshold = BREAKER_THRESHOLD as usize;
                self.expect_n("hang scorer failure", victim, threshold, Failed);
                self.expect_breaker("hang breaker", victim, BreakerState::Open);
                self.counts.breaker_opened += 1;
                self.expect_n("hang dark", victim, dark, Dark);
                // Half-open admits exactly one probe request; the thawed
                // replica answers and the breaker closes.
                let replica = ReplicaId(victim as u16);
                self.fx.fleet.replica(replica).breaker.force_half_open();
                self.expect_n("hang recovery", victim, 1, Home);
                self.expect_breaker("hang recovery", victim, BreakerState::Closed);
                self.counts.breaker_closed += 1;
            }
            RollingReload { per_shard } => {
                // Reloading the same file still bumps each epoch.
                let fleet = self.fx.fleet.clone();
                let mut driver = RolloutDriver::new(&fleet, F32);
                loop {
                    match self.step(&mut driver) {
                        RolloutStep::Upgraded { .. } => {
                            for shard in 0..shards {
                                self.expect_n("rollout traffic", shard, per_shard, Home);
                            }
                        }
                        RolloutStep::Done => break,
                        RolloutStep::Paused { .. } => {
                            self.expect("rollout", false, || "paused".into());
                            driver.abort();
                            self.finish_rollout();
                            break;
                        }
                    }
                }
            }
            Publish => {
                let next = self.next_generation.take().expect("one publish per plan");
                std::fs::rename(next, &self.fx.ckpt).expect("publish generation 2");
            }
            Kill(victim) => {
                self.fx.kill_replica(victim as usize);
                self.down(victim as usize);
            }
            Rejoin(victim) => self.rejoin(victim as usize),
            Sweep(per_shard) => {
                for shard in 0..shards {
                    for i in 0..per_shard.min(self.shard_users[shard].len()) {
                        let user = self.shard_users[shard][i];
                        for city in 0..self.cities {
                            self.request(user, city);
                        }
                    }
                }
            }
            Hang { victim, hung } => self.hang(victim as usize, hung),
            Step(expect) => {
                let fleet = self.fx.fleet.clone();
                let step = self.step(&mut RolloutDriver::new(&fleet, F32));
                let ok = match (expect, &step) {
                    (Upgraded(r), RolloutStep::Upgraded { replica, .. }) => replica.0 == r,
                    (Paused(r), RolloutStep::Paused { replica, .. }) => replica.0 == r,
                    (Done, RolloutStep::Done) => true,
                    _ => false,
                };
                self.expect("step", ok, || format!("{step:?}, wanted {expect:?}"));
            }
            AdminReload {
                format,
                upgraded,
                paused,
            } => self.admin_reload(format, upgraded, paused),
            LoadedRollout(clients_per_shard) => self.loaded_rollout(clients_per_shard),
        }
        let fleet = &self.fx.fleet;
        let got = (fleet.rollout_active(), fleet.pinned_count());
        let want = (self.rollout, self.pins.len());
        self.expect("rollout active, pinned", got == want, || {
            format!("{phase:?}: {got:?}, wanted {want:?}")
        });
    }

    fn loaded_rollout(&mut self, clients_per_shard: usize) {
        for slot in &self.fx.replicas {
            // Zero jitter: the pad stands in for inference cost, not noise.
            slot.injector.set_latency_pad(LOAD_PAD_US, 0);
        }
        let (addr, cities, before) = (self.fx.router_addr(), self.cities, self.epochs.clone());
        let all: Vec<u16> = (0..self.epochs.len() as u16).collect();
        let stop = AtomicBool::new(false);
        let tallies: Vec<_> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (home, users) in self.shard_users.iter().enumerate() {
                for t in 0..clients_per_shard {
                    // Disjoint users per client keep each user's
                    // requests in order, so their floors are exact.
                    let mine: Vec<u32> = users[t..]
                        .iter()
                        .step_by(clients_per_shard)
                        .copied()
                        .collect();
                    let floors = mine.iter().filter_map(|u| Some((*u, *self.floors.get(u)?)));
                    let client = (home, floors.collect(), mine);
                    let (before, stop) = (&before, &stop);
                    handles
                        .push(scope.spawn(move || load_client(addr, client, cities, before, stop)));
                }
            }
            // Let traffic establish, roll the fleet, let traffic settle.
            std::thread::sleep(Duration::from_millis(150));
            self.admin_reload(Some("f32"), &all, None);
            std::thread::sleep(Duration::from_millis(150));
            stop.store(true, Ordering::Release);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, floors, unexpected) in tallies {
            self.counts.submitted += c.submitted;
            self.counts.served += c.served;
            self.counts.served_remapped += c.served_remapped;
            self.floors.extend(floors);
            self.unexpected.extend(unexpected);
        }
        for slot in &self.fx.replicas {
            slot.injector.set_latency_pad(0, 0);
        }
    }
}

/// Replays `plan` once against a fresh fleet and returns its count
/// signature, after asserting that every response was one its phase
/// predicts, that the counts conserve, and that the router's ledger
/// agrees with them.
pub fn run_pass(plan: &FleetFaultPlan) -> FleetCounts {
    let mut driver = ChaosDriver::new(plan);
    for &phase in &plan.phases {
        driver.run_phase(phase);
    }
    let c = driver.counts.clone();
    let unexpected = &driver.unexpected;
    assert!(
        unexpected.is_empty(),
        "unexpected outcomes: {unexpected:#?}"
    );
    let forwarded = c.served + c.served_remapped + c.expired_503 + c.failed_500;
    let own = c.unreachable_503 + c.dark_503 + c.pinned_503;
    assert_eq!(forwarded + own, c.submitted, "conservation: {c:?}");

    let metrics = driver.client.get("/metrics").expect("metrics").body;
    let ledger = [
        ("st_router_recommend_requests_total", c.submitted),
        ("st_router_forwarded_total", forwarded),
        ("st_router_forward_errors_total", c.unreachable_503),
        ("st_router_dark_shard_503_total", c.dark_503),
        ("st_router_epoch_pin_503_total", c.pinned_503),
        ("st_router_remapped_total", c.served_remapped),
        ("st_router_breaker_opened_total", c.breaker_opened),
    ];
    let rollouts = ["started", "resumed", "completed", "paused"]
        .map(|what| format!("st_router_rollouts_{what}_total"));
    for (name, want) in ledger
        .map(|(name, want)| (name.to_string(), want as u64))
        .into_iter()
        .chain(rollouts.into_iter().zip(driver.posts))
    {
        assert_eq!(scrape_gauge(&metrics, &name), Some(want), "{name}");
    }
    driver.fx.shutdown();
    c
}

/// Runs a named plan: one scripted scenario's phases on `replicas`.
pub fn run_named(replicas: u16, phases: &[FleetChaosPhase]) -> FleetCounts {
    run_pass(&FleetFaultPlan {
        replicas,
        phases: phases.to_vec(),
    })
}
