//! Fleet membership, health, and routing policy.
//!
//! A [`Fleet`] holds the configured replica set (addresses + per-replica
//! state: health flag, circuit breaker, last verified epoch,
//! rollout generation) plus the static consistent-hash [`HashRing`].
//! Routing walks the key's ring-successor order:
//!
//! - **Membership** (probe-driven health) removes dead replicas from
//!   consideration — their keys remap to the next healthy successor.
//! - **Breakers** do *not* remap: a breaker-open primary is a "dark
//!   shard" answered with `503` + `Retry-After`. Failing over on
//!   breaker state would thrash caches and, during a rollout, could
//!   bounce one user between model generations; shedding for one
//!   cooldown is the PR 5 answer one level up.
//! - **Rollouts** divert users of the in-flight replica to the next
//!   healthy *old-generation* successor until the swap is verified, and
//!   pin any user who has seen a new-generation response to new-only
//!   (a dark `503` beats an epoch regression).

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::ring::{HashRing, ReplicaId, RouteKey};
use st_serve::http::invalid_data;
use st_serve::metrics::{scrape_gauge, scrape_snapshot_format};
use st_serve::HttpClient;
use st_tensor::StorageEncoding;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Consecutive failed probes before a replica is marked down.
pub const DOWN_AFTER: u32 = 2;
/// Connect and read timeout of a health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// Connect timeout of every other socket to a replica: the proxy's
/// forward and the rollout's reload RPC.
pub(crate) const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read timeout of those sockets — generous, because an overloaded
/// replica answers via its own deadline machinery (503
/// deadline-exceeded) and the router must relay that rather than racing
/// it, and because a reload maps a whole checkpoint.
pub(crate) const BACKEND_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Rollout generation label for one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// Serving the pre-rollout snapshot (also the steady-state label).
    Old,
    /// Reload issued but not yet verified: users diverted away.
    InFlight,
    /// Reload verified: serving the new snapshot.
    New,
}

impl Generation {
    fn from_u8(v: u8) -> Generation {
        match v {
            1 => Generation::InFlight,
            2 => Generation::New,
            _ => Generation::Old,
        }
    }
}

/// One configured backend replica.
#[derive(Debug)]
pub struct Replica {
    /// Stable fleet position; also the ring identity.
    pub(crate) id: ReplicaId,
    addr: Mutex<SocketAddr>,
    healthy: AtomicBool,
    probe_failures: AtomicU32,
    /// Per-replica circuit breaker.
    pub breaker: CircuitBreaker,
    /// Model epoch last verified via probe or reload (0 = unknown).
    pub(crate) last_epoch: AtomicU64,
    generation: AtomicU8,
    /// Requests forwarded to this replica.
    pub(crate) forwarded_total: AtomicU64,
}

impl Replica {
    fn new(id: ReplicaId, addr: SocketAddr, breaker: BreakerConfig) -> Self {
        Self {
            id,
            addr: Mutex::new(addr),
            healthy: AtomicBool::new(true),
            probe_failures: AtomicU32::new(0),
            breaker: CircuitBreaker::new(breaker),
            last_epoch: AtomicU64::new(0),
            generation: AtomicU8::new(0),
            forwarded_total: AtomicU64::new(0),
        }
    }

    /// Current address (replicas may rejoin on a fresh port).
    pub fn addr(&self) -> SocketAddr {
        // Never poisoned: the lock only ever guards a copy or a store.
        *self.addr.lock().unwrap()
    }

    /// Whether probes consider this replica alive.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Rollout generation label.
    pub(crate) fn generation(&self) -> Generation {
        Generation::from_u8(self.generation.load(Ordering::Acquire))
    }

    /// Books one probe: the epoch it scraped, or `None` if it failed.
    fn note_probe(&self, epoch: Option<u64>) -> bool {
        let Some(epoch) = epoch else {
            let fails = self.probe_failures.fetch_add(1, Ordering::AcqRel) + 1;
            if fails >= DOWN_AFTER {
                self.healthy.store(false, Ordering::Release);
            }
            return false;
        };
        self.probe_failures.store(0, Ordering::Release);
        self.last_epoch.store(epoch, Ordering::Release);
        if !self.healthy.swap(true, Ordering::AcqRel) {
            // Rejoin: the breaker's failure history belongs to the dead
            // incarnation.
            self.breaker.reset();
        }
        true
    }

    pub(crate) fn set_generation(&self, g: Generation) {
        let v = match g {
            Generation::Old => 0,
            Generation::InFlight => 1,
            Generation::New => 2,
        };
        self.generation.store(v, Ordering::Release);
    }
}

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: u32,
    /// Per-replica breaker config.
    pub breaker: BreakerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            vnodes: 128,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why a request could not be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No healthy replica is eligible for this key.
    NoReplica,
    /// The shard's breaker is open (or probing): shed, do not remap.
    ShardDark(ReplicaId),
    /// The user is pinned to the new generation but only old-generation
    /// replicas are reachable for their key; serving would mix epochs.
    EpochPinned,
}

/// A routing decision: which replica, and under what admission.
#[derive(Debug, Clone)]
pub struct RouteDecision {
    /// Target replica index into [`Fleet::replicas`].
    pub(crate) replica: usize,
    /// Whether the target differs from the key's static ring owner
    /// (health remap or rollout diversion).
    pub(crate) remapped: bool,
}

/// The replica set plus routing state.
pub struct Fleet {
    replicas: Vec<Replica>,
    ring: HashRing,
    rollout_active: AtomicBool,
    /// Key hashes that have been served a new-generation response during
    /// the active rollout; cleared when the rollout finishes.
    pins: Mutex<HashSet<u64>>,
}

impl Fleet {
    /// A fleet over `addrs`, ids assigned by position.
    pub fn new(addrs: &[SocketAddr], config: FleetConfig) -> Self {
        let replicas: Vec<Replica> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| Replica::new(ReplicaId(i as u16), *a, config.breaker))
            .collect();
        let ring = HashRing::with_members(replicas.len() as u16, config.vnodes);
        Self {
            replicas,
            ring,
            rollout_active: AtomicBool::new(false),
            pins: Mutex::new(HashSet::new()),
        }
    }

    /// All replicas in id order.
    pub(crate) fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Replica by id.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.0 as usize]
    }

    /// Fleet size.
    pub(crate) fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Count of probe-healthy replicas.
    pub(crate) fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.healthy()).count()
    }

    // Never poisoned: the set is only probed, grown, counted and cleared
    // under the lock, none of which panics.
    fn pins(&self) -> MutexGuard<'_, HashSet<u64>> {
        self.pins.lock().unwrap()
    }

    /// Whether a rolling rollout is in progress.
    pub fn rollout_active(&self) -> bool {
        self.rollout_active.load(Ordering::Acquire)
    }

    /// The static ring owner for `key`, ignoring health — the anchor the
    /// `remapped` flag and the routing-stability tests compare against.
    pub fn static_owner(&self, key: RouteKey) -> Option<ReplicaId> {
        self.ring.assign(key.hash())
    }

    /// Re-points a replica id at a new address (rejoin after restart).
    /// Ring position is unchanged — identity is the id, not the socket.
    pub fn update_addr(&self, id: ReplicaId, addr: SocketAddr) {
        // Never poisoned: the lock only ever guards a copy or a store.
        *self.replica(id).addr.lock().unwrap() = addr;
    }

    /// Decides where one request for `key` goes, at time `now`.
    pub fn route(&self, key: RouteKey, now: Instant) -> Result<RouteDecision, RouteError> {
        let hash = key.hash();
        let order = self.ring.successors(hash);
        let static_owner = order.first().copied();
        let rollout = self.rollout_active();

        // Primary = first healthy replica in ring order (membership
        // remap only; breaker state intentionally not consulted here).
        let mut primary: Option<ReplicaId> = None;
        for id in &order {
            if self.replica(*id).healthy() {
                primary = Some(*id);
                break;
            }
        }
        let primary = primary.ok_or(RouteError::NoReplica)?;

        let mut target = primary;
        if rollout {
            if self.replica(primary).generation() == Generation::InFlight {
                // Divert this shard's users to the old generation until
                // the swap is verified. If no old replica remains (last
                // shard of the rollout), stay put: the in-flight replica
                // is still serving, just not yet verified.
                let divert = order
                    .iter()
                    .copied()
                    .filter(|id| *id != primary)
                    .find(|id| {
                        let r = self.replica(*id);
                        r.healthy() && r.generation() == Generation::Old
                    });
                if let Some(old) = divert {
                    target = old;
                }
            }
            let pinned = self.pins().contains(&hash);
            if pinned && self.replica(target).generation() != Generation::New {
                // This user has seen the new model; never answer from
                // the old one. A bounded 503 beats an epoch regression.
                return Err(RouteError::EpochPinned);
            }
        }

        let replica = self.replica(target);
        match replica.breaker.admit(now) {
            Admission::Reject => Err(RouteError::ShardDark(target)),
            _ => Ok(RouteDecision {
                replica: target.0 as usize,
                remapped: Some(target) != static_owner,
            }),
        }
    }

    /// Records that `key` was served by `replica` (post-forward): pins
    /// the user to the new generation if that is what answered.
    pub(crate) fn note_served(&self, key: RouteKey, replica: ReplicaId) {
        if self.rollout_active() && self.replica(replica).generation() == Generation::New {
            self.pins().insert(key.hash());
        }
    }

    /// Marks the start of a rolling rollout: every replica is labeled
    /// old-generation and the pin set is cleared.
    pub(crate) fn begin_rollout(&self) {
        for r in &self.replicas {
            r.set_generation(Generation::Old);
        }
        self.pins().clear();
        self.rollout_active.store(true, Ordering::Release);
    }

    /// Marks the end of a rollout: labels reset, pins dropped.
    pub(crate) fn finish_rollout(&self) {
        self.rollout_active.store(false, Ordering::Release);
        for r in &self.replicas {
            r.set_generation(Generation::Old);
        }
        self.pins().clear();
    }

    /// Number of keys currently pinned to the new generation.
    pub fn pinned_count(&self) -> usize {
        self.pins().len()
    }

    /// Probes one replica's `/metrics` endpoint. Success refreshes the
    /// verified epoch and (re)marks the replica healthy, resetting
    /// its breaker on a down→up transition; [`DOWN_AFTER`] consecutive
    /// failures mark it down.
    pub fn probe(&self, id: ReplicaId) -> bool {
        let replica = self.replica(id);
        let scrape = probe_metrics(replica.addr(), PROBE_TIMEOUT);
        replica.note_probe(scrape.ok().map(|s| s.epoch))
    }

    /// Probes every replica once; returns the number of healthy ones.
    pub fn probe_all(&self) -> usize {
        for r in &self.replicas {
            self.probe(r.id);
        }
        self.healthy_count()
    }
}

/// What one `/metrics` probe learned.
pub struct MetricsScrape {
    /// `st_serve_model_epoch`.
    pub(crate) epoch: u64,
    /// The one-hot `st_serve_snapshot_format` label, if present.
    pub(crate) format: Option<StorageEncoding>,
}

/// Scrapes `st_serve_model_epoch` and the snapshot-format one-hot from a
/// replica's `/metrics`, connecting and reading within `timeout` each.
pub fn probe_metrics(addr: SocketAddr, timeout: Duration) -> std::io::Result<MetricsScrape> {
    let resp = HttpClient::connect_with(addr, timeout, timeout)?.get("/metrics")?;
    let epoch = scrape_gauge(&resp.body, "st_serve_model_epoch")
        .filter(|_| resp.status == 200)
        .ok_or_else(|| invalid_data(format!("no epoch gauge in /metrics ({})", resp.status)))?;
    Ok(MetricsScrape {
        epoch,
        format: scrape_snapshot_format(&resp.body),
    })
}

#[cfg(test)]
mod tests {
    //! `Fleet::route` against a clock-free reference fleet. Random
    //! sequences of kills, rejoins, breaker trips and closes, rollout
    //! steps and requests drive the fleet and a small model side by side.
    //! After every operation each user's routing decision and the pin
    //! count must agree with the model, and three rules hold on the
    //! fleet's own answers: a pinned user is never routed to the old
    //! generation, a dark shard is shed rather than remapped, and marking
    //! one replica down moves only the keys it owned.

    use super::*;
    use proptest::prelude::*;

    const USERS: u32 = 24;

    /// What the fleet should be, written from the routing rules.
    struct Model {
        up: Vec<bool>,
        open: Vec<bool>,
        generation: Vec<Generation>,
        /// The shard the active rollout works on.
        rollout: Option<usize>,
        pins: HashSet<u32>,
    }

    impl Model {
        /// `user`'s primary (their first healthy replica in ring order)
        /// and target: the primary, or while it is in flight the first
        /// healthy old-generation replica after it, if there is one.
        fn target(&self, fleet: &Fleet, user: u32) -> Option<(usize, usize)> {
            let order = fleet.ring.successors(RouteKey::User(user).hash());
            let mut walk = order.iter().map(|id| id.0 as usize).filter(|&r| self.up[r]);
            let primary = walk.next()?;
            let diverted =
                self.rollout.is_some() && self.generation[primary] == Generation::InFlight;
            let old = walk.find(|&r| diverted && self.generation[r] == Generation::Old);
            Some((primary, old.unwrap_or(primary)))
        }

        fn route(&self, fleet: &Fleet, user: u32) -> Result<(usize, bool), RouteError> {
            let (_, target) = self.target(fleet, user).ok_or(RouteError::NoReplica)?;
            let pinned = self.rollout.is_some() && self.pins.contains(&user);
            if pinned && self.generation[target] != Generation::New {
                return Err(RouteError::EpochPinned);
            }
            if self.open[target] {
                return Err(RouteError::ShardDark(ReplicaId(target as u16)));
            }
            let owner = fleet.static_owner(RouteKey::User(user)).unwrap();
            Ok((target, target != owner.0 as usize))
        }

        /// One rollout driver step without the reload RPC: begin, mark
        /// the next shard in flight, verify it, or finish; a shard that
        /// is down pauses the rollout.
        fn step(&mut self, fleet: &Fleet) {
            let next = match self.rollout {
                Some(next) if next == self.up.len() => return self.finish(fleet),
                Some(next) => next,
                None => {
                    fleet.begin_rollout();
                    self.generation.fill(Generation::Old);
                    self.pins.clear();
                    0
                }
            };
            self.rollout = Some(next);
            if self.up[next] {
                let verified = self.generation[next] == Generation::InFlight;
                let to = [Generation::InFlight, Generation::New][usize::from(verified)];
                fleet.replicas[next].set_generation(to);
                self.generation[next] = to;
                self.rollout = Some(next + usize::from(verified));
            }
        }

        fn finish(&mut self, fleet: &Fleet) {
            fleet.finish_rollout();
            self.rollout = None;
            self.generation.fill(Generation::Old);
            self.pins.clear();
        }
    }

    /// Operation codes of a replay: a kill probes the replica down, a
    /// rejoin probes it up, a trip opens its breaker and a close shuts it,
    /// a step drives the rollout, a finish ends it; anything else serves
    /// the picked user.
    const KILL: u8 = 0;
    const REJOIN: u8 = 1;
    const TRIP: u8 = 2;
    const CLOSE: u8 = 3;
    const STEP: u8 = 4;
    const FINISH: u8 = 5;
    const SERVE: u8 = 6;

    fn test_fleet(replicas: usize) -> Fleet {
        let addrs = vec!["127.0.0.1:1".parse().unwrap(); replicas];
        Fleet::new(&addrs, FleetConfig::default())
    }

    /// The first user whose static owner is replica `owner`.
    fn owned_by(fleet: &Fleet, owner: u16) -> u32 {
        (0..USERS)
            .find(|&u| fleet.static_owner(RouteKey::User(u)) == Some(ReplicaId(owner)))
            .expect("every replica owns a user")
    }

    fn route(fleet: &Fleet, user: u32) -> Result<RouteDecision, RouteError> {
        fleet.route(RouteKey::User(user), Instant::now())
    }

    /// Drives `ops` (code, replica pick, user) through a fleet of
    /// `replicas` and the model side by side, checking the fleet after
    /// every operation; returns the fleet as the last operation left it.
    fn replay(replicas: usize, ops: &[(u8, usize, u32)]) -> Result<Fleet, TestCaseError> {
        let fleet = test_fleet(replicas);
        let mut m = Model {
            up: vec![true; replicas],
            open: vec![false; replicas],
            generation: vec![Generation::Old; replicas],
            rollout: None,
            pins: HashSet::new(),
        };
        let now = Instant::now();
        let decide = |user| {
            let d = fleet.route(RouteKey::User(user), now);
            d.map(|d| (d.replica, d.remapped))
        };
        // Every check names its operation; a failure also prints `ops`.
        let mut check = || -> Result<(), TestCaseError> {
            for (i, &(op, pick, user)) in ops.iter().enumerate() {
                let (r, replica) = (pick % replicas, &fleet.replicas[pick % replicas]);
                match op {
                    KILL => {
                        let before: Vec<_> = (0..USERS)
                            .map(|u| (m.target(&fleet, u), decide(u)))
                            .collect();
                        for _ in 0..DOWN_AFTER {
                            replica.note_probe(None);
                        }
                        m.up[r] = false;
                        for (u, (owners, was)) in (0..USERS).zip(before) {
                            if owners.is_some_and(|(primary, target)| primary != r && target != r) {
                                prop_assert_eq!(decide(u), was, "op {i}: down {r} moved user {u}");
                            }
                        }
                    }
                    REJOIN => {
                        replica.note_probe(Some(1));
                        m.open[r] &= m.up[r];
                        m.up[r] = true;
                    }
                    TRIP => {
                        for _ in 0..BreakerConfig::default().failure_threshold {
                            replica.breaker.record_failure(now);
                        }
                        m.open[r] = true;
                    }
                    CLOSE => {
                        replica.breaker.record_success();
                        m.open[r] = false;
                    }
                    STEP => m.step(&fleet),
                    FINISH => m.finish(&fleet),
                    _ => {
                        if let Ok((target, _)) = decide(user) {
                            fleet.note_served(RouteKey::User(user), ReplicaId(target as u16));
                            if m.rollout.is_some() && m.generation[target] == Generation::New {
                                m.pins.insert(user);
                            }
                        }
                    }
                }
                prop_assert_eq!(fleet.pinned_count(), m.pins.len(), "op {i}: pin count");
                for u in 0..USERS {
                    let got = decide(u);
                    prop_assert_eq!(got, m.route(&fleet, u), "op {i}: user {u}");
                    if let Ok((target, _)) = got {
                        let generation = fleet.replicas[target].generation();
                        let pinned = fleet.rollout_active() && m.pins.contains(&u);
                        let new = generation == Generation::New;
                        prop_assert!(!pinned || new, "op {i}: pinned user {u} on {generation:?}");
                        prop_assert!(!m.open[target], "op {i}: user {u} routed to dark {target}");
                    }
                }
            }
            Ok(())
        };
        check().map_err(|e| TestCaseError::fail(format!("{e}; ops {ops:?}")))?;
        Ok(fleet)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn routing_matches_the_reference_fleet(
            replicas in 2usize..6,
            ops in collection::vec((0u8..8, 0usize..6, 0u32..USERS), 1..100),
        ) {
            replay(replicas, &ops)?;
        }
    }

    // Named replays: one scripted scenario each, checked against the
    // model at every operation and then on the scenario's own user.

    #[test]
    fn routes_to_static_owner_when_all_healthy() {
        let fleet = replay(3, &[(SERVE, 0, 0)]).unwrap();
        for user in 0..USERS {
            let d = route(&fleet, user).unwrap();
            assert!(!d.remapped);
            assert_eq!(
                Some(ReplicaId(d.replica as u16)),
                fleet.static_owner(RouteKey::User(user))
            );
        }
    }

    #[test]
    fn unhealthy_owner_remaps_to_successor() {
        let fleet = replay(3, &[(KILL, 1, 0)]).unwrap();
        let d = route(&fleet, owned_by(&fleet, 1)).unwrap();
        assert!(d.remapped);
        assert_ne!(d.replica, 1);
    }

    #[test]
    fn dark_shard_is_shed_not_remapped() {
        let fleet = replay(3, &[(TRIP, 0, 0)]).unwrap();
        let err = route(&fleet, owned_by(&fleet, 0)).unwrap_err();
        assert_eq!(err, RouteError::ShardDark(ReplicaId(0)));
    }

    #[test]
    fn rollout_diverts_in_flight_shard_to_old_replica() {
        // The first step puts shard 0 in flight; finishing routes home.
        let fleet = replay(3, &[(STEP, 0, 0)]).unwrap();
        let d = route(&fleet, owned_by(&fleet, 0)).unwrap();
        assert!(d.remapped);
        assert_eq!(
            fleet.replicas[d.replica].generation(),
            Generation::Old,
            "diversion must land on the old generation"
        );
        let fleet = replay(3, &[(STEP, 0, 0), (FINISH, 0, 0)]).unwrap();
        assert!(!route(&fleet, owned_by(&fleet, 0)).unwrap().remapped);
    }

    #[test]
    fn pinned_user_never_regresses_to_old_generation() {
        // Shard 0 upgrades and serves its user, who pins; then it dies,
        // and the only fallback is old-generation.
        let user = owned_by(&test_fleet(2), 0);
        let mut ops = vec![(STEP, 0, 0), (STEP, 0, 0), (SERVE, 0, user), (KILL, 0, 0)];
        let fleet = replay(2, &ops).unwrap();
        assert_eq!(fleet.pinned_count(), 1);
        assert_eq!(route(&fleet, user).unwrap_err(), RouteError::EpochPinned);
        ops.push((FINISH, 0, 0));
        assert_eq!(replay(2, &ops).unwrap().pinned_count(), 0);
    }
}
