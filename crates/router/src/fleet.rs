//! Fleet membership, health, and routing policy.
//!
//! A [`Fleet`] holds the configured replica set (addresses + per-replica
//! state: health flag, circuit breaker, last verified epoch/format,
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
use crate::ring::{HashRing, PartitionMode, ReplicaId, RouteKey};
use st_serve::http::invalid_data;
use st_serve::metrics::{scrape_gauge, scrape_snapshot_format};
use st_serve::HttpClient;
use st_tensor::StorageEncoding;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    pub id: ReplicaId,
    addr: Mutex<SocketAddr>,
    healthy: AtomicBool,
    probe_failures: AtomicU32,
    /// Per-replica circuit breaker.
    pub breaker: CircuitBreaker,
    /// Model epoch last verified via probe or reload (0 = unknown).
    pub last_epoch: AtomicU64,
    /// `StorageEncoding::code + 1` last verified (0 = unknown).
    last_format: AtomicU8,
    generation: AtomicU8,
    /// Requests forwarded to this replica.
    pub forwarded_total: AtomicU64,
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
            last_format: AtomicU8::new(0),
            generation: AtomicU8::new(0),
            forwarded_total: AtomicU64::new(0),
        }
    }

    /// Current address (replicas may rejoin on a fresh port).
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().unwrap()
    }

    /// Whether probes consider this replica alive.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Rollout generation label.
    pub fn generation(&self) -> Generation {
        Generation::from_u8(self.generation.load(Ordering::Acquire))
    }

    pub(crate) fn set_generation(&self, g: Generation) {
        let v = match g {
            Generation::Old => 0,
            Generation::InFlight => 1,
            Generation::New => 2,
        };
        self.generation.store(v, Ordering::Release);
    }

    /// Snapshot format last verified on this replica, if known.
    pub fn last_format(&self) -> Option<StorageEncoding> {
        match self.last_format.load(Ordering::Acquire) {
            0 => None,
            v => StorageEncoding::from_code(v - 1),
        }
    }

    pub(crate) fn set_last_format(&self, format: StorageEncoding) {
        self.last_format.store(format.code() + 1, Ordering::Release);
    }
}

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: u32,
    /// Request-to-key mapping.
    pub partition: PartitionMode,
    /// Per-replica breaker config.
    pub breaker: BreakerConfig,
    /// Consecutive failed probes before a replica is marked down.
    pub down_after: u32,
    /// Probe connect/read timeout.
    pub probe_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            vnodes: 128,
            partition: PartitionMode::ByUser,
            breaker: BreakerConfig::default(),
            down_after: 2,
            probe_timeout: Duration::from_millis(500),
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
    pub replica: usize,
    /// Breaker admission for this forward.
    pub admission: Admission,
    /// Whether the target differs from the key's static ring owner
    /// (health remap or rollout diversion).
    pub remapped: bool,
}

/// The replica set plus routing state.
pub struct Fleet {
    replicas: Vec<Replica>,
    ring: HashRing,
    /// Fleet config (public for the router and rollout driver).
    pub config: FleetConfig,
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
            config,
            rollout_active: AtomicBool::new(false),
            pins: Mutex::new(HashSet::new()),
        }
    }

    /// All replicas in id order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Replica by id.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.0 as usize]
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Count of probe-healthy replicas.
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.healthy()).count()
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
            let pinned = self.pins.lock().unwrap().contains(&hash);
            if pinned && self.replica(target).generation() != Generation::New {
                // This user has seen the new model; never answer from
                // the old one. A bounded 503 beats an epoch regression.
                return Err(RouteError::EpochPinned);
            }
        }

        let replica = self.replica(target);
        match replica.breaker.admit(now) {
            Admission::Reject => Err(RouteError::ShardDark(target)),
            admission => Ok(RouteDecision {
                replica: target.0 as usize,
                admission,
                remapped: Some(target) != static_owner,
            }),
        }
    }

    /// Records that `key` was served by `replica` (post-forward): pins
    /// the user to the new generation if that is what answered.
    pub fn note_served(&self, key: RouteKey, replica: ReplicaId) {
        if self.rollout_active() && self.replica(replica).generation() == Generation::New {
            self.pins.lock().unwrap().insert(key.hash());
        }
    }

    /// Marks the start of a rolling rollout: every replica is labeled
    /// old-generation and the pin set is cleared.
    pub fn begin_rollout(&self) {
        for r in &self.replicas {
            r.set_generation(Generation::Old);
        }
        self.pins.lock().unwrap().clear();
        self.rollout_active.store(true, Ordering::Release);
    }

    /// Marks the end of a rollout: labels reset, pins dropped.
    pub fn finish_rollout(&self) {
        self.rollout_active.store(false, Ordering::Release);
        for r in &self.replicas {
            r.set_generation(Generation::Old);
        }
        self.pins.lock().unwrap().clear();
    }

    /// Number of keys currently pinned to the new generation.
    pub fn pinned_count(&self) -> usize {
        self.pins.lock().unwrap().len()
    }

    /// Probes one replica's `/metrics` endpoint. Success refreshes the
    /// verified epoch/format and (re)marks the replica healthy, resetting
    /// its breaker on a down→up transition; `down_after` consecutive
    /// failures mark it down.
    pub fn probe(&self, id: ReplicaId) -> bool {
        let replica = self.replica(id);
        let addr = replica.addr();
        match probe_metrics(addr, self.config.probe_timeout) {
            Ok(scrape) => {
                replica.probe_failures.store(0, Ordering::Release);
                replica.last_epoch.store(scrape.epoch, Ordering::Release);
                if let Some(format) = scrape.format {
                    replica.set_last_format(format);
                }
                if !replica.healthy.swap(true, Ordering::AcqRel) {
                    // Rejoin: the breaker's failure history belongs to
                    // the dead incarnation.
                    replica.breaker.reset();
                }
                true
            }
            Err(_) => {
                let fails = replica.probe_failures.fetch_add(1, Ordering::AcqRel) + 1;
                if fails >= self.config.down_after {
                    replica.healthy.store(false, Ordering::Release);
                }
                false
            }
        }
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
    pub epoch: u64,
    /// The one-hot `st_serve_snapshot_format` label, if present.
    pub format: Option<StorageEncoding>,
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
    use super::*;

    fn test_fleet(n: usize) -> Fleet {
        let addrs: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect();
        Fleet::new(&addrs, FleetConfig::default())
    }

    #[test]
    fn routes_to_static_owner_when_all_healthy() {
        let fleet = test_fleet(3);
        let now = Instant::now();
        for user in 0..50u32 {
            let key = RouteKey::User(user);
            let d = fleet.route(key, now).unwrap();
            assert!(!d.remapped);
            assert_eq!(
                ReplicaId(d.replica as u16),
                fleet.static_owner(key).unwrap()
            );
        }
    }

    #[test]
    fn unhealthy_owner_remaps_to_successor() {
        let fleet = test_fleet(3);
        let now = Instant::now();
        // Find a user owned by replica 1, then mark 1 down.
        let user = (0..1000u32)
            .find(|u| fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(1)))
            .unwrap();
        fleet
            .replica(ReplicaId(1))
            .healthy
            .store(false, Ordering::Release);
        let d = fleet.route(RouteKey::User(user), now).unwrap();
        assert!(d.remapped);
        assert_ne!(d.replica, 1);
    }

    #[test]
    fn dark_shard_is_shed_not_remapped() {
        let fleet = test_fleet(3);
        let now = Instant::now();
        let user = (0..1000u32)
            .find(|u| fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(0)))
            .unwrap();
        for _ in 0..fleet.config.breaker.failure_threshold {
            fleet.replica(ReplicaId(0)).breaker.record_failure(now);
        }
        let err = fleet.route(RouteKey::User(user), now).unwrap_err();
        assert_eq!(err, RouteError::ShardDark(ReplicaId(0)));
    }

    #[test]
    fn rollout_diverts_in_flight_shard_to_old_replica() {
        let fleet = test_fleet(3);
        let now = Instant::now();
        let user = (0..1000u32)
            .find(|u| fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(2)))
            .unwrap();
        fleet.begin_rollout();
        fleet
            .replica(ReplicaId(2))
            .set_generation(Generation::InFlight);
        let d = fleet.route(RouteKey::User(user), now).unwrap();
        assert!(d.remapped);
        assert_eq!(
            fleet.replicas()[d.replica].generation(),
            Generation::Old,
            "diversion must land on the old generation"
        );
        fleet.finish_rollout();
        let d = fleet.route(RouteKey::User(user), now).unwrap();
        assert!(!d.remapped);
    }

    #[test]
    fn pinned_user_never_regresses_to_old_generation() {
        let fleet = test_fleet(2);
        let now = Instant::now();
        let user = (0..1000u32)
            .find(|u| fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(0)))
            .unwrap();
        fleet.begin_rollout();
        fleet.replica(ReplicaId(0)).set_generation(Generation::New);
        fleet.note_served(RouteKey::User(user), ReplicaId(0));
        assert_eq!(fleet.pinned_count(), 1);
        // The upgraded replica dies; the only fallback is old-generation.
        fleet
            .replica(ReplicaId(0))
            .healthy
            .store(false, Ordering::Release);
        let err = fleet.route(RouteKey::User(user), now).unwrap_err();
        assert_eq!(err, RouteError::EpochPinned);
        fleet.finish_rollout();
        assert_eq!(fleet.pinned_count(), 0);
    }
}
