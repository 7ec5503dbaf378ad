//! Shared in-process fleet fixture for the router integration tests:
//! N real `st-serve` replicas on ephemeral loopback ports, all serving
//! the same checkpoint, fronted by one `st-router`.

// Each test binary uses a different slice of the fixture.
#![allow(dead_code)]

use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_router::{
    BreakerConfig, Fleet, FleetConfig, PartitionMode, ReplicaId, RouteKey, Router, RouterConfig,
    RouterServer,
};
use st_serve::fault::FaultInjector;
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_transrec_core::{ModelConfig, STTransRec};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh scratch directory per test (std-only: no tempfile crate).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-router-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One replica slot: the live server plus its chaos hooks. `server` is
/// an `Option` so tests can kill a replica and later rejoin it.
pub struct ReplicaSlot {
    pub server: Option<Server>,
    pub injector: Arc<FaultInjector>,
}

/// N replicas + fleet + router, all in-process on loopback.
pub struct FleetFixture {
    pub dataset: Arc<Dataset>,
    pub split: Arc<CrossingCitySplit>,
    pub ckpt: PathBuf,
    pub oracle: STTransRec,
    pub replicas: Vec<ReplicaSlot>,
    pub fleet: Arc<Fleet>,
    pub router: Option<RouterServer>,
    pub serve_config: ServeConfig,
}

/// Breaker threshold used by every fixture (small so dark windows are
/// short, large enough that a single stale connection never trips it).
pub const BREAKER_THRESHOLD: u32 = 3;
/// Probe failures before a replica is marked down.
pub const DOWN_AFTER: u32 = 2;

impl FleetFixture {
    /// Builds a fleet of `n` replicas under `serve_config` (addr is
    /// overridden per replica). The breaker cooldown is effectively
    /// infinite: recovery happens via probes and `force_half_open`,
    /// keeping every transition test-driven and deterministic.
    pub fn start(tag: &str, n: usize, mut serve_config: ServeConfig) -> Self {
        let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
        let dataset = Arc::new(dataset);
        let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
        let mut oracle = STTransRec::new(&dataset, &split, ModelConfig::test_small());
        oracle.train_epoch(&dataset);
        let ckpt = scratch_dir(tag).join("model.bin");
        st_tensor::save_params_atomic(oracle.params(), &ckpt).expect("save ckpt");

        serve_config.addr = "127.0.0.1:0".into();
        let mut fixture = Self {
            dataset,
            split,
            ckpt,
            oracle,
            replicas: Vec::with_capacity(n),
            // Placeholder; replaced below once the replica addrs exist.
            fleet: Arc::new(Fleet::new(&[], fleet_config())),
            router: None,
            serve_config,
        };
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let (server, injector) = fixture.boot_replica(i as u64);
            addrs.push(server.local_addr());
            fixture.replicas.push(ReplicaSlot {
                server: Some(server),
                injector,
            });
        }
        fixture.fleet = Arc::new(Fleet::new(&addrs, fleet_config()));
        let router = Router::new(
            fixture.fleet.clone(),
            RouterConfig {
                workers: 12,
                probe_interval: None, // tests drive probes explicitly
                // Mid-test stalls (training an oracle epoch, killing a
                // replica) can outlast the production 5s idle timeout on
                // a loaded machine; a long one keeps the tests' client
                // connections alive across them.
                idle_timeout: Duration::from_secs(60),
                ..RouterConfig::default()
            },
        );
        fixture.router = Some(RouterServer::start(router).expect("start router"));
        fixture
    }

    /// Boots one replica process-equivalent with its own fault injector.
    fn boot_replica(&self, seed: u64) -> (Server, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(seed));
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

    /// The router's address.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").local_addr()
    }

    /// A replica's current address.
    pub fn replica_addr(&self, id: usize) -> SocketAddr {
        self.fleet.replica(ReplicaId(id as u16)).addr()
    }

    /// Kills replica `id` (drops its server; the port closes).
    pub fn kill_replica(&mut self, id: usize) {
        if let Some(server) = self.replicas[id].server.take() {
            server.shutdown();
        }
    }

    /// Rejoins replica `id` on a fresh ephemeral port: boots a new
    /// server over the current checkpoint, repoints the fleet at it, and
    /// probes it back to health.
    pub fn rejoin_replica(&mut self, id: usize) {
        let (server, injector) = self.boot_replica(1000 + id as u64);
        let addr = server.local_addr();
        self.replicas[id] = ReplicaSlot {
            server: Some(server),
            injector,
        };
        self.fleet.update_addr(ReplicaId(id as u16), addr);
        assert!(self.fleet.probe(ReplicaId(id as u16)), "rejoin probe");
    }

    /// Runs `DOWN_AFTER` probe sweeps so a dead replica is marked down.
    pub fn probe_down(&self) {
        for _ in 0..DOWN_AFTER {
            self.fleet.probe_all();
        }
    }

    /// First dataset user whose static ring owner is replica `id`.
    pub fn user_owned_by(&self, id: usize) -> u32 {
        self.users_owned_by(id, 1)[0]
    }

    /// The first `count` dataset users statically owned by replica `id`.
    pub fn users_owned_by(&self, id: usize, count: usize) -> Vec<u32> {
        let total = self.dataset.num_users() as u32;
        let users: Vec<u32> = (0..total)
            .filter(|u| self.fleet.static_owner(RouteKey::User(*u)) == Some(ReplicaId(id as u16)))
            .take(count)
            .collect();
        assert_eq!(
            users.len(),
            count,
            "replica {id} owns fewer than {count} of {total} users"
        );
        users
    }

    /// Blocks until replica `id`'s batcher queue holds exactly `depth`
    /// jobs (used with a frozen injector gate).
    pub fn wait_for_depth(&self, id: usize, depth: usize) {
        let server = self.replicas[id].server.as_ref().expect("replica alive");
        let metrics = server.engine().metrics();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while metrics.queue_depth.load(Ordering::Relaxed) != depth as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "replica {id} queue never reached {depth}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Shuts everything down (replicas then router).
    pub fn shutdown(mut self) {
        for slot in &mut self.replicas {
            if let Some(server) = slot.server.take() {
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
            // Never auto-half-opens: tests use probes/force_half_open.
            cooldown: Duration::from_secs(3600),
        },
        down_after: DOWN_AFTER,
        probe_timeout: Duration::from_millis(500),
    }
}
