//! Fixtures: the trained snapshots the serving workloads load, and the
//! in-process servers started from them the way `st-serve` and
//! `st-router` start. Shipped defaults everywhere; no knob is tuned.

use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_router::{Fleet, FleetConfig, Router, RouterConfig, RouterServer};
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, STTransRec};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the model every serving fixture is trained from. The served
/// model is part of the benchmark, like the catalog; `--seed` drives the
/// requests sent to it.
const FIXTURE_MODEL_SEED: u64 = 1;
/// Hidden first argument that turns this executable into the fixture
/// trainer (see [`Fixture::build`]).
pub const TRAIN_FIXTURE_ARG: &str = "--train-fixture";

/// Fixture and run sizes. `full` is what `BENCHMARK.json` describes;
/// `smoke` keeps every code path (index engaged on L, exact fallback on
/// S) at a twentieth of the work.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Fixture L: total POIs over the two cities (the target city holds half).
    pub l_pois: usize,
    /// Fixture L: users.
    pub l_users: usize,
    /// Fixture S: total POIs (target city below `min_catalog`).
    pub s_pois: usize,
    /// Fixture S: users — eight times what one LRU holds, so that a fifth
    /// of the zipf stream keeps missing even with `fleet_hot`'s two caches
    /// and the tail percentile is a miss however long the window runs.
    pub s_users: usize,
    /// Check-ins in either serving fixture.
    pub checkins: usize,
    /// Seeded `train_step`s before a serving fixture is saved.
    pub fixture_steps: usize,
    /// `train_paper`: scale of `SynthConfig::foursquare_like()`.
    pub train_scale: f64,
    /// `train_paper`: steps a model is trained for before a fresh one
    /// replaces it.
    pub train_chunk_steps: usize,
    /// `train_paper`: untimed chunks before the timed window.
    pub train_warmup_chunks: usize,
    /// Untimed requests before a serving window: on the cold stream keys
    /// never sent again, on the hot stream `/healthz` on every connection.
    pub warmup_requests: usize,
    /// First requests of the hot stream, sent untimed to fill the result
    /// caches: the hit share of `fleet_hot`'s two caches is 0.79 after
    /// 16 384 requests and levels off at 0.82 after 28 000, and a warm-up
    /// costs a second of set-up per 2 400 requests.
    pub hot_warmup_requests: usize,
    /// Requests replayed through the in-process stage chain when tracing.
    pub chain_requests: usize,
    /// Repetitions of each slow (≥ 100 ms) layer timing when tracing.
    pub slow_reps: usize,
}

impl Sizes {
    /// The sizes of a `--smoke` run or of a full one.
    pub fn of(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }

    /// The sizes every recorded number refers to.
    fn full() -> Self {
        Self {
            l_pois: 50_000,
            l_users: 1024,
            s_pois: 3_000,
            s_users: 32_768,
            checkins: 200_000,
            fixture_steps: 40,
            train_scale: 0.15,
            train_chunk_steps: 40,
            train_warmup_chunks: 3,
            warmup_requests: 100,
            hot_warmup_requests: 16_384,
            chain_requests: 500,
            slow_reps: 2,
        }
    }

    /// `--smoke`: the whole suite in well under 20 s.
    fn smoke() -> Self {
        Self {
            l_pois: 5_000,
            l_users: 256,
            s_pois: 1_000,
            s_users: 8192,
            checkins: 40_000,
            fixture_steps: 5,
            train_scale: 0.03,
            train_chunk_steps: 5,
            train_warmup_chunks: 1,
            warmup_requests: 10,
            hot_warmup_requests: 512,
            chain_requests: 25,
            slow_reps: 1,
        }
    }
}

/// Which serving fixture a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixtureKind {
    /// Large catalog, int8 snapshot: the retrieval index engages.
    L,
    /// Small catalog, f32 snapshot: exact-scan fallback.
    S,
}

/// A dataset plus a trained snapshot on disk.
pub struct Fixture {
    /// The synthetic dataset the servers are launched with.
    pub dataset: Arc<Dataset>,
    /// Its crossing-city split.
    pub split: Arc<CrossingCitySplit>,
    /// The model architecture (the paper's Foursquare tower).
    pub config: ModelConfig,
    /// The v2 snapshot every server of this fixture maps.
    pub snapshot: PathBuf,
    /// Its table encoding.
    pub encoding: StorageEncoding,
    /// How long writing the snapshot took.
    pub save_ms: f64,
}

impl FixtureKind {
    fn arg(self) -> &'static str {
        match self {
            FixtureKind::L => "L",
            FixtureKind::S => "S",
        }
    }

    fn synth_config(self, sizes: &Sizes) -> synth::SynthConfig {
        let mut cfg = synth::SynthConfig::tiny();
        (cfg.pois, cfg.users) = match self {
            FixtureKind::L => (sizes.l_pois, sizes.l_users),
            FixtureKind::S => (sizes.s_pois, sizes.s_users),
        };
        cfg.crossing_users = 512.min(cfg.users / 2);
        cfg.checkins = sizes.checkins;
        cfg
    }

    fn snapshot(self, dir: &Path) -> (PathBuf, StorageEncoding) {
        match self {
            FixtureKind::L => (dir.join("fixture-l.snapshot"), StorageEncoding::I8),
            FixtureKind::S => (dir.join("fixture-s.snapshot"), StorageEncoding::F32),
        }
    }
}

fn dataset_and_split(cfg: &synth::SynthConfig) -> (Dataset, CrossingCitySplit) {
    let (dataset, _) = synth::generate(cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(cfg.target_city as u16));
    (dataset, split)
}

fn model_config() -> ModelConfig {
    ModelConfig {
        seed: FIXTURE_MODEL_SEED,
        ..ModelConfig::foursquare()
    }
}

/// The fixture trainer: what the executable does when started with
/// [`TRAIN_FIXTURE_ARG`]. Trains `fixture_steps` seeded steps of the
/// paper's configuration, writes the snapshot into `dir` and prints how
/// long the write took.
pub fn train_fixture(kind: &str, smoke: bool, dir: &Path) {
    let kind = match kind {
        "L" => FixtureKind::L,
        "S" => FixtureKind::S,
        other => panic!("unknown fixture {other:?}"),
    };
    let sizes = Sizes::of(smoke);
    let (dataset, split) = dataset_and_split(&kind.synth_config(&sizes));
    let mut model = STTransRec::new(&dataset, &split, model_config());
    for _ in 0..sizes.fixture_steps {
        model.train_step(&dataset);
    }
    let (snapshot, encoding) = kind.snapshot(dir);
    let started = Instant::now();
    st_tensor::save_params_atomic_as(model.params(), &snapshot, encoding)
        .expect("write fixture snapshot");
    println!("{}", started.elapsed().as_secs_f64() * 1e3);
}

impl Fixture {
    /// Generates the dataset and has a child process train the model and
    /// write the snapshot into `dir`. Training runs in a child so that
    /// this process's peak memory is the serving tier's, not the
    /// trainer's; the child has exited before this returns.
    pub fn build(kind: FixtureKind, smoke: bool, dir: &Path) -> Fixture {
        let exe = std::env::current_exe().expect("path of this executable");
        let mut trainer = Command::new(exe);
        trainer.args([
            TRAIN_FIXTURE_ARG,
            kind.arg(),
            if smoke { "smoke" } else { "full" },
        ]);
        let trained = trainer.arg(dir).output().expect("run the fixture trainer");
        assert!(
            trained.status.success(),
            "fixture trainer failed: {}",
            String::from_utf8_lossy(&trained.stderr)
        );
        let save_ms = String::from_utf8_lossy(&trained.stdout)
            .trim()
            .parse()
            .expect("fixture trainer prints the save time");
        let (dataset, split) = dataset_and_split(&kind.synth_config(&Sizes::of(smoke)));
        let (snapshot, encoding) = kind.snapshot(dir);
        Fixture {
            dataset: Arc::new(dataset),
            split: Arc::new(split),
            config: model_config(),
            snapshot,
            encoding,
            save_ms,
        }
    }

    /// The city every request asks about.
    pub fn target_city(&self) -> CityId {
        self.split.target_city
    }

    /// A reloader on this fixture's snapshot.
    pub fn reloader(&self) -> Reloader {
        Reloader::new(
            self.dataset.clone(),
            self.split.clone(),
            self.config.clone(),
            &self.snapshot,
        )
    }

    /// Starts one server the way the `st-serve` binary does for a v2
    /// snapshot: `load_frozen` → `Engine::new_frozen` → `Server::start`.
    pub fn start_server(&self) -> Server {
        let config = ServeConfig::default();
        let reloader = self.reloader();
        let (frozen, bytes) = reloader.load_frozen().expect("load fixture snapshot");
        let engine =
            Engine::new_frozen(self.dataset.clone(), frozen, bytes, Some(reloader), &config);
        Server::start(engine, &config).expect("start st-serve")
    }
}

/// `st-router` over in-process replicas, probe thread off.
pub fn start_router(replicas: &[Server]) -> RouterServer {
    let addrs: Vec<_> = replicas.iter().map(Server::local_addr).collect();
    let fleet = Arc::new(Fleet::new(&addrs, FleetConfig::default()));
    let router = Router::new(fleet, RouterConfig::default());
    RouterServer::start(router).expect("start st-router")
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out/tmp-<pid>-<tag>`.
    pub fn create(out_dir: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
