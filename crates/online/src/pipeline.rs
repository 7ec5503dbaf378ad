//! The online learning loop: ingest → train → shadow-eval → gate →
//! publish, in deterministic cycles.
//!
//! Each cycle consumes a slice of the event stream. Most events feed
//! [`IncrementalTrainer::ingest`] micro-batches; a held-out slice the
//! trainer never sees lands in the [`ShadowWindow`]. The cycle then
//! gates the candidate model against the currently *serving* baseline on
//! that window and, only on acceptance, publishes it atomically to the
//! running server. Every decision is a pure function of the loop seed,
//! so two runs with the same config produce identical
//! publish/reject/crash sequences — asserted by the e2e tests.

use crate::fault::{FaultPlan, PublishFault};
use crate::publisher::Publisher;
use crate::shadow::{gate, hit_rate, ShadowWindow};
use crate::trainer::IncrementalTrainer;
use st_data::synth::CheckinStream;
use st_data::{CrossingCitySplit, Dataset};
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_transrec_core::{ModelConfig, ModelSnapshot, STTransRec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a caller chooses about one run of the loop. Everything else
/// is a constant: beside [`run_embedded`], or the gate's beside `gate`.
#[derive(Debug, Clone)]
pub struct OnlineLoopConfig {
    /// Master seed: stream, trainer, impostor inits all derive from it.
    pub(crate) seed: u64,
    /// Full offline epochs before the stream starts (generation 1).
    pub warmup_epochs: usize,
    /// Per-cycle fault schedule; its length is the number of cycles.
    pub faults: FaultPlan,
}

impl OnlineLoopConfig {
    /// A small, fast configuration for tests, CI smoke runs, and the
    /// bench harness: 2 warmup epochs, 4 cycles with one injected
    /// regression and one crash, ~384 training events per cycle.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            warmup_epochs: 2,
            faults: FaultPlan::seeded(4, seed),
        }
    }
}

/// Terminal state of one publish cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleOutcome {
    /// Gate accepted; the snapshot is confirmed serving.
    Published,
    /// Gate rejected; nothing was written, nothing reloaded.
    Rejected,
    /// Publisher crashed mid-write; serving tier untouched.
    Crashed,
}

impl CycleOutcome {
    /// Stable lowercase label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            CycleOutcome::Published => "published",
            CycleOutcome::Rejected => "rejected",
            CycleOutcome::Crashed => "crashed",
        }
    }
}

/// One cycle's full audit trail.
#[derive(Debug, Clone)]
pub struct CycleRecord {
    /// Cycle index, 0-based.
    pub cycle: usize,
    /// Fault injected this cycle.
    pub fault: PublishFault,
    /// What happened.
    pub outcome: CycleOutcome,
    /// Events trained this cycle.
    pub events_trained: usize,
    /// Mean micro-batch loss over the cycle.
    pub loss: f32,
    /// Candidate hit-rate on the shadow window.
    pub candidate_hit_rate: f64,
    /// Serving baseline hit-rate on the identical window.
    pub baseline_hit_rate: f64,
    /// Epoch the server reports serving *after* this cycle.
    pub served_epoch: u64,
    /// Write→confirmed-swap latency, only for published cycles.
    pub publish_latency_us: Option<u64>,
    /// Ingest-start → cycle-end wall time: how stale this cycle's data
    /// was by the time it could have influenced serving.
    pub staleness_us: u64,
}

/// The whole run's results.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Per-cycle records, in order.
    pub cycles: Vec<CycleRecord>,
    /// Events ingested into training across all cycles.
    pub events_ingested: usize,
    /// Ingest+train throughput over the run's training time.
    pub events_per_sec: f64,
    /// Epoch serving when the loop ended.
    pub final_served_epoch: u64,
    /// Server-side successful reload count at loop end.
    pub reloads_ok: u64,
    /// Server-side failed reload count at loop end (0 unless a torn or
    /// corrupt checkpoint reached the reload path — it never should).
    pub reloads_failed: u64,
}

impl OnlineReport {
    /// Cycles with the given outcome.
    pub fn count(&self, outcome: CycleOutcome) -> usize {
        self.cycles.iter().filter(|c| c.outcome == outcome).count()
    }

    /// The deterministic skeleton of the run: everything that must be
    /// bit-identical between two same-seed runs (wall-clock fields
    /// excluded). Two runs reproduce iff their signatures are equal.
    pub fn signature(&self) -> Vec<(usize, &'static str, &'static str, u64, u64, u64)> {
        self.cycles
            .iter()
            .map(|c| {
                (
                    c.cycle,
                    c.fault.label(),
                    c.outcome.label(),
                    c.served_epoch,
                    c.candidate_hit_rate.to_bits(),
                    c.baseline_hit_rate.to_bits(),
                )
            })
            .collect()
    }
}

/// Runs the loop against an already-started server.
///
/// `model` must be the generation the server is currently serving (the
/// warmed-up model whose checkpoint `ckpt` holds); the loop trains it
/// incrementally and publishes through `ckpt`.
pub(crate) fn run_online_loop(
    dataset: &Arc<Dataset>,
    split: &Arc<CrossingCitySplit>,
    server: &Server,
    ckpt: &Path,
    model: &mut STTransRec,
    config: &OnlineLoopConfig,
) -> std::io::Result<OnlineReport> {
    let publisher = Publisher::new(server.local_addr(), ckpt);
    // The baseline mirrors what is serving: it starts as the published
    // warmup generation and is reloaded from the checkpoint after every
    // confirmed publish.
    let mut baseline = load_baseline(ckpt)?;

    let mut stream = CheckinStream::new(dataset, config.seed);
    let mut trainer = IncrementalTrainer::new(dataset, NEGATIVES, config.seed ^ 0x7EA1);
    let mut shadow = ShadowWindow::new(SHADOW_CAPACITY);

    let mut cycles = Vec::with_capacity(config.faults.len());
    let mut events_ingested = 0usize;
    let mut train_time = std::time::Duration::ZERO;

    for cycle in 0..config.faults.len() {
        let cycle_start = Instant::now();
        let mut loss_sum = 0.0f32;
        let mut events_trained = 0usize;
        let train_start = Instant::now();
        for _ in 0..TRAIN_BATCHES_PER_CYCLE {
            let events = stream.next_batch(MICRO_BATCH);
            let stats = trainer.ingest(model, dataset, &events);
            loss_sum += stats.loss;
            events_trained += stats.events;
        }
        train_time += train_start.elapsed();
        events_ingested += events_trained;
        // Held out: the trainer never sees these, the gate judges on them.
        shadow.extend(&stream.next_batch(SHADOW_BATCH));

        let fault = config.faults.fault_for(cycle);
        // Under Regress the real candidate is swapped for an untrained
        // impostor — the defended failure (a bad training run, a bug
        // producing garbage weights) the gate exists to stop.
        let impostor = (fault == PublishFault::Regress).then(|| {
            let cfg = ModelConfig {
                seed: config.seed ^ (cycle as u64).wrapping_add(0xBAD5EED),
                ..ModelConfig::test_small()
            };
            STTransRec::new(dataset, split, cfg)
        });
        let candidate: &STTransRec = impostor.as_ref().unwrap_or(model);
        let decision = gate(candidate, &baseline, dataset, &shadow, cycle as u64);

        let (outcome, publish_latency_us) = if !decision.accept {
            (CycleOutcome::Rejected, None)
        } else {
            match fault {
                PublishFault::Crash => {
                    publisher.crash_mid_publish(candidate)?;
                    (CycleOutcome::Crashed, None)
                }
                _ => {
                    let published = publisher.publish(candidate)?;
                    baseline = load_baseline(ckpt)?;
                    (
                        CycleOutcome::Published,
                        Some(published.latency.as_micros() as u64),
                    )
                }
            }
        };

        cycles.push(CycleRecord {
            cycle,
            fault,
            outcome,
            events_trained,
            loss: loss_sum / TRAIN_BATCHES_PER_CYCLE as f32,
            candidate_hit_rate: hit_rate(&decision.candidate),
            baseline_hit_rate: hit_rate(&decision.baseline),
            served_epoch: publisher.served_epoch()?,
            publish_latency_us,
            staleness_us: cycle_start.elapsed().as_micros() as u64,
        });
    }

    let metrics = server.engine().metrics();
    use std::sync::atomic::Ordering::Relaxed;
    Ok(OnlineReport {
        cycles,
        events_ingested,
        events_per_sec: events_ingested as f64 / train_time.as_secs_f64().max(1e-9),
        final_served_epoch: publisher.served_epoch()?,
        reloads_ok: metrics.reloads_ok.load(Relaxed),
        reloads_failed: metrics.reloads_failed.load(Relaxed),
    })
}

/// The published checkpoint as the server loads it (mapped, straight
/// into a frozen snapshot), every data checksum verified first. Publishes
/// replace the file by rename, so the mapping outlives the next one.
fn load_baseline(ckpt: &Path) -> std::io::Result<ModelSnapshot> {
    let mapped = st_tensor::map_params(ckpt)?;
    mapped.verify_data_checksums()?;
    ModelSnapshot::from_mapped(&mapped)
}

/// Events per training micro-batch.
const MICRO_BATCH: usize = 128;
/// Training micro-batches per publish cycle.
const TRAIN_BATCHES_PER_CYCLE: usize = 3;
/// Events held out into the shadow window per cycle.
const SHADOW_BATCH: usize = 64;
/// Shadow window capacity (oldest events evicted beyond it).
const SHADOW_CAPACITY: usize = 128;
/// Negatives per streamed positive.
const NEGATIVES: usize = 4;

/// Warm-up + serve + loop in one call: trains `config.warmup_epochs`
/// offline, publishes generation 1 into `scratch/model.bin`, starts an
/// embedded server on an ephemeral loopback port, runs the online loop
/// against it, and shuts the server down. The checkpoint (and any torn
/// crash file) stays in `scratch` for inspection.
pub fn run_embedded(
    dataset: &Arc<Dataset>,
    split: &Arc<CrossingCitySplit>,
    scratch: &Path,
    config: &OnlineLoopConfig,
) -> std::io::Result<OnlineReport> {
    let ckpt = scratch.join("model.bin");
    let mut model = STTransRec::new(dataset, split, ModelConfig::test_small());
    for _ in 0..config.warmup_epochs {
        model.train_epoch(dataset);
    }
    st_tensor::save_params_atomic(model.params(), &ckpt)?;

    let serve_config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let reloader = Reloader::new(
        dataset.clone(),
        split.clone(),
        ModelConfig::test_small(),
        &ckpt,
    );
    let (frozen, snapshot_bytes) = reloader.load_frozen()?;
    let engine = Engine::new_frozen(
        dataset.clone(),
        frozen,
        snapshot_bytes,
        Some(reloader),
        &serve_config,
    );
    let server = Server::start(engine, &serve_config)?;

    let report = run_online_loop(dataset, split, &server, &ckpt, &mut model, config);
    server.shutdown();
    report
}
