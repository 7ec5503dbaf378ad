//! Online-loop suite behind `chaos online`: ingest throughput, publish
//! latency, staleness, and the chaos acceptance gates of the st-online
//! pipeline.
//!
//! The suite runs the seeded streaming loop **twice** against two fresh
//! embedded servers and checks three things beyond raw numbers:
//!
//! 1. **Reproducibility** — both runs must produce bit-identical
//!    publish/reject/crash sequences, epochs, and shadow metrics.
//! 2. **Rejection defended** — every injected regressing candidate is
//!    rejected by the shadow gate and never moves the serving epoch.
//! 3. **Crash defended** — every injected mid-publish crash leaves the
//!    serving epoch unchanged and the checkpoint loadable.

use crate::json_object_impl;
use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_online::{
    run_embedded, CycleOutcome, FaultPlan, OnlineLoopConfig, OnlineReport, PublishFault,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Suite parameters.
#[derive(Debug, Clone)]
pub struct OnlineLoopOptions {
    /// Master seed for stream, faults, gate, and inits.
    pub seed: u64,
    /// Publish cycles per run (>= 3: the seeded plan needs room for one
    /// clean publish, one regression, and one crash).
    pub cycles: usize,
    /// Dataset scale for the Foursquare-like preset; `None` uses the
    /// tiny two-city preset (CI smoke).
    pub scale: Option<f64>,
}

impl OnlineLoopOptions {
    /// CI smoke variant: tiny dataset, 4 cycles.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            cycles: 4,
            scale: None,
        }
    }

    /// Full variant: scaled Foursquare-like dataset, 6 cycles.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            cycles: 6,
            scale: Some(0.05),
        }
    }
}

/// One cycle, flattened for JSON.
#[derive(Debug, Clone)]
pub struct CycleSummary {
    /// Cycle index.
    pub cycle: usize,
    /// Injected fault label (`clean` / `regress` / `crash`).
    pub fault: String,
    /// Outcome label (`published` / `rejected` / `crashed`).
    pub outcome: String,
    /// Events trained this cycle.
    pub events_trained: usize,
    /// Mean micro-batch loss.
    pub loss: f32,
    /// Candidate hit-rate on the shadow window.
    pub candidate_hit_rate: f64,
    /// Baseline hit-rate on the identical window.
    pub baseline_hit_rate: f64,
    /// Serving epoch after the cycle.
    pub served_epoch: u64,
    /// Publish latency (write → confirmed swap), published cycles only.
    pub publish_latency_us: Option<u64>,
    /// Ingest-start → cycle-end staleness.
    pub staleness_us: u64,
}

json_object_impl!(CycleSummary {
    cycle,
    fault,
    outcome,
    events_trained,
    loss,
    candidate_hit_rate,
    baseline_hit_rate,
    served_epoch,
    publish_latency_us,
    staleness_us,
});

/// One full run of the loop.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-cycle audit trail.
    pub cycles: Vec<CycleSummary>,
    /// Events ingested into training.
    pub events_ingested: usize,
    /// Ingest+train throughput.
    pub events_per_sec: f64,
    /// Serving epoch at loop end.
    pub final_served_epoch: u64,
    /// Successful server reloads.
    pub reloads_ok: u64,
    /// Failed server reloads (must stay 0).
    pub reloads_failed: u64,
}

json_object_impl!(RunSummary {
    cycles,
    events_ingested,
    events_per_sec,
    final_served_epoch,
    reloads_ok,
    reloads_failed,
});

/// The gates CI enforces.
#[derive(Debug, Clone)]
pub struct OnlineAcceptance {
    /// Published cycles in run 1.
    pub published: usize,
    /// Gate-rejected cycles in run 1.
    pub rejected: usize,
    /// Crashed cycles in run 1.
    pub crashed: usize,
    /// Both runs produced identical signatures.
    pub reproducible: bool,
    /// Every injected regression was rejected without an epoch bump.
    pub rejection_defended: bool,
    /// Every injected crash left the epoch unchanged and the checkpoint
    /// loadable.
    pub crash_defended: bool,
    /// Run-1 ingest throughput.
    pub events_per_sec: f64,
    /// Mean publish latency across run-1 published cycles.
    pub publish_latency_us_mean: f64,
    /// Worst ingest→cycle-end staleness in run 1.
    pub staleness_us_max: u64,
}

json_object_impl!(OnlineAcceptance {
    published,
    rejected,
    crashed,
    reproducible,
    rejection_defended,
    crash_defended,
    events_per_sec,
    publish_latency_us_mean,
    staleness_us_max,
});

/// The whole suite's report.
#[derive(Debug, Clone)]
pub struct OnlineBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Master seed.
    pub seed: u64,
    /// Cycles per run.
    pub cycles: usize,
    /// The two runs (identical modulo wall-clock fields).
    pub runs: Vec<RunSummary>,
    /// Gate evaluation.
    pub acceptance: OnlineAcceptance,
}

json_object_impl!(OnlineBenchReport {
    schema,
    seed,
    cycles,
    runs,
    acceptance,
});

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-online-bench-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn summarize(report: &OnlineReport) -> RunSummary {
    RunSummary {
        cycles: report
            .cycles
            .iter()
            .map(|c| CycleSummary {
                cycle: c.cycle,
                fault: c.fault.label().to_string(),
                outcome: c.outcome.label().to_string(),
                events_trained: c.events_trained,
                loss: c.loss,
                candidate_hit_rate: c.candidate_hit_rate,
                baseline_hit_rate: c.baseline_hit_rate,
                served_epoch: c.served_epoch,
                publish_latency_us: c.publish_latency_us,
                staleness_us: c.staleness_us,
            })
            .collect(),
        events_ingested: report.events_ingested,
        events_per_sec: report.events_per_sec,
        final_served_epoch: report.final_served_epoch,
        reloads_ok: report.reloads_ok,
        reloads_failed: report.reloads_failed,
    }
}

/// True iff every crashed/rejected cycle left the serving epoch exactly
/// where the previous cycle put it (epoch 1 before any cycle ran).
fn epoch_frozen_on(report: &OnlineReport, outcome: CycleOutcome) -> bool {
    report.cycles.iter().all(|c| {
        if c.outcome != outcome {
            return true;
        }
        let prev = if c.cycle == 0 {
            1
        } else {
            report.cycles[c.cycle - 1].served_epoch
        };
        c.served_epoch == prev
    })
}

/// Runs the suite and evaluates every acceptance gate.
pub fn run_online_suite(opts: &OnlineLoopOptions) -> OnlineBenchReport {
    let synth = match opts.scale {
        Some(s) => SynthConfig::foursquare_like().with_scale(s),
        None => SynthConfig::tiny(),
    };
    let target = CityId(synth.target_city as u16);
    let (dataset, _) = generate(&synth);
    let dataset: Arc<Dataset> = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, target));

    let mut config = OnlineLoopConfig::smoke(opts.seed);
    config.faults = FaultPlan::seeded(opts.cycles.max(3), opts.seed);

    eprintln!(
        "online loop: {} cycles x2 runs (faults: {} regress, {} crash)...",
        config.faults.len(),
        config.faults.count(PublishFault::Regress),
        config.faults.count(PublishFault::Crash),
    );
    let scratch_a = scratch_dir("a");
    let a = run_embedded(&dataset, &split, &scratch_a, &config).expect("run a");
    let scratch_b = scratch_dir("b");
    let b = run_embedded(&dataset, &split, &scratch_b, &config).expect("run b");

    let rejection_defended = a
        .cycles
        .iter()
        .filter(|c| c.fault == PublishFault::Regress)
        .all(|c| c.outcome == CycleOutcome::Rejected)
        && epoch_frozen_on(&a, CycleOutcome::Rejected);
    let ckpts_load = [&scratch_a, &scratch_b].iter().all(|s| {
        std::fs::File::open(s.join("model.bin"))
            .map(|f| st_tensor::load_params(f).is_ok())
            .unwrap_or(false)
    });
    let crash_defended = epoch_frozen_on(&a, CycleOutcome::Crashed) && ckpts_load;

    let published: Vec<u64> = a
        .cycles
        .iter()
        .filter_map(|c| c.publish_latency_us)
        .collect();
    let acceptance = OnlineAcceptance {
        published: a.count(CycleOutcome::Published),
        rejected: a.count(CycleOutcome::Rejected),
        crashed: a.count(CycleOutcome::Crashed),
        reproducible: a.signature() == b.signature(),
        rejection_defended,
        crash_defended,
        events_per_sec: a.events_per_sec,
        publish_latency_us_mean: if published.is_empty() {
            0.0
        } else {
            published.iter().sum::<u64>() as f64 / published.len() as f64
        },
        staleness_us_max: a.cycles.iter().map(|c| c.staleness_us).max().unwrap_or(0),
    };

    OnlineBenchReport {
        schema: "st-transrec-online-loop/v1".to_string(),
        seed: opts.seed,
        cycles: config.faults.len(),
        runs: vec![summarize(&a), summarize(&b)],
        acceptance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn smoke_suite_passes_every_gate() {
        let report = run_online_suite(&OnlineLoopOptions::smoke(42));
        let a = &report.acceptance;
        assert!(a.published >= 1, "at least one gated publish");
        assert!(a.rejected >= 1, "at least one injected rejection");
        assert_eq!(a.crashed, 1, "exactly one injected crash");
        assert!(a.reproducible, "two same-seed runs must match");
        assert!(a.rejection_defended);
        assert!(a.crash_defended);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].reloads_failed, 0);

        let text = report.to_json().to_string();
        assert!(text.contains("\"schema\":\"st-transrec-online-loop/v1\""));
        assert!(text.contains("\"reproducible\":true"));
    }
}
