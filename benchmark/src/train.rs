//! `train_paper`: the paper's joint objective (Eq. 3) on a scaled
//! Foursquare-like dataset, one timed `STTransRec::train_step` after
//! another. Serving code does no work here.

use crate::procfs;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Opts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_tensor::MatrixPool;
use st_transrec_core::{ModelConfig, STTransRec};
use std::time::{Duration, Instant};

/// Steps two extra models of the same seed are run for, to check that
/// training is a function of the seed alone.
const REPEAT_STEPS: usize = 5;

/// The model of chunk `chunk`: a fresh seeded model per chunk.
fn model(dataset: &Dataset, split: &CrossingCitySplit, seed: u64, chunk: u64) -> STTransRec {
    let config = ModelConfig {
        seed: seed.wrapping_mul(1_000_003).wrapping_add(chunk),
        ..ModelConfig::foursquare()
    };
    STTransRec::new(dataset, split, config)
}

/// Runs the training workload end to end.
///
/// At the seed commit every `train_step` grows the process by about
/// 18 MiB that is only given back when the model is dropped, and once
/// the process holds a few GiB each step's page faults get several times
/// dearer, from a step that moves from run to run. No window on one
/// ever-growing model repeats. So a model trains for
/// `train_chunk_steps` steps, is dropped, and a fresh one takes over:
/// memory stays bounded, every chunk sees the same sequence of table
/// states, and the growth itself is reported as
/// `core.train.rss_growth_mb` and in `peak_rss_mb`.
pub fn run(opts: &Opts) -> Report {
    let setup_started = Instant::now();
    let mut report = Report::new(Workload::TrainPaper, opts.seed, opts.seconds, opts.traced);
    let chunk_steps = opts.sizes.train_chunk_steps;

    // ---- set-up: data, then chunks until the allocator has stopped
    // asking the kernel for memory ---------------------------------------------
    let synth_cfg = synth::SynthConfig::foursquare_like().with_scale(opts.sizes.train_scale);
    let (dataset, _) = synth::generate(&synth_cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(synth_cfg.target_city as u16));
    let lambda = ModelConfig::foursquare().lambda;
    let mut losses: Vec<f32> = Vec::new();
    let mut rss_growth_mb = 0.0;
    let mut chunk = 0u64;
    for _ in 0..opts.sizes.train_warmup_chunks {
        let mut m = model(&dataset, &split, opts.seed, chunk);
        let rss_before = procfs::rss_mib();
        for _ in 0..chunk_steps {
            losses.push(m.train_step(&dataset).total(lambda));
        }
        if chunk == 0 {
            rss_growth_mb = (procfs::rss_mib() - rss_before) / chunk_steps as f64;
        }
        chunk += 1;
    }
    let warmup_loss = losses.last().copied().unwrap_or(0.0);

    // Same seed, same losses: two fresh models must retrace the first
    // steps of the first chunk bit for bit.
    let repeat = REPEAT_STEPS.min(losses.len());
    let mut repeatable = true;
    for _ in 0..2 {
        let mut again = model(&dataset, &split, opts.seed, 0);
        for want in &losses[..repeat] {
            repeatable &= again.train_step(&dataset).total(lambda).to_bits() == want.to_bits();
        }
    }
    let mut tracer = opts.traced.then(Tracer::new);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let cpu_before = procfs::cpu_seconds();

    // ---- timed phase -------------------------------------------------------
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut steps: Vec<stats::Timed> = Vec::new();
    let mut non_finite = 0u64;
    while Instant::now() < deadline {
        let mut m = model(&dataset, &split, opts.seed, chunk);
        chunk += 1;
        for _ in 0..chunk_steps {
            if Instant::now() >= deadline {
                break;
            }
            let span = tracer
                .as_mut()
                .map(|t| t.begin("client.train_step", steps.len() as u32, None));
            let began = Instant::now();
            let loss = m.train_step(&dataset).total(lambda);
            let micros = began.elapsed().as_secs_f64() * 1e6;
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.end(id);
            }
            // A failed operation has no latency, here as on the serving side.
            if loss.is_finite() {
                steps.push((start.elapsed().as_secs_f64(), micros));
            } else {
                non_finite += 1;
            }
            losses.push(loss);
        }
    }
    assert!(!steps.is_empty(), "no finite training step in the window");
    report.set_cpu(cpu_before, procfs::cpu_seconds());
    report.attempted = steps.len() as u64 + non_finite;
    report.failed = non_finite;
    report.set("setup_s", setup_s);
    report.set_operations(&steps, opts.seconds, Workload::TrainPaper.slices(), 1);
    report.note("train_scale", opts.sizes.train_scale);
    report.note("users", dataset.num_users());
    report.note("pois", dataset.num_pois());
    report.note("checkins", dataset.checkins().len());
    report.note("chunk_steps", chunk_steps);
    report.note("warmup_chunks", opts.sizes.train_warmup_chunks);
    report.note("rss_growth_mb_per_step", format!("{rss_growth_mb:.2}"));
    report.note("timed_steps", steps.len());
    report.note(
        "loss_after_warmup_bits",
        format!("{:#010x}", warmup_loss.to_bits()),
    );
    report.note("loss_final", losses.last().copied().unwrap_or(0.0));
    report.check(
        "losses_finite",
        losses.iter().all(|l| l.is_finite()),
        format!("{} steps", losses.len()),
    );
    report.check(
        "same_seed_same_losses",
        repeatable && repeat > 0,
        format!("2 fresh models x {repeat} steps"),
    );

    // ---- per-layer numbers: the two halves of a step, on one more chunk ------
    if let Some(tracer) = tracer.as_mut() {
        report.set("core.train.rss_growth_mb", rss_growth_mb);
        let mut m = model(&dataset, &split, opts.seed, chunk);
        let mut grads = m.new_grad_buffer();
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let mut pool = MatrixPool::new();
        let mut step_total_us = Vec::new();
        for i in 0..chunk_steps {
            let mut step_rng = SmallRng::seed_from_u64(rng.gen());
            let root = tracer.begin("chain.train_step", i as u32, None);
            tracer.span("core.train.accumulate", i as u32, Some(root), || {
                m.accumulate_step_with_pool(&dataset, &mut grads, &mut step_rng, &mut pool)
            });
            tracer.span("core.train.apply", i as u32, Some(root), || m.apply(&grads));
            grads.clear();
            tracer.end(root);
            step_total_us.push(tracer.duration_us(root));
        }
        let by_name = stats::median_self_us(tracer.spans());
        let us = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
        report.set(
            "core.train.accumulate_ms",
            us("core.train.accumulate") / 1e3,
        );
        report.set("core.train.apply_ms", us("core.train.apply") / 1e3);
        report.set("trace.chain_p50_us", stats::median(&step_total_us));
        crate::layers::matmul(&mut report, tracer);
        crate::finish_trace(&mut report, tracer, 0.0, &opts.out_dir);
    }
    report
}
