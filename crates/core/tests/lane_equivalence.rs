//! Where a step's target lane runs changes no bit: 20 steps driven with
//! the lanes on two threads ([`Schedule::Concurrent`]), on one
//! ([`Schedule::Inline`]), and through the one-buffer entry point
//! (`accumulate_step_with_pool`) leave the same losses and the same
//! parameters by `to_bits`, for every ablation variant, without dropout,
//! and when the target lane has no interaction term. CI runs this file a
//! second time under `taskset -c 0`, where the second thread has no CPU
//! of its own.
//!
//! `STTransRec::train_step` picks its schedule from the CPUs the process
//! may run on; `golden_losses` pins its bits, on both sides of that
//! choice in CI.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_tensor::MatrixPool;
use st_transrec_core::{ModelConfig, STTransRec, Schedule, StepLosses, Variant};

const STEPS: usize = 20;

/// The paper's Foursquare tower (dropout 0.1, so every mask is on the
/// path) on batches small enough for a debug build.
fn config(variant: Variant) -> ModelConfig {
    ModelConfig {
        batch_size: 32,
        context_batch: 64,
        mmd_batch: 32,
        ..ModelConfig::foursquare().with_variant(variant)
    }
}

fn loss_bits(l: &StepLosses) -> [u32; 5] {
    [
        l.interaction_source.to_bits(),
        l.interaction_target.to_bits(),
        l.context_source.to_bits(),
        l.context_target.to_bits(),
        l.mmd.to_bits(),
    ]
}

/// Per-step loss bits and final parameter bits.
type Run = (Vec<[u32; 5]>, Vec<Vec<u32>>);

fn param_bits(model: &STTransRec) -> Vec<Vec<u32>> {
    let params = model.params().iter();
    params
        .map(|(_, _, m)| m.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn run_lanes(
    dataset: &Dataset,
    split: &CrossingCitySplit,
    config: &ModelConfig,
    schedule: Schedule,
) -> Run {
    let mut model = STTransRec::new(dataset, split, config.clone());
    let mut buffers = model.new_step_buffers();
    let mut master = SmallRng::seed_from_u64(17);
    let mut losses = Vec::new();
    for _ in 0..STEPS {
        let mut rng = SmallRng::seed_from_u64(master.gen());
        let l = model.accumulate_step(dataset, &mut rng, &mut buffers, schedule);
        losses.push(loss_bits(&l));
        model.apply(buffers.grads());
        buffers.clear();
    }
    (losses, param_bits(&model))
}

fn run_one_buffer(dataset: &Dataset, split: &CrossingCitySplit, config: &ModelConfig) -> Run {
    let mut model = STTransRec::new(dataset, split, config.clone());
    let mut grads = model.new_grad_buffer();
    let mut pool = MatrixPool::new();
    let mut master = SmallRng::seed_from_u64(17);
    let mut losses = Vec::new();
    for _ in 0..STEPS {
        let mut rng = SmallRng::seed_from_u64(master.gen());
        let l = model.accumulate_step_with_pool(dataset, &mut grads, &mut rng, &mut pool);
        losses.push(loss_bits(&l));
        model.apply(&grads);
        grads.clear();
    }
    (losses, param_bits(&model))
}

fn assert_schedules_agree(
    name: &str,
    dataset: &Dataset,
    split: &CrossingCitySplit,
    config: ModelConfig,
) -> Run {
    let inline = run_lanes(dataset, split, &config, Schedule::Inline);
    let concurrent = run_lanes(dataset, split, &config, Schedule::Concurrent);
    assert!(inline.0 == concurrent.0, "{name}: losses differ");
    assert!(inline.1 == concurrent.1, "{name}: parameters differ");
    let one_buffer = run_one_buffer(dataset, split, &config);
    assert!(inline == one_buffer, "{name}: the one-buffer entry differs");
    inline
}

fn tiny() -> (Dataset, CrossingCitySplit) {
    let synth = SynthConfig::tiny();
    let (dataset, _) = generate(&synth);
    let split = CrossingCitySplit::build(&dataset, CityId(synth.target_city as u16));
    (dataset, split)
}

#[test]
fn every_variant_trains_the_same_bits_on_one_thread_and_on_two() {
    let (dataset, split) = tiny();
    for variant in [
        Variant::Full,
        Variant::NoMmd,
        Variant::NoText,
        Variant::NoResample,
    ] {
        let name = format!("{variant:?}");
        let (losses, _) = assert_schedules_agree(&name, &dataset, &split, config(variant));
        // Every term the variant keeps ran, on its own lane.
        let last = losses.last().unwrap();
        assert!(last[0] != 0 && last[1] != 0, "{variant:?}: {last:x?}");
        assert_eq!(last[2] != 0, variant != Variant::NoText);
        assert_eq!(last[3] != 0, variant != Variant::NoText);
        assert_eq!(last[4] != 0, variant != Variant::NoMmd);
    }
}

#[test]
fn no_dropout_trains_the_same_bits_on_one_thread_and_on_two() {
    let config = ModelConfig {
        dropout: 0.0,
        ..config(Variant::Full)
    };
    let (dataset, split) = tiny();
    assert_schedules_agree("dropout = 0", &dataset, &split, config);
}

/// No local check-ins in the target city: the target lane is the text
/// term alone (and, without text, nothing at all).
#[test]
fn a_target_lane_without_interactions_trains_the_same_bits() {
    let (dataset, mut split) = tiny();
    let target = split.target_city;
    split.train.retain(|c| dataset.poi(c.poi).city != target);
    for variant in [Variant::Full, Variant::NoText] {
        let name = format!("empty target sampler, {variant:?}");
        let (losses, _) = assert_schedules_agree(&name, &dataset, &split, config(variant));
        let last = losses.last().unwrap();
        assert!(last[0] != 0 && last[1] == 0, "{name}: {last:x?}");
        assert_eq!(last[3] != 0, variant == Variant::Full);
    }
}
