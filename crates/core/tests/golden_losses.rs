//! Golden-loss guard: the bit patterns of the five [`StepLosses`]
//! components over the first five `train_step`s of a seeded model, per
//! ablation variant, recorded at the commit *before* the tape took
//! ownership of its memory (PR 12) and re-pinned once since, when
//! `a * b^T` joined the packed kernel family (PR 23). Any change to the
//! RNG draw order in dropout or the samplers, or to the accumulation
//! order of a forward kernel, moves at least one of these bits. A
//! backward-only reordering is seen less sharply — it reaches a loss
//! only through Adam's normalised update, and PR 23's moved two
//! `LinearMmd` values and nothing else — so the kernels carry their own
//! `to_bits` tests against the naive loops (st-tensor `proptests.rs`).
//!
//! Regenerate (only when a change is *meant* to move the arithmetic) with
//! `ST_GOLDEN_PRINT=1 cargo test -p st-transrec-core --test golden_losses -- --nocapture`.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_transrec_core::{
    InteractionBatch, MmdEstimator, ModelConfig, STTransRec, StepLosses, Variant,
};

const STEPS: usize = 5;

fn bits(l: &StepLosses) -> [u32; 5] {
    [
        l.interaction_source.to_bits(),
        l.interaction_target.to_bits(),
        l.context_source.to_bits(),
        l.context_target.to_bits(),
        l.mmd.to_bits(),
    ]
}

fn model(config: ModelConfig) -> (Dataset, STTransRec) {
    let synth = SynthConfig::tiny();
    let (dataset, _) = generate(&synth);
    let split = CrossingCitySplit::build(&dataset, CityId(synth.target_city as u16));
    let model = STTransRec::new(&dataset, &split, config);
    (dataset, model)
}

fn run(config: ModelConfig) -> Vec<[u32; 5]> {
    let (dataset, mut model) = model(config);
    (0..STEPS)
        .map(|_| bits(&model.train_step(&dataset)))
        .collect()
}

fn check(name: &str, config: ModelConfig, golden: &[[u32; 5]]) {
    compare(name, &run(config), golden);
}

fn compare(name: &str, got: &[[u32; 5]], golden: &[[u32; 5]]) {
    if std::env::var_os("ST_GOLDEN_PRINT").is_some() {
        println!("// {name}");
        for row in got {
            println!(
                "[{:#010x}, {:#010x}, {:#010x}, {:#010x}, {:#010x}],",
                row[0], row[1], row[2], row[3], row[4]
            );
        }
        return;
    }
    assert_eq!(got.len(), golden.len(), "{name}: step count");
    for (step, (g, w)) in got.iter().zip(golden).enumerate() {
        assert_eq!(
            g, w,
            "{name}: step {step} losses moved (interaction s/t, context s/t, mmd)"
        );
    }
}

/// The paper's Foursquare tower (dropout 0.1, so every dropout draw is
/// on the path) under one ablation variant.
fn foursquare(variant: Variant) -> ModelConfig {
    ModelConfig::foursquare().with_variant(variant)
}

#[test]
fn full_variant_losses_are_pinned() {
    check("Full", foursquare(Variant::Full), &GOLDEN_FULL);
}

#[test]
fn no_mmd_variant_losses_are_pinned() {
    check("NoMmd", foursquare(Variant::NoMmd), &GOLDEN_NO_MMD);
}

#[test]
fn no_text_variant_losses_are_pinned() {
    check("NoText", foursquare(Variant::NoText), &GOLDEN_NO_TEXT);
}

#[test]
fn no_resample_variant_losses_are_pinned() {
    check(
        "NoResample",
        foursquare(Variant::NoResample),
        &GOLDEN_NO_RESAMPLE,
    );
}

/// The linear-time MMD estimator is built from the elementwise tape ops
/// (`sub`, `mul_elem`, `scale`, `exp`, `sum_cols`, `gather_rows`) that
/// the quadratic path's fused kernel bypasses.
#[test]
fn linear_mmd_losses_are_pinned() {
    let config = ModelConfig {
        mmd_estimator: MmdEstimator::Linear,
        ..ModelConfig::foursquare()
    };
    check("LinearMmd", config, &GOLDEN_LINEAR_MMD);
}

/// An online step between offline ones: `train_step` x3, one
/// `train_on_interactions` on a fixed batch, `train_step` x2. The online
/// step draws its seed from the model's stream, so whatever `train_step`
/// prepares for a later step from that stream must leave it where a
/// model that prepared nothing would be. Row 3 is the online step's loss,
/// in the first column.
#[test]
fn an_online_step_between_train_steps_is_pinned() {
    let (dataset, mut model) = model(foursquare(Variant::Full));
    let batch = InteractionBatch {
        users: vec![0, 0, 1, 1, 2, 2],
        pois: vec![0, 1, 2, 3, 4, 5],
        labels: vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    };
    let mut got: Vec<[u32; 5]> = Vec::new();
    for _ in 0..3 {
        got.push(bits(&model.train_step(&dataset)));
    }
    got.push([model.train_on_interactions(&batch).to_bits(), 0, 0, 0, 0]);
    for _ in 0..2 {
        got.push(bits(&model.train_step(&dataset)));
    }
    compare("Full, online step 3", &got, &GOLDEN_ONLINE_BETWEEN);
}

const GOLDEN_FULL: [[u32; 5]; STEPS] = [
    [0x3f3124ff, 0x3f313f59, 0x3f31720d, 0x3f3171bb, 0x3a62f800],
    [0x3f30472e, 0x3f304f0d, 0x3f316fb9, 0x3f316f82, 0x3a166000],
    [0x3f2f4d4e, 0x3f2f68c4, 0x3f316ce4, 0x3f316d75, 0x3a3bd800],
    [0x3f2e4aa8, 0x3f2e6ea0, 0x3f316bc3, 0x3f316a22, 0x3a287800],
    [0x3f2d2548, 0x3f2d3a68, 0x3f31697b, 0x3f316851, 0x398ad000],
];
const GOLDEN_NO_MMD: [[u32; 5]; STEPS] = [
    [0x3f3124ff, 0x3f313f59, 0x3f31720d, 0x3f3171bb, 0x00000000],
    [0x3f304769, 0x3f304f10, 0x3f316fc0, 0x3f316f7e, 0x00000000],
    [0x3f2f4be0, 0x3f2f6702, 0x3f316cc7, 0x3f316d5b, 0x00000000],
    [0x3f2e499e, 0x3f2e6ca1, 0x3f316b92, 0x3f3169f3, 0x00000000],
    [0x3f2d22e0, 0x3f2d3861, 0x3f316939, 0x3f316818, 0x00000000],
];
const GOLDEN_NO_TEXT: [[u32; 5]; STEPS] = [
    [0x3f3124ff, 0x3f313f59, 0x00000000, 0x00000000, 0x3a605800],
    [0x3f304746, 0x3f304ef4, 0x00000000, 0x00000000, 0x3a40d000],
    [0x3f2f4cce, 0x3f2f67a9, 0x00000000, 0x00000000, 0x3a107800],
    [0x3f2e49df, 0x3f2e6dfa, 0x00000000, 0x00000000, 0x39d90000],
    [0x3f2d24fd, 0x3f2d38e6, 0x00000000, 0x00000000, 0x39f25000],
];
const GOLDEN_NO_RESAMPLE: [[u32; 5]; STEPS] = [
    [0x3f3124ff, 0x3f313f59, 0x3f31720d, 0x3f3171bb, 0x3a76f000],
    [0x3f304775, 0x3f304f1f, 0x3f316fd1, 0x3f316f8b, 0x3a8d0400],
    [0x3f2f4c77, 0x3f2f6800, 0x3f316ce4, 0x3f316d85, 0x3a333800],
    [0x3f2e4b1c, 0x3f2e6d60, 0x3f316bce, 0x3f316a3f, 0x39f0d000],
    [0x3f2d25c2, 0x3f2d3ada, 0x3f316993, 0x3f31687a, 0x399cb000],
];
/// Recorded at the commit before `train_step` began preparing the next
/// step's draws: the first three rows are `GOLDEN_FULL`'s.
const GOLDEN_ONLINE_BETWEEN: [[u32; 5]; STEPS + 1] = [
    [0x3f3124ff, 0x3f313f59, 0x3f31720d, 0x3f3171bb, 0x3a62f800],
    [0x3f30472e, 0x3f304f0d, 0x3f316fb9, 0x3f316f82, 0x3a166000],
    [0x3f2f4d4e, 0x3f2f68c4, 0x3f316ce4, 0x3f316d75, 0x3a3bd800],
    [0x3f31d12d, 0x00000000, 0x00000000, 0x00000000, 0x00000000],
    [0x3f2db215, 0x3f2dc20d, 0x3f316c1c, 0x3f316b29, 0x39b8f000],
    [0x3f2cc0ee, 0x3f2ceaf5, 0x3f3168c9, 0x3f3167cc, 0x39a49000],
];
const GOLDEN_LINEAR_MMD: [[u32; 5]; STEPS] = [
    [0x3f3124ff, 0x3f313f59, 0x3f31720d, 0x3f3171bb, 0xb71fb000],
    [0x3f304907, 0x3f304fbf, 0x3f316fbe, 0x3f316f8b, 0xba198600],
    [0x3f2f4fc0, 0x3f2f69ab, 0x3f316cdd, 0x3f316d70, 0x3a42cf40],
    [0x3f2e4ed5, 0x3f2e71e7, 0x3f316baf, 0x3f316a33, 0x39e59680],
    [0x3f2d2b46, 0x3f2d3e66, 0x3f31695b, 0x3f31685a, 0xba4a8d40],
];
