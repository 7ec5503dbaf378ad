//! A handful of layer timings to read beside the benchmark: the register
//! tiles this build compiled and the scoring tower's four products, the
//! three product shapes, the training tower's weight gradients and its
//! layers fused and as op chains, one IVF assignment pass, the two MMD
//! estimators, a training step's random draws, and a training step by
//! variant and schedule, beside `train_step` itself.
//!
//! ```text
//! cargo run --release --example perf_probe
//! ```

use rand::{rngs::SmallRng, RngCore, SeedableRng};
use st_transrec::core::{mmd_loss, MmdEstimator, ModelConfig, STTransRec, Schedule, Variant};
use st_transrec::data::{synth, CityId, CrossingCitySplit};
use st_transrec::tensor::kernels::{self, PackedB, TILE_ROWS};
use st_transrec::tensor::{
    ops, Activation, Gradients, Init, Matrix, MatrixPool, ParamStore, Tape, Var,
};
use std::time::{Duration, Instant};

/// Best wall time of `reps` runs of `f`, in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

fn lcg(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 31 + seed) % 257) as f32 / 257.0 - 0.5)
        .collect()
}

/// Rows of a training interaction batch (128 positives, 4 negatives each).
const BATCH: usize = 640;
/// The interaction tower's layers, `(in, out)`.
const TOWER: [(usize, usize); 4] = [(128, 64), (64, 32), (32, 16), (16, 1)];

/// `Tape::dropout`'s mask loop alone: one `next_u64` per element, kept
/// below `keep`, the mask value stored. `rng` is a parameter, not a
/// closure capture, so its state stays in registers.
fn draw_mask(mask: &mut [f32], keep: f32, rng: &mut SmallRng) {
    let below = (keep * (1u32 << 24) as f32).ceil() as u64;
    for m in mask {
        *m = if rng.next_u64() >> 40 < below {
            1.0 / keep
        } else {
            0.0
        };
    }
}

fn main() {
    let gflops = |m: usize, k: usize, n: usize, secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;

    // Which register tiles this build runs: the 16- and 32-wide panels
    // take zmm intrinsics when the target has AVX-512F, the generic
    // autovectorised tiles otherwise. Then the scoring tower's four
    // products (128 -> 64 -> 32 -> 16 -> 1, the user's half of the first
    // layer seeding the accumulators) on one row tile of candidates.
    println!(
        "register tiles: {}",
        if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
            "avx512f (zmm intrinsics for 16/32-wide panels)"
        } else {
            "generic (autovectorised)"
        }
    );
    for (k, n) in [(64, 64), (64, 32), (32, 16), (16, 1)] {
        let a = lcg(TILE_ROWS * k, 3);
        let w = PackedB::pack(&lcg(k * n, 5), k, n);
        let init = lcg(n, 9);
        let mut c = vec![0.0f32; TILE_ROWS * n];
        let t = best_of(20_000, || {
            kernels::matmul_packed(&a, &w, Some(&init), &mut c, TILE_ROWS, |c, acc, _, _| {
                c.copy_from_slice(acc)
            })
        });
        println!(
            "score tile {TILE_ROWS}x{k}x{n}: {:.1} GFLOP/s ({:.2} us)",
            gflops(TILE_ROWS, k, n, t),
            t * 1e6
        );
    }

    // All three shapes run the one packed kernel family, so they should
    // read alike; `a * b^T` well under the others means a dot-product
    // path is back, and `a^T * b` well under `a * b` a transposed copy.
    let n = 256;
    let a = Matrix::from_vec(n, n, lcg(n * n, 3));
    let b = Matrix::from_vec(n, n, lcg(n * n, 5));
    let t = best_of(7, || a.matmul(&b));
    println!(
        "a*b    {n}x{n} * {n}x{n}: {:.1} GFLOP/s",
        gflops(n, n, n, t)
    );
    let t = best_of(7, || a.matmul_transpose_a(&b));
    println!(
        "a^T*b  ({n}x{n})^T * {n}x{n}: {:.1} GFLOP/s",
        gflops(n, n, n, t)
    );
    // The tape's `dA = g * W^T` at the paper's batch (640 rows into the
    // tower's first layer) and the MMD term's 64-row pairwise distance.
    for (m, k, n) in [(640, 64, 128), (64, 64, 64)] {
        let g = Matrix::from_vec(m, k, lcg(m * k, 7));
        let w = Matrix::from_vec(n, k, lcg(n * k, 11));
        let mut out = Matrix::zeros(m, n);
        let t = best_of(200, || g.matmul_transpose_b_into(&w, &mut out));
        println!(
            "a*b^T  {m}x{k} * ({n}x{k})^T: {:.1} GFLOP/s ({:.1} us)",
            gflops(m, k, n, t),
            t * 1e6
        );
    }

    // A training step's weight gradients `dW = x^T g` at the tower's
    // four layers (640 rows), `x^T` read in place, against the same
    // product on an `x` transposed beforehand, and what that copy costs.
    for (k, n) in TOWER {
        let x = Matrix::from_vec(BATCH, k, lcg(BATCH * k, 3));
        let g = Matrix::from_vec(BATCH, n, lcg(BATCH * n, 5));
        let xt = x.transpose();
        let in_place = best_of(200, || x.matmul_transpose_a(&g));
        let transposed = best_of(200, || xt.matmul(&g));
        let copy = best_of(200, || x.transpose());
        println!(
            "a^T*b  ({BATCH}x{k})^T * {BATCH}x{n}: {:.1} us, on x^T given {:.1} us \
             (+ {:.1} us to transpose x)",
            in_place * 1e6,
            transposed * 1e6,
            copy * 1e6
        );
    }

    // The interaction tower's layers at the paper's batch, forward and
    // backward: one fused node each (`Tape::gather_concat`,
    // `Tape::dense`) against the op chain they replace, with the same
    // draws (dropout 0.1 on the embedding and hidden layers, none on
    // the 16 -> 1 head).
    let mut rng = SmallRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let gauss = Init::Gaussian { std: 0.1 };
    let users = store.register("users", 2_000, 64, gauss, &mut rng);
    let pois = store.register("pois", 2_000, 64, gauss, &mut rng);
    let rows: Vec<usize> = (0..BATCH).map(|i| i * 7 % 2_000).collect();
    let layers = TOWER.map(|(k, n)| {
        let x = store.register("x", BATCH, k, gauss, &mut rng);
        (k, n, x, store.register("w", k, n, gauss, &mut rng))
    });
    let biases = TOWER.map(|(_, n)| store.register("b", 1, n, gauss, &mut rng));
    let mut pool = MatrixPool::new();
    // Best forward and backward µs of each of the two builds of a layer,
    // their runs interleaved so a change of the host's speed between
    // them reads as noise, not as a difference.
    type Layer<'a> = &'a dyn Fn(&mut Tape<'_>, &mut SmallRng) -> Var;
    let mut timed = |builds: [Layer<'_>; 2]| {
        let mut best = [[f64::MAX; 2]; 2];
        let mut grads = Gradients::zeros_like(&store);
        for _ in 0..200 {
            for (layer, best) in builds.iter().zip(&mut best) {
                let mut tape = Tape::with_pool(&store, std::mem::take(&mut pool));
                let t = Instant::now();
                let out = layer(&mut tape, &mut rng);
                best[0] = best[0].min(t.elapsed().as_secs_f64());
                let loss = tape.sum_all(out);
                let t = Instant::now();
                tape.backward(loss, &mut grads);
                best[1] = best[1].min(t.elapsed().as_secs_f64());
                pool = tape.into_pool();
                grads.clear();
            }
        }
        best.map(|b| b.map(|secs| secs * 1e6))
    };
    let [fused, chain] = timed([
        &|t, rng| t.gather_concat(users, &rows, pois, &rows, 0.1, rng),
        &|t, rng| {
            let (u, p) = (t.gather_param(users, &rows), t.gather_param(pois, &rows));
            let x = t.concat_cols(u, p);
            t.dropout(x, 0.1, rng)
        },
    ]);
    println!(
        "input {BATCH}x128: fused fwd {:.1} bwd {:.1} us, chain fwd {:.1} bwd {:.1} us",
        fused[0], fused[1], chain[0], chain[1]
    );
    for ((k, n, x, w), b) in layers.into_iter().zip(biases) {
        let head = n == 1;
        let (act, p) = if head {
            (Activation::Identity, 0.0)
        } else {
            (Activation::Relu, 0.1)
        };
        let params = |t: &mut Tape<'_>| (t.param(x), t.param(w), t.param(b));
        let [fused, chain] = timed([
            &|t, rng| {
                let (x, w, b) = params(t);
                t.dense(x, w, b, act, p, rng)
            },
            &|t, rng| {
                let (x, w, b) = params(t);
                let h = t.linear(x, w, b);
                match head {
                    true => h,
                    false => {
                        let h = t.relu(h);
                        t.dropout(h, p, rng)
                    }
                }
            },
        ]);
        println!(
            "layer {BATCH}x{k}->{n}: fused fwd {:.1} bwd {:.1} us, chain fwd {:.1} bwd {:.1} us",
            fused[0], fused[1], chain[0], chain[1]
        );
    }

    // The IVF assignment pass at fixture-L size. k = 316 is what a
    // 25k-POI city gets (2 * sqrt(n)); 320 fills whole NR panels, which
    // is what `nearest_centroids` pads to, so the two should read alike.
    let (n, dim) = (25_000, 64);
    let points = Matrix::from_vec(n, dim, lcg(n * dim, 7));
    for k in [316, 320, 1000] {
        let centroids = Matrix::from_vec(k, dim, lcg(k * dim, 11));
        let mut assign = Vec::new();
        let t = best_of(5, || {
            ops::nearest_centroids(&points, &centroids, &mut assign)
        });
        println!(
            "assign: {n}x{dim} -> k={k:<4} {:.1}ms ({:.1} GFLOP/s)",
            t * 1e3,
            gflops(n, dim, k, t)
        );
    }

    // Paper Sec. 3.2: the linear-time MMD estimator makes the transfer
    // term O(n) in the batch where the U-statistic is O(n^2). One
    // forward + backward over two n x 64 embedding batches, pooled tape.
    let mut rng = SmallRng::seed_from_u64(1);
    for n in [32, 128, 512] {
        let mut store = ParamStore::new();
        let s = store.register("s", n, 64, Init::Gaussian { std: 0.5 }, &mut rng);
        let t = store.register("t", n, 64, Init::Gaussian { std: 0.5 }, &mut rng);
        let mut pool = MatrixPool::new();
        let mut step = |estimator: MmdEstimator| {
            let mut tape = Tape::with_pool(&store, std::mem::take(&mut pool));
            let (sv, tv) = (tape.param(s), tape.param(t));
            let loss = mmd_loss(&mut tape, sv, tv, 1.0, estimator);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            pool = tape.into_pool();
            grads
        };
        let quadratic = best_of(20, || step(MmdEstimator::Quadratic));
        let linear = best_of(20, || step(MmdEstimator::Linear));
        println!(
            "mmd fwd+bwd n={n:<3} quadratic {:.1} us, linear {:.1} us",
            quadratic * 1e6,
            linear * 1e6
        );
    }

    // A training step's random draws. Each lane's interaction term masks
    // the paper's 640-row batch at the tower's four widths (153 600
    // draws); the prologue jumps the stream over the same count for both
    // lanes; each context term draws 4 096 negative words. `Tape::dropout`
    // on the widest mask, against its draws alone (one `next_u64` per
    // element, compared and stored): the rest is its two passes over
    // the value.
    let mut store = ParamStore::new();
    let h = store.register("h", BATCH, 128, Init::Zeros, &mut rng);
    let mut pool = MatrixPool::new();
    let t = best_of(200, || {
        let mut tape = Tape::with_pool(&store, std::mem::take(&mut pool));
        let h = tape.param(h);
        tape.dropout(h, 0.1, &mut rng);
        pool = tape.into_pool();
    });
    let mut mask = vec![0.0f32; BATCH * 128];
    let alone = best_of(200, || {
        draw_mask(&mut mask, 0.9, &mut rng);
        std::hint::black_box(&mask);
    });
    println!(
        "dropout {BATCH}x128: {:.1} us, its draws alone {:.1} us",
        t * 1e6,
        alone * 1e6
    );
    let draws = BATCH as u64 * TOWER.iter().map(|&(k, _)| k as u64).sum::<u64>();
    let jump = best_of(200, || rng.advance(draws));
    let stepping = best_of(20, || (0..draws).for_each(|_| _ = rng.next_u64()));
    println!(
        "advance({draws}) {:.1} us, stepping {:.1} us",
        jump * 1e6,
        stepping * 1e6
    );

    let synth_cfg = synth::SynthConfig::foursquare_like().with_scale(0.15);
    let (dataset, _) = synth::generate(&synth_cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(synth_cfg.target_city as u16));
    let table = dataset.vocab().negative_table(0.75);
    let t = best_of(200, || {
        (0..8192).map(|_| table.sample(&mut rng).0).sum::<u32>()
    });
    println!(
        "negatives: 8192 draws over {} words {:.1} us",
        table.len(),
        t * 1e6
    );

    // One training step on `train_paper`'s data, by variant: accumulate
    // + apply with the lanes inline and on two threads, then `train_step`
    // itself. Inline, Full minus NoText is the two text terms and Full
    // minus NoMmd the MMD term; concurrent, a step costs its longer lane
    // plus the prologue, the merge and the apply. `train_step` makes the
    // next step's prologue beside this one's merge and apply, so it costs
    // its longer lane plus the longer of those two. With one CPU the
    // three columns read alike.
    for variant in [Variant::Full, Variant::NoText, Variant::NoMmd] {
        let config = ModelConfig::foursquare().with_variant(variant);
        let [inline, concurrent] = [Schedule::Inline, Schedule::Concurrent].map(|schedule| {
            let mut model = STTransRec::new(&dataset, &split, config.clone());
            let mut buffers = model.new_step_buffers();
            let mut rng = SmallRng::seed_from_u64(1);
            let mut step = || {
                model.accumulate_step(&dataset, &mut rng, &mut buffers, schedule);
                model.apply(buffers.grads());
                buffers.clear();
            };
            (0..10).for_each(|_| step());
            best_of(60, step) * 1e3
        });
        let mut model = STTransRec::new(&dataset, &split, config);
        (0..10).for_each(|_| _ = model.train_step(&dataset));
        let pipelined = best_of(60, || model.train_step(&dataset)) * 1e3;
        println!(
            "train_step {:<7} inline {inline:.2} ms, concurrent {concurrent:.2} ms, \
             train_step {pipelined:.2} ms",
            format!("{variant:?}")
        );
    }

    // `train_step`'s own split of its wall time (`EpochStats::phases`)
    // over one epoch of a fresh Full model, per step: lanes, merge +
    // apply, and the next draws on the calling thread, beside the draws'
    // own time on the thread that made them.
    let mut model = STTransRec::new(&dataset, &split, ModelConfig::foursquare());
    let phases = model.train_epoch(&dataset).phases;
    let per_step = |d: Duration| d.as_secs_f64() * 1e3 / model.steps_per_epoch() as f64;
    println!(
        "train_step phases per step: lanes {:.2} ms, apply {:.2} ms, draws {:.2} ms \
         (drawing {:.2} ms)",
        per_step(phases.lanes),
        per_step(phases.apply),
        per_step(phases.draws),
        per_step(phases.drawing),
    );
}
