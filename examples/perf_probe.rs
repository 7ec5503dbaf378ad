//! A handful of layer timings to read beside the benchmark: the register
//! tiles this build compiled and the scoring tower's four products, the
//! three product shapes, one IVF assignment pass, the two MMD
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
use st_transrec::tensor::{ops, Gradients, Init, Matrix, MatrixPool, ParamStore, Tape};
use std::time::Instant;

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
    // path is back.
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
    // lanes; each context term draws 4 096 negative words.
    let mut store = ParamStore::new();
    let widths = [128, 64, 32, 16];
    let layers = widths.map(|w| store.register("h", 640, w, Init::Zeros, &mut rng));
    let mut pool = MatrixPool::new();
    let t = best_of(200, || {
        let mut tape = Tape::with_pool(&store, std::mem::take(&mut pool));
        for &h in &layers {
            let h = tape.param(h);
            tape.dropout(h, 0.1, &mut rng);
        }
        pool = tape.into_pool();
    });
    println!("dropout 640x{widths:?}: {:.1} us per lane", t * 1e6);
    let draws = 640 * widths.iter().sum::<usize>() as u64;
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
}
