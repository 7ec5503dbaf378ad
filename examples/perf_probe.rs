//! A handful of layer timings to read beside the benchmark: the three
//! product shapes, one IVF assignment pass, the two MMD estimators, and
//! a training step by variant and schedule.
//!
//! ```text
//! cargo run --release --example perf_probe
//! ```

use rand::{rngs::SmallRng, SeedableRng};
use st_transrec::core::{mmd_loss, MmdEstimator, ModelConfig, STTransRec, Schedule, Variant};
use st_transrec::data::{synth, CityId, CrossingCitySplit};
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
    // All three shapes run the one packed kernel family, so they should
    // read alike; `a * b^T` well under the others means a dot-product
    // path is back.
    let n = 256;
    let a = Matrix::from_vec(n, n, lcg(n * n, 3));
    let b = Matrix::from_vec(n, n, lcg(n * n, 5));
    let gflops = |m: usize, k: usize, n: usize, secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;
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

    // One training step (accumulate + apply) on `train_paper`'s data, by
    // variant, with the lanes inline and on two threads. Inline, Full
    // minus NoText is the two text terms and Full minus NoMmd the MMD
    // term; concurrent, a step costs its longer lane plus the prologue,
    // the merge and the apply. With one CPU the two columns read alike.
    let synth_cfg = synth::SynthConfig::foursquare_like().with_scale(0.15);
    let (dataset, _) = synth::generate(&synth_cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(synth_cfg.target_city as u16));
    for variant in [Variant::Full, Variant::NoText, Variant::NoMmd] {
        let [inline, concurrent] = [Schedule::Inline, Schedule::Concurrent].map(|schedule| {
            let config = ModelConfig::foursquare().with_variant(variant);
            let mut model = STTransRec::new(&dataset, &split, config);
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
        println!(
            "train_step {:<7} inline {inline:.2} ms, concurrent {concurrent:.2} ms",
            format!("{variant:?}")
        );
    }
}
