//! The MMD transfer layer (Sec. 2.1 and Eq. 10).
//!
//! Given resampled batches of source- and target-city POI embeddings, the
//! layer computes the squared Maximum Mean Discrepancy under a Gaussian
//! kernel with fixed bandwidth. Minimizing it (weighted by `lambda` in
//! Eq. 3) pulls the two embedding distributions together — the transfer
//! mechanism that strips city-dependent features.
//!
//! Two estimators are provided, matching the paper's complexity analysis
//! (Sec. 3.2): the full quadratic U-statistic and the O(D) linear-time
//! paired statistic from Gretton et al. \[15, Sec. 6\] as used by JAN \[16\].

use crate::MmdEstimator;
use st_tensor::{Matrix, Tape, Var};

/// Builds the differentiable MMD loss between `source` (`ns x d`) and
/// `target` (`nt x d`) embedding batches on `tape`.
///
/// The quadratic estimator runs through the fused
/// [`Tape::gaussian_kernel`] op (single pairwise-distance kernel forward,
/// analytic backward); the linear estimator reads alternate rows with
/// [`Tape::gather_rows`] and costs O(n) in the batch size.
///
/// Returns a `1 x 1` scalar variable. For [`MmdEstimator::Linear`], both
/// batches are truncated to the same even length.
///
/// # Panics
/// Panics if either batch has fewer than 2 rows or dimensions mismatch.
pub fn mmd_loss(
    tape: &mut Tape<'_>,
    source: Var,
    target: Var,
    sigma: f32,
    estimator: MmdEstimator,
) -> Var {
    let (ns, d) = tape.value(source).shape();
    let (nt, dt) = tape.value(target).shape();
    assert_eq!(d, dt, "embedding dims differ");
    assert!(ns >= 2 && nt >= 2, "MMD needs at least 2 samples per side");
    match estimator {
        MmdEstimator::Quadratic => {
            let kss = tape.gaussian_kernel(source, source, sigma);
            let ktt = tape.gaussian_kernel(target, target, sigma);
            let kst = tape.gaussian_kernel(source, target, sigma);
            let mss = tape.mean_all(kss);
            let mtt = tape.mean_all(ktt);
            let mst = tape.mean_all(kst);
            let sum = tape.add(mss, mtt);
            let neg = tape.scale(mst, -2.0);
            tape.add(sum, neg)
        }
        MmdEstimator::Linear => {
            // h((x1,y1),(x2,y2)) = k(x1,x2) + k(y1,y2) - k(x1,y2) - k(x2,y1),
            // averaged over consecutive non-overlapping pairs.
            let m = (ns.min(nt) / 2) * 2;
            let even_rows: Vec<usize> = (0..m).step_by(2).collect();
            let odd_rows: Vec<usize> = (1..m).step_by(2).collect();
            let even = tape.gather_rows(source, &even_rows);
            let odd = tape.gather_rows(source, &odd_rows);
            let teven = tape.gather_rows(target, &even_rows);
            let todd = tape.gather_rows(target, &odd_rows);
            let kxx = rowwise_gaussian(tape, even, odd, sigma);
            let kyy = rowwise_gaussian(tape, teven, todd, sigma);
            let kxy = rowwise_gaussian(tape, even, todd, sigma);
            let kyx = rowwise_gaussian(tape, odd, teven, sigma);
            let a = tape.add(kxx, kyy);
            let b = tape.add(kxy, kyx);
            let h = tape.sub(a, b);
            tape.mean_all(h)
        }
    }
}

/// Rowwise Gaussian kernel between corresponding rows of `a` and `b`
/// (`n x 1` output): `exp(-||a_i - b_i||^2 / (2 sigma^2))`.
fn rowwise_gaussian(tape: &mut Tape<'_>, a: Var, b: Var, sigma: f32) -> Var {
    let diff = tape.sub(a, b);
    let sq = tape.mul_elem(diff, diff);
    let dist = tape.sum_cols(sq);
    let scaled = tape.scale(dist, -1.0 / (2.0 * sigma * sigma));
    tape.exp(scaled)
}

/// Non-differentiable quadratic MMD^2 on plain matrices (for tests,
/// diagnostics and benches).
pub fn mmd_value(source: &Matrix, target: &Matrix, sigma: f32) -> f32 {
    let k = |a: &Matrix, b: &Matrix| -> f32 {
        let mut acc = 0.0f64;
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let d2: f32 = a
                    .row(i)
                    .iter()
                    .zip(b.row(j))
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                acc += (-d2 / (2.0 * sigma * sigma)).exp() as f64;
            }
        }
        (acc / (a.rows() as f64 * b.rows() as f64)) as f32
    };
    k(source, source) + k(target, target) - 2.0 * k(source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use st_tensor::{Gradients, Init, ParamStore};

    fn random_matrix(rows: usize, cols: usize, seed: u64, shift: f32) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Init::Gaussian { std: 1.0 }.sample(rows, cols, &mut rng);
        m.map_inplace(|x| x + shift);
        m
    }

    #[test]
    fn identical_distributions_give_near_zero_mmd() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = random_matrix(40, 4, 1, 0.0);
        let a = tape.input(x.clone());
        let b = tape.input(x);
        let loss = mmd_loss(&mut tape, a, b, 1.0, MmdEstimator::Quadratic);
        // Same samples: biased V-statistic is small but nonnegative here.
        let v = tape.value(loss).item();
        assert!(v.abs() < 0.05, "MMD of identical batches: {v}");
    }

    #[test]
    fn shifted_distributions_give_large_mmd() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(random_matrix(40, 4, 1, 0.0));
        let b = tape.input(random_matrix(40, 4, 2, 3.0));
        // With sigma = 2 the kernel sees the shift clearly.
        let loss = mmd_loss(&mut tape, a, b, 2.0, MmdEstimator::Quadratic);
        let far = tape.value(loss).item();
        let a2 = tape.input(random_matrix(40, 4, 3, 0.0));
        let b2 = tape.input(random_matrix(40, 4, 4, 0.0));
        let near_loss = mmd_loss(&mut tape, a2, b2, 2.0, MmdEstimator::Quadratic);
        let near = tape.value(near_loss).item();
        assert!(far > 0.3, "shifted MMD too small: {far}");
        assert!(
            far > 10.0 * near.abs().max(1e-3),
            "no separation: {far} vs {near}"
        );
    }

    #[test]
    fn quadratic_tape_matches_plain_value() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = random_matrix(16, 3, 3, 0.0);
        let y = random_matrix(12, 3, 4, 1.0);
        let a = tape.input(x.clone());
        let b = tape.input(y.clone());
        let loss = mmd_loss(&mut tape, a, b, 1.2, MmdEstimator::Quadratic);
        let expect = mmd_value(&x, &y, 1.2);
        assert!((tape.value(loss).item() - expect).abs() < 1e-4);
    }

    #[test]
    fn linear_estimator_tracks_quadratic_in_expectation() {
        // Averaged over many draws, the linear statistic approximates the
        // quadratic one: both near zero for equal dists, both large for
        // shifted dists, with the same ordering.
        let store = ParamStore::new();
        let eval = |shift: f32, est: MmdEstimator| -> f32 {
            let mut acc = 0.0;
            let reps = 20;
            for r in 0..reps {
                let mut tape = Tape::new(&store);
                let a = tape.input(random_matrix(64, 4, 100 + r, 0.0));
                let b = tape.input(random_matrix(64, 4, 200 + r, shift));
                let l = mmd_loss(&mut tape, a, b, 2.0, est);
                acc += tape.value(l).item();
            }
            acc / reps as f32
        };
        let lin_same = eval(0.0, MmdEstimator::Linear);
        let lin_far = eval(2.0, MmdEstimator::Linear);
        let quad_far = eval(2.0, MmdEstimator::Quadratic);
        assert!(lin_same.abs() < 0.1, "linear MMD same dist: {lin_same}");
        assert!(lin_far > 0.2, "linear MMD shifted: {lin_far}");
        assert!(
            (lin_far - quad_far).abs() < 0.3 * quad_far.max(0.1),
            "linear {lin_far} vs quadratic {quad_far}"
        );
    }

    #[test]
    fn fused_quadratic_matches_reference_value_and_gradients() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let s = store.register("s", 12, 5, Init::Gaussian { std: 1.0 }, &mut rng);
        let t = store.register("t", 10, 5, Init::Gaussian { std: 1.0 }, &mut rng);

        // The same statistic with every kernel matrix built from tape
        // primitives, so each backward rule is the primitive's own.
        let composite = |tape: &mut Tape<'_>, a: Var, b: Var| -> Var {
            let kss = tape.gaussian_kernel_composite(a, a, 1.1);
            let ktt = tape.gaussian_kernel_composite(b, b, 1.1);
            let kst = tape.gaussian_kernel_composite(a, b, 1.1);
            let mss = tape.mean_all(kss);
            let mtt = tape.mean_all(ktt);
            let mst = tape.mean_all(kst);
            let sum = tape.add(mss, mtt);
            let neg = tape.scale(mst, -2.0);
            tape.add(sum, neg)
        };
        let run = |fused: bool| -> (f32, Matrix, Matrix) {
            let mut tape = Tape::new(&store);
            let a = tape.param(s);
            let b = tape.param(t);
            let loss = if fused {
                mmd_loss(&mut tape, a, b, 1.1, MmdEstimator::Quadratic)
            } else {
                composite(&mut tape, a, b)
            };
            let v = tape.value(loss).item();
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            (
                v,
                grads.get(s).unwrap().clone(),
                grads.get(t).unwrap().clone(),
            )
        };
        let (vf, gsf, gtf) = run(true);
        let (vr, gsr, gtr) = run(false);
        assert!(
            (vf - vr).abs() < 1e-5,
            "fused MMD value diverges: {vf} vs {vr}"
        );
        assert!(gsf.approx_eq(&gsr, 1e-5), "fused source grads diverge");
        assert!(gtf.approx_eq(&gtr, 1e-5), "fused target grads diverge");
    }

    #[test]
    fn gradients_flow_into_both_sides() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let s = store.register("s", 8, 3, Init::Gaussian { std: 1.0 }, &mut rng);
        let t = store.register("t", 8, 3, Init::Gaussian { std: 1.0 }, &mut rng);
        for est in [MmdEstimator::Quadratic, MmdEstimator::Linear] {
            let mut tape = Tape::new(&store);
            let a = tape.param(s);
            let b = tape.param(t);
            let loss = mmd_loss(&mut tape, a, b, 1.0, est);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            assert!(grads.get(s).is_some(), "{est:?}: no source grad");
            assert!(grads.get(t).is_some(), "{est:?}: no target grad");
            assert!(grads.get(s).unwrap().max_abs() > 0.0);
        }
    }

    #[test]
    fn minimizing_mmd_aligns_distributions() {
        // Gradient-descend target embeddings toward a fixed source batch;
        // MMD must drop substantially. This is the transfer layer's job.
        use st_tensor::{Optimizer, Sgd};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let t = store.register("t", 16, 3, Init::Gaussian { std: 0.5 }, &mut rng);
        // Offset initial target by +2.
        store.get_mut(t).map_inplace(|x| x + 2.0);
        let source = random_matrix(16, 3, 6, 0.0);

        let mut opt = Sgd::new(0.5);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let mut tape = Tape::new(&store);
            let sv = tape.input(source.clone());
            let tv = tape.param(t);
            let loss = mmd_loss(&mut tape, sv, tv, 1.0, MmdEstimator::Quadratic);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(last < 0.5 * first, "MMD did not shrink: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn rejects_single_sample_batch() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(Matrix::zeros(1, 3));
        let b = tape.input(Matrix::zeros(5, 3));
        mmd_loss(&mut tape, a, b, 1.0, MmdEstimator::Quadratic);
    }
}

/// The median heuristic for the Gaussian bandwidth: the median pairwise
/// distance between rows of the pooled sample (Gretton et al. \[15\]).
///
/// The paper fixes `sigma`; this extension (DESIGN.md §6) adapts it to
/// the current embedding scale, which matters because embeddings grow
/// during training while a fixed bandwidth slowly leaves the kernel's
/// sensitive range.
///
/// # Panics
/// Panics if fewer than two rows are supplied in total.
pub fn median_heuristic_sigma(source: &Matrix, target: &Matrix) -> f32 {
    assert_eq!(source.cols(), target.cols(), "dims differ");
    let rows: Vec<&[f32]> = (0..source.rows())
        .map(|i| source.row(i))
        .chain((0..target.rows()).map(|i| target.row(i)))
        .collect();
    assert!(rows.len() >= 2, "median heuristic needs at least 2 samples");
    let mut dists = Vec::with_capacity(rows.len() * (rows.len() - 1) / 2);
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            let d2: f32 = rows[i]
                .iter()
                .zip(rows[j])
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            dists.push(d2.sqrt());
        }
    }
    dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    let median = dists[dists.len() / 2];
    // Guard against collapsed samples: never return a degenerate bandwidth.
    median.max(1e-3)
}

#[cfg(test)]
mod median_tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use st_tensor::Init;

    #[test]
    fn median_scales_with_the_data() {
        let mut rng = SmallRng::seed_from_u64(0);
        let a = Init::Gaussian { std: 1.0 }.sample(20, 4, &mut rng);
        let b = Init::Gaussian { std: 1.0 }.sample(20, 4, &mut rng);
        let s1 = median_heuristic_sigma(&a, &b);
        let s10 = median_heuristic_sigma(&a.scale(10.0), &b.scale(10.0));
        assert!(
            (s10 / s1 - 10.0).abs() < 0.5,
            "sigma should scale linearly: {s1} -> {s10}"
        );
    }

    #[test]
    fn collapsed_samples_get_floor_bandwidth() {
        let a = Matrix::zeros(5, 3);
        let b = Matrix::zeros(5, 3);
        assert_eq!(median_heuristic_sigma(&a, &b), 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn rejects_single_row_total() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(0, 3);
        median_heuristic_sigma(&a, &b);
    }
}
