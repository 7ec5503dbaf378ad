//! Finite-difference gradient checking.
//!
//! Used by this crate's test suite (and available to downstream crates'
//! tests) to verify that every analytic gradient matches a central
//! finite-difference estimate. This is the ground truth that keeps hand
//! written backward rules honest.

use crate::{Gradients, Matrix, ParamStore, Tape, Var};

/// Result of comparing analytic vs numerical gradients for one parameter.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Parameter name.
    pub name: String,
    /// Largest absolute difference between analytic and numerical entries.
    pub max_abs_diff: f32,
    /// Largest relative difference, with an absolute floor to avoid
    /// blowing up near-zero gradients.
    pub max_rel_diff: f32,
}

/// Checks analytic gradients of `f` (a scalar-loss builder) against central
/// finite differences for every parameter in `store`.
///
/// `f` must be deterministic in the parameter values (use a fixed RNG seed
/// inside, or no randomness). Returns one report per parameter.
pub fn check_gradients(
    store: &mut ParamStore,
    eps: f32,
    mut f: impl FnMut(&mut Tape<'_>) -> Var,
) -> Vec<GradCheckReport> {
    // Analytic pass.
    let mut grads = Gradients::zeros_like(store);
    {
        let mut tape = Tape::new(store);
        let loss = f(&mut tape);
        tape.backward(loss, &mut grads);
    }

    let loss_at = |store: &ParamStore, f: &mut dyn FnMut(&mut Tape<'_>) -> Var| -> f32 {
        let mut tape = Tape::new(store);
        let loss = f(&mut tape);
        tape.value(loss).item()
    };

    let ids: Vec<_> = store.ids().collect();
    let mut reports = Vec::with_capacity(ids.len());
    for id in ids {
        let name = store.name(id).to_string();
        let shape = store.get(id).shape();
        let analytic = grads
            .to_dense(id)
            .unwrap_or_else(|| Matrix::zeros(shape.0, shape.1));

        let mut max_abs = 0.0f32;
        let mut max_rel = 0.0f32;
        for i in 0..shape.0 * shape.1 {
            let orig = store.get(id).as_slice()[i];
            store.get_mut(id).as_mut_slice()[i] = orig + eps;
            let up = loss_at(store, &mut f);
            store.get_mut(id).as_mut_slice()[i] = orig - eps;
            let down = loss_at(store, &mut f);
            store.get_mut(id).as_mut_slice()[i] = orig;

            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-2);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
        reports.push(GradCheckReport {
            name,
            max_abs_diff: max_abs,
            max_rel_diff: max_rel,
        });
    }
    reports
}

/// Asserts every parameter's analytic gradient is within `tol` relative
/// error of the finite-difference estimate.
pub fn assert_gradients_close(
    store: &mut ParamStore,
    eps: f32,
    tol: f32,
    f: impl FnMut(&mut Tape<'_>) -> Var,
) {
    for report in check_gradients(store, eps, f) {
        assert!(
            report.max_rel_diff <= tol,
            "gradient check failed for '{}': max_rel_diff {} > {tol} (max_abs {})",
            report.name,
            report.max_rel_diff,
            report.max_abs_diff
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Init, Mlp};
    use rand::{rngs::SmallRng, SeedableRng};

    /// f32 finite differences are noisy; 3% relative tolerance with the
    /// 1e-2 absolute floor is tight enough to catch any wrong backward rule
    /// (a sign error or missing factor produces ~100% relative error).
    const TOL: f32 = 3e-2;
    const EPS: f32 = 1e-2;

    fn seeded_store() -> (ParamStore, SmallRng) {
        (ParamStore::new(), SmallRng::seed_from_u64(99))
    }

    #[test]
    fn matmul_add_relu_chain() {
        let (mut store, mut rng) = seeded_store();
        let w1 = store.register("w1", 3, 4, Init::Gaussian { std: 0.5 }, &mut rng);
        let b1 = store.register("b1", 1, 4, Init::Gaussian { std: 0.5 }, &mut rng);
        let w2 = store.register("w2", 4, 1, Init::Gaussian { std: 0.5 }, &mut rng);
        let x = Init::Gaussian { std: 1.0 }.sample(5, 3, &mut rng);

        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let xv = tape.input(x.clone());
            let w1v = tape.param(w1);
            let b1v = tape.param(b1);
            let h = tape.linear(xv, w1v, b1v);
            let h = tape.tanh(h); // tanh: smoother than relu for FD checks
            let w2v = tape.param(w2);
            let y = tape.matmul(h, w2v);
            tape.mean_all(y)
        });
    }

    #[test]
    fn sigmoid_exp_ln_chain() {
        let (mut store, mut rng) = seeded_store();
        let p = store.register("p", 2, 3, Init::Gaussian { std: 0.4 }, &mut rng);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let v = tape.param(p);
            let s = tape.sigmoid(v); // in (0,1): safe for ln
            let e = tape.exp(s);
            let l = tape.ln(e);
            let sq = tape.mul_elem(l, l);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn broadcast_concat_rowdot_ops() {
        let (mut store, mut rng) = seeded_store();
        let a = store.register("a", 3, 2, Init::Gaussian { std: 0.5 }, &mut rng);
        let b = store.register("b", 3, 2, Init::Gaussian { std: 0.5 }, &mut rng);
        let row = store.register("row", 1, 4, Init::Gaussian { std: 0.5 }, &mut rng);
        let col = store.register("col", 3, 1, Init::Gaussian { std: 0.5 }, &mut rng);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let av = tape.param(a);
            let bv = tape.param(b);
            let cat = tape.concat_cols(av, bv); // 3 x 4
            let rv = tape.param(row);
            let cv = tape.param(col);
            let h = tape.add_row_broadcast(cat, rv);
            let h = tape.add_col_broadcast(h, cv);
            let d = tape.row_dot(h, h); // 3 x 1
            tape.mean_all(d)
        });
    }

    #[test]
    fn reductions_and_transpose() {
        let (mut store, mut rng) = seeded_store();
        let p = store.register("p", 4, 3, Init::Gaussian { std: 0.6 }, &mut rng);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let v = tape.param(p);
            let t = tape.transpose(v); // 3 x 4
            let sc = tape.sum_cols(t); // 3 x 1
            let sr = tape.sum_rows(v); // 1 x 3
            let src = tape.transpose(sr); // 3 x 1
            let prod = tape.mul_elem(sc, src);
            let scaled = tape.scale(prod, 0.5);
            let shifted = tape.add_scalar(scaled, 1.0);
            tape.sum_all(shifted)
        });
    }

    #[test]
    fn gather_param_embedding_gradient() {
        let (mut store, mut rng) = seeded_store();
        let table = store.register("emb", 6, 3, Init::Gaussian { std: 0.5 }, &mut rng);
        let ids = vec![0usize, 4, 4, 2];
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let e = tape.gather_param(table, &ids);
            let sq = tape.mul_elem(e, e);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn gather_row_dot_gradient() {
        let (mut store, mut rng) = seeded_store();
        let pois = store.register("pois", 6, 3, Init::Gaussian { std: 0.5 }, &mut rng);
        let words = store.register("words", 4, 3, Init::Gaussian { std: 0.5 }, &mut rng);
        let (poi_rows, word_rows) = (vec![0usize, 4, 4, 2, 0], vec![3usize, 3, 1, 0, 3]);
        let targets = [1.0, 0.0, 0.0, 1.0, 0.0];
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let logits = tape.gather_row_dot(pois, &poi_rows, words, &word_rows);
            tape.bce_with_logits(logits, &targets)
        });
    }

    #[test]
    fn gather_rows_gradient() {
        let (mut store, mut rng) = seeded_store();
        let p = store.register("p", 5, 3, Init::Gaussian { std: 0.5 }, &mut rng);
        let ids = vec![4usize, 1, 1, 0];
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let v = tape.param(p);
            let t = tape.tanh(v); // gather from a computed node
            let g = tape.gather_rows(t, &ids);
            let sq = tape.mul_elem(g, g);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn bce_with_logits_gradient() {
        let (mut store, mut rng) = seeded_store();
        let p = store.register("logits_src", 5, 1, Init::Gaussian { std: 1.0 }, &mut rng);
        let targets = Matrix::column(&[1.0, 0.0, 1.0, 1.0, 0.0]);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let z = tape.param(p);
            tape.bce_with_logits(z, targets.as_slice())
        });
    }

    #[test]
    fn gaussian_kernel_mmd_gradient() {
        // The exact expression ST-TransRec differentiates: mean of a
        // Gaussian kernel matrix between two embedding sets.
        let (mut store, mut rng) = seeded_store();
        let xs = store.register("xs", 4, 3, Init::Gaussian { std: 0.8 }, &mut rng);
        let xt = store.register("xt", 3, 3, Init::Gaussian { std: 0.8 }, &mut rng);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let a = tape.param(xs);
            let b = tape.param(xt);
            let kst = tape.gaussian_kernel(a, b, 1.0);
            let kss = tape.gaussian_kernel(a, a, 1.0);
            let ktt = tape.gaussian_kernel(b, b, 1.0);
            let mst = tape.mean_all(kst);
            let mss = tape.mean_all(kss);
            let mtt = tape.mean_all(ktt);
            let sum = tape.add(mss, mtt);
            let twice = tape.scale(mst, -2.0);
            tape.add(sum, twice)
        });
    }

    #[test]
    fn full_mlp_gradient() {
        let (mut store, mut rng) = seeded_store();
        let mlp = Mlp::new(&mut store, "m", &[3, 5, 1], Activation::Tanh, 0.0, &mut rng);
        let x = Init::Gaussian { std: 1.0 }.sample(4, 3, &mut rng);
        let t = Matrix::column(&[1.0, 0.0, 0.0, 1.0]);
        assert_gradients_close(&mut store, EPS, TOL, move |tape| {
            let xv = tape.input(x.clone());
            let z = mlp.forward_inference(tape, xv);
            tape.bce_with_logits(z, t.as_slice())
        });
    }
}
