//! First-order optimizers over a [`ParamStore`].
//!
//! The paper trains ST-TransRec with Adam; plain SGD is provided for tests
//! and baselines. Both apply a [`Gradients`] buffer produced by
//! [`crate::Tape::backward`], skipping parameters that received no
//! gradient in the step and — on the row-sparse gradient path — touching
//! only the rows the step actually reached.
//!
//! ## Sparse-update semantics
//!
//! - **SGD** on a row-sparse slot is **bit-identical** to SGD on the
//!   equivalent dense gradient when `weight_decay == 0` (untouched rows
//!   see an exact `+(-lr)·0.0` no-op on the dense path). With
//!   `weight_decay > 0`, decay applies only to touched rows, whereas the
//!   dense path decays every row of a touched parameter.
//! - **Lazy Adam** keeps a per-row last-update step and, when a row is
//!   touched after `k` skipped steps, first decays its moments by
//!   `beta^(k-1)` — exactly what `k-1` dense zero-gradient updates would
//!   have left in the moment buffers. Rows touched on every step are
//!   therefore **bit-identical** to dense Adam. Rows with skipped steps
//!   match the moments exactly but skip the dense path's momentum-tail
//!   parameter updates and AdamW decay on those steps; training-level
//!   equivalence for that drift is covered by a convergence-parity test.
//! - **Dense (non-lazy) Adam** is kept verbatim as the differential
//!   oracle: row-sparse slots are materialized dense and walked element
//!   by element, moment buffers and all.

use crate::{GradSlot, Gradients, Matrix, ParamId, ParamStore, SparseRows};

/// An optimizer that applies accumulated gradients to parameters.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules / grid searches).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Adds L2 weight decay (applied only to parameters/rows that
    /// received gradient, keeping embedding updates sparse).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0);
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        let (lr, wd) = (self.lr, self.weight_decay);
        let neg_lr = -lr;
        for (id, slot) in grads.iter_slots() {
            let p = store.get_mut(id);
            match slot {
                GradSlot::Dense(g) => {
                    if wd > 0.0 {
                        for (w, &gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                            *w -= lr * (gv + wd * *w);
                        }
                    } else {
                        p.axpy(neg_lr, g);
                    }
                }
                GradSlot::Sparse(s) => {
                    for (row, packed) in s.iter() {
                        let pr = p.row_mut(row);
                        if wd > 0.0 {
                            for (w, &gv) in pr.iter_mut().zip(packed) {
                                *w -= lr * (gv + wd * *w);
                            }
                        } else {
                            // Mirrors axpy's `y += a*x` form so touched
                            // rows are bit-identical to the dense path.
                            for (w, &gv) in pr.iter_mut().zip(packed) {
                                *w += neg_lr * gv;
                            }
                        }
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// Supports two update modes for row-sparse gradients (see the module
/// docs): the default **lazy** mode with per-row moment catch-up, and a
/// **dense** oracle mode that reproduces the pre-sparse behaviour exactly.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// First/second moment estimates, allocated lazily per parameter.
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
    /// Per-parameter step counts (bias correction must track how many
    /// updates each parameter actually received, because embedding rows
    /// update sparsely).
    t: Vec<u64>,
    /// Per-parameter, per-row step of the last update (lazy mode only):
    /// the gap to the current step tells how many decay factors the
    /// row's moments are behind.
    last: Vec<Vec<u64>>,
    /// Lazy per-row updates (true) vs dense-oracle updates (false).
    lazy: bool,
}

impl Adam {
    /// Creates Adam with the paper-standard betas (0.9, 0.999) and eps 1e-8,
    /// in lazy mode.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            t: Vec::new(),
            last: Vec::new(),
            lazy: true,
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Adds decoupled (AdamW-style) weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0);
        self.weight_decay = wd;
        self
    }

    /// Selects lazy per-row updates (default) or the dense oracle that
    /// materializes sparse gradients and walks every weight.
    pub fn with_lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    fn ensure_state(&mut self, id: ParamId, shape: (usize, usize)) {
        let idx = id.index();
        if self.m.len() <= idx {
            self.m.resize(idx + 1, None);
            self.v.resize(idx + 1, None);
            self.t.resize(idx + 1, 0);
            self.last.resize(idx + 1, Vec::new());
        }
        if self.m[idx].is_none() {
            self.m[idx] = Some(Matrix::zeros(shape.0, shape.1));
            self.v[idx] = Some(Matrix::zeros(shape.0, shape.1));
            self.last[idx] = vec![0; shape.0];
        }
    }

    /// This step's constants for parameter `idx` (whose step count has
    /// already been advanced).
    fn step_of(&self, idx: usize) -> AdamStep {
        let t = self.t[idx];
        AdamStep {
            lr: self.lr,
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            wd: self.weight_decay,
            t,
            bc1: 1.0 - self.beta1.powf(t as f32),
            bc2: 1.0 - self.beta2.powf(t as f32),
        }
    }

    /// The dense element walk shared by dense slots and the oracle path.
    fn dense_update(&mut self, store: &mut ParamStore, id: ParamId, g: &Matrix) {
        let idx = id.index();
        let step = self.step_of(idx);
        let m = self.m[idx].as_mut().expect("state allocated");
        let v = self.v[idx].as_mut().expect("state allocated");
        let p = store.get_mut(id).as_mut_slice();
        step.update(p, g.as_slice(), m.as_mut_slice(), v.as_mut_slice());
    }

    /// Catches every row's moments up to step `t - 1` (lazy mode, ahead
    /// of a full-matrix update).
    fn catch_up_all_rows(&mut self, idx: usize, cols: usize) {
        let step = self.step_of(idx);
        let m = self.m[idx].as_mut().expect("state allocated");
        let v = self.v[idx].as_mut().expect("state allocated");
        for (row, last) in self.last[idx].iter_mut().enumerate() {
            let span = row * cols..(row + 1) * cols;
            step.catch_up(
                &mut m.as_mut_slice()[span.clone()],
                &mut v.as_mut_slice()[span],
                last,
            );
        }
    }

    /// Lazy per-row apply of a sparse slot: catch-up decay, then the
    /// standard Adam step, on the touched rows only.
    fn sparse_update(&mut self, store: &mut ParamStore, id: ParamId, sr: &SparseRows) {
        let idx = id.index();
        let step = self.step_of(idx);
        let (_, cols) = store.get(id).shape();
        let p = store.get_mut(id).as_mut_slice();
        let m = self.m[idx].as_mut().expect("state allocated");
        let v = self.v[idx].as_mut().expect("state allocated");
        for (row, packed) in sr.iter() {
            let span = row * cols..(row + 1) * cols;
            let (mm, vm) = (
                &mut m.as_mut_slice()[span.clone()],
                &mut v.as_mut_slice()[span.clone()],
            );
            step.catch_up(mm, vm, &mut self.last[idx][row]);
            step.update(&mut p[span], packed, mm, vm);
        }
    }
}

/// One Adam step's constants: hyperparameters, the parameter's step
/// count `t`, and the bias corrections `1 - beta^t`.
#[derive(Clone, Copy)]
struct AdamStep {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    wd: f32,
    t: u64,
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Brings one row's moments, last updated at step `last`, up to step
    /// `t - 1`: `k-1` skipped zero-gradient updates collapse to one
    /// `beta^(k-1)` decay per moment.
    fn catch_up(&self, m: &mut [f32], v: &mut [f32], last: &mut u64) {
        let behind = self.t - 1 - (*last).min(self.t - 1);
        if behind > 0 {
            let (dm, dv) = (self.b1.powf(behind as f32), self.b2.powf(behind as f32));
            m.iter_mut().for_each(|x| *x *= dm);
            v.iter_mut().for_each(|x| *x *= dv);
        }
        *last = self.t;
    }

    /// The standard update of parameters `p` under gradient `g`.
    fn update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let s = self;
        for ((w, &gv), (mi, vi)) in p.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
            *mi = s.b1 * *mi + (1.0 - s.b1) * gv;
            *vi = s.b2 * *vi + (1.0 - s.b2) * gv * gv;
            let m_hat = *mi / s.bc1;
            let v_hat = *vi / s.bc2;
            *w -= s.lr * (m_hat / (v_hat.sqrt() + s.eps) + s.wd * *w);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        for (id, slot) in grads.iter_slots() {
            let shape = store.get(id).shape();
            self.ensure_state(id, shape);
            let idx = id.index();
            self.t[idx] += 1;
            match slot {
                GradSlot::Dense(g) => {
                    assert_eq!(
                        g.shape(),
                        shape,
                        "gradient shape mismatch for {}",
                        store.name(id)
                    );
                    if self.lazy {
                        self.catch_up_all_rows(idx, shape.1);
                    }
                    self.dense_update(store, id, g);
                }
                GradSlot::Sparse(sr) => {
                    debug_assert_eq!(sr.shape(), shape);
                    if self.lazy {
                        self.sparse_update(store, id, sr);
                    } else {
                        // Dense oracle: the exact pre-sparse walk, moment
                        // decay on untouched rows included.
                        let g = sr.to_dense();
                        self.dense_update(store, id, &g);
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gradients, Init, Tape};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Minimizes (p - 5)^2 and checks convergence.
    fn converge(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = store.register("p", 1, 1, Init::Constant(0.0), &mut rng);
        for _ in 0..steps {
            let mut tape = Tape::new(&store);
            let v = tape.param(p);
            let tgt = tape.input(Matrix::scalar(5.0));
            let d = tape.sub(v, tgt);
            let sq = tape.mul_elem(d, d);
            let loss = tape.sum_all(sq);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        store.get(p).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let p = converge(&mut opt, 200);
        assert!((p - 5.0).abs() < 1e-3, "got {p}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let p = converge(&mut opt, 400);
        assert!((p - 5.0).abs() < 1e-2, "got {p}");
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = store.register("p", 1, 1, Init::Constant(1.0), &mut rng);
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        let mut grads = Gradients::zeros_like(&store);
        grads.accumulate(p, &Matrix::scalar(0.0));
        opt.step(&mut store, &grads);
        // w <- w - lr*(0 + wd*w) = 1 - 0.05 = 0.95
        assert!((store.get(p).item() - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_skips_untouched_params() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let a = store.register("a", 1, 1, Init::Constant(1.0), &mut rng);
        let b = store.register("b", 1, 1, Init::Constant(1.0), &mut rng);
        let mut opt = Adam::new(0.1);
        let mut grads = Gradients::zeros_like(&store);
        grads.accumulate(a, &Matrix::scalar(1.0));
        opt.step(&mut store, &grads);
        assert!(store.get(a).item() < 1.0, "touched param moved");
        assert_eq!(store.get(b).item(), 1.0, "untouched param unchanged");
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, |first update| ~= lr regardless of grad scale.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = store.register("p", 1, 1, Init::Constant(0.0), &mut rng);
        let mut opt = Adam::new(0.01);
        let mut grads = Gradients::zeros_like(&store);
        grads.accumulate(p, &Matrix::scalar(1234.0));
        opt.step(&mut store, &grads);
        assert!((store.get(p).item().abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = Adam::new(0.5);
        assert_eq!(o.learning_rate(), 0.5);
        o.set_learning_rate(0.1);
        assert_eq!(o.learning_rate(), 0.1);
    }

    /// A table + a dense-updated param, with a deterministic row-touch
    /// pattern; returns the final table after `steps` optimizer steps.
    fn run_adam_steps(opt: &mut Adam, sparse_buffer: bool, steps: usize, all_rows: bool) -> Matrix {
        const ROWS: usize = 12;
        const COLS: usize = 4;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let table = store.register("table", ROWS, COLS, Init::Uniform { limit: 0.5 }, &mut rng);
        let dense_p = store.register("w", 2, 3, Init::Uniform { limit: 0.5 }, &mut rng);
        let mut grng = SmallRng::seed_from_u64(7);
        for step in 0..steps {
            let mut g = if sparse_buffer {
                Gradients::zeros_like(&store)
            } else {
                Gradients::dense_like(&store)
            };
            for r in 0..ROWS {
                if all_rows || (step + r) % 3 == 0 {
                    let delta: Vec<f32> = (0..COLS).map(|_| grng.gen_range(-1.0..1.0)).collect();
                    g.accumulate_row(table, ROWS, COLS, r, &delta);
                }
            }
            let mut dw = Matrix::zeros(2, 3);
            for x in dw.as_mut_slice() {
                *x = grng.gen_range(-1.0..1.0);
            }
            g.accumulate(dense_p, &dw);
            opt.step(&mut store, &g);
        }
        store.get(table).clone()
    }

    #[test]
    fn lazy_adam_matches_dense_adam_when_all_rows_touched() {
        // Every row updated every step => catch-up never fires and the
        // two modes must agree bit for bit.
        let mut lazy = Adam::new(0.05).with_weight_decay(0.01);
        let mut dense = Adam::new(0.05).with_weight_decay(0.01).with_lazy(false);
        let a = run_adam_steps(&mut lazy, true, 6, true);
        let b = run_adam_steps(&mut dense, false, 6, true);
        assert!(a.approx_eq(&b, 0.0), "lazy != dense on all-touched rows");
    }

    #[test]
    fn lazy_adam_tracks_dense_adam_on_intermittent_rows() {
        // Rows skipped on some steps: moments match exactly, parameters
        // drift only by the dense path's momentum-tail updates.
        let mut lazy = Adam::new(0.01);
        let mut dense = Adam::new(0.01).with_lazy(false);
        let a = run_adam_steps(&mut lazy, true, 8, false);
        let b = run_adam_steps(&mut dense, false, 8, false);
        assert!(
            a.approx_eq(&b, 0.05),
            "lazy drifted too far from dense oracle"
        );
    }

    #[test]
    fn sparse_sgd_is_bit_identical_to_dense_sgd() {
        const ROWS: usize = 20;
        const COLS: usize = 5;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s1 = ParamStore::new();
        let p1 = s1.register("t", ROWS, COLS, Init::Uniform { limit: 0.5 }, &mut rng);
        let mut s2 = s1.clone();
        let p2 = p1;
        let mut o1 = Sgd::new(0.1);
        let mut o2 = Sgd::new(0.1);
        let mut grng = SmallRng::seed_from_u64(13);
        for _ in 0..4 {
            let mut gs = Gradients::zeros_like(&s1);
            let mut gd = Gradients::dense_like(&s2);
            for _ in 0..6 {
                let r = grng.gen_range(0..ROWS);
                let delta: Vec<f32> = (0..COLS).map(|_| grng.gen_range(-1.0..1.0)).collect();
                gs.accumulate_row(p1, ROWS, COLS, r, &delta);
                gd.accumulate_row(p2, ROWS, COLS, r, &delta);
            }
            o1.step(&mut s1, &gs);
            o2.step(&mut s2, &gd);
        }
        assert!(
            s1.get(p1).approx_eq(s2.get(p2), 0.0),
            "sparse SGD diverged from dense SGD"
        );
    }
}
