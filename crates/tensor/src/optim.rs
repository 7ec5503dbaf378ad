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
//!   equivalent dense gradient (untouched rows see an exact `+(-lr)·0.0`
//!   no-op on the dense path).
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

use crate::params::{GradSlot, SparseRows};
use crate::{Gradients, Matrix, ParamId, ParamStore};

/// An optimizer that applies accumulated gradients to parameters.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules / grid searches).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        let neg_lr = -self.lr;
        for (id, slot) in grads.iter_slots() {
            let p = store.get_mut(id);
            match slot {
                GradSlot::Dense(g) => p.axpy(neg_lr, g),
                GradSlot::Sparse(s) => {
                    for (row, packed) in s.iter() {
                        // Mirrors axpy's `y += a*x` form so touched rows
                        // are bit-identical to the dense path.
                        for (w, &gv) in p.row_mut(row).iter_mut().zip(packed) {
                            *w += neg_lr * gv;
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
    /// `(beta1^k, beta2^k)` by gap `k` below [`DECAY_MEMO`], filled as
    /// lazy updates meet the gaps: `powf` runs once per distinct gap, not
    /// twice per row. The powers depend on `k` alone, so they are kept
    /// from step to step.
    decays: Vec<Option<(f32, f32)>>,
}

/// Gaps whose decay factors [`Adam`] keeps; a row further behind has its
/// factors computed each time it is caught up.
const DECAY_MEMO: usize = 4096;

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
            decays: Vec::new(),
        }
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

    /// Lazy per-row apply of a sparse slot, on the touched rows only:
    /// each row's moments are caught up and the row updated in one pass
    /// — the bits of [`AdamStep::catch_up`] then [`AdamStep::update`].
    fn sparse_update(&mut self, store: &mut ParamStore, id: ParamId, sr: &SparseRows) {
        let idx = id.index();
        let step = self.step_of(idx);
        let (_, cols) = store.get(id).shape();
        let p = store.get_mut(id).as_mut_slice();
        let m = self.m[idx]
            .as_mut()
            .expect("state allocated")
            .as_mut_slice();
        let v = self.v[idx]
            .as_mut()
            .expect("state allocated")
            .as_mut_slice();
        let last = &mut self.last[idx];
        if self.decays.is_empty() {
            self.decays.resize(DECAY_MEMO, None);
        }
        for (row, packed) in sr.iter() {
            let span = row * cols..(row + 1) * cols;
            let behind = step.behind(last[row]);
            last[row] = step.t;
            let decay = match behind {
                0 => None,
                k => Some(match self.decays.get_mut(k as usize) {
                    Some(memo) => *memo.get_or_insert_with(|| step.decay(k)),
                    None => step.decay(k),
                }),
            };
            let (p, m, v) = (&mut p[span.clone()], &mut m[span.clone()], &mut v[span]);
            match decay {
                None => step.update(p, packed, m, v),
                Some((dm, dv)) => step.update_decayed(p, packed, m, v, dm, dv),
            }
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
    /// How many decays a row last updated at step `last` is behind step
    /// `t - 1`: `k-1` skipped zero-gradient updates collapse to one
    /// `beta^(k-1)` decay per moment.
    fn behind(&self, last: u64) -> u64 {
        self.t - 1 - last.min(self.t - 1)
    }

    /// `(beta1^k, beta2^k)`.
    fn decay(&self, k: u64) -> (f32, f32) {
        (self.b1.powf(k as f32), self.b2.powf(k as f32))
    }

    /// Brings one row's moments, last updated at step `last`, up to step
    /// `t - 1` (see [`AdamStep::behind`]).
    fn catch_up(&self, m: &mut [f32], v: &mut [f32], last: &mut u64) {
        let behind = self.behind(*last);
        if behind > 0 {
            let (dm, dv) = self.decay(behind);
            m.iter_mut().for_each(|x| *x *= dm);
            v.iter_mut().for_each(|x| *x *= dv);
        }
        *last = self.t;
    }

    /// The standard update of parameters `p` under gradient `g`.
    fn update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        for ((w, &gv), (mi, vi)) in p.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
            (*mi, *vi) = self.moments(*mi, *vi, gv);
            *w = self.apply(*w, *mi, *vi);
        }
    }

    /// [`AdamStep::update`] on moments that are first decayed by `dm` and
    /// `dv` ([`AdamStep::catch_up`]), in the same pass.
    fn update_decayed(
        &self,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        dm: f32,
        dv: f32,
    ) {
        for ((w, &gv), (mi, vi)) in p.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
            (*mi, *vi) = self.moments(*mi * dm, *vi * dv, gv);
            *w = self.apply(*w, *mi, *vi);
        }
    }

    /// The moments `(m, v)` after gradient `g`.
    #[inline(always)]
    fn moments(&self, m: f32, v: f32, g: f32) -> (f32, f32) {
        (
            self.b1 * m + (1.0 - self.b1) * g,
            self.b2 * v + (1.0 - self.b2) * g * g,
        )
    }

    /// Weight `w` after the step with moments `m` and `v`.
    #[inline(always)]
    fn apply(&self, w: f32, m: f32, v: f32) -> f32 {
        let m_hat = m / self.bc1;
        let v_hat = v / self.bc2;
        w - self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.wd * w)
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
            let tgt = tape.input(Matrix::full(1, 1, 5.0));
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
    fn adam_skips_untouched_params() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let a = store.register("a", 1, 1, Init::Constant(1.0), &mut rng);
        let b = store.register("b", 1, 1, Init::Constant(1.0), &mut rng);
        let mut opt = Adam::new(0.1);
        let mut grads = Gradients::zeros_like(&store);
        grads.accumulate(a, &Matrix::full(1, 1, 1.0));
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
        grads.accumulate(p, &Matrix::full(1, 1, 1234.0));
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

    impl Adam {
        /// [`Optimizer::step`] with the sparse slots walked twice per
        /// row, as before the walks were fused: every moment caught up in
        /// a pass of its own, then the standard update.
        fn step_two_pass(&mut self, store: &mut ParamStore, grads: &Gradients) {
            for (id, slot) in grads.iter_slots() {
                let GradSlot::Sparse(sr) = slot else {
                    unreachable!("the script touches rows only")
                };
                let (_, cols) = store.get(id).shape();
                self.ensure_state(id, store.get(id).shape());
                let idx = id.index();
                self.t[idx] += 1;
                let step = self.step_of(idx);
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
    }

    /// The one-pass lazy Adam walk against the two-pass walk it replaced,
    /// by `to_bits` of every parameter and moment: three tables, a random
    /// touch script whose rows skip steps (gaps of 1 to dozens of steps,
    /// and one row left for longer than the decay memo reaches), with
    /// weight decay.
    #[test]
    fn one_pass_lazy_adam_matches_the_two_pass_walk_bitwise() {
        let mut rng = SmallRng::seed_from_u64(31);
        let mut store = ParamStore::new();
        let shapes = [(40, 8), (25, 5), (7, 3)];
        let tables =
            shapes.map(|(r, c)| store.register("t", r, c, Init::Uniform { limit: 0.5 }, &mut rng));
        let (mut fused, mut oracle) = (store.clone(), store);
        let mut one = Adam::new(0.01).with_weight_decay(0.01);
        let mut two = one.clone();
        let steps = DECAY_MEMO + 60;
        for step in 0..steps {
            let mut g = Gradients::zeros_like(&fused);
            for (&id, &(rows, cols)) in tables.iter().zip(&shapes) {
                for r in 0..rows {
                    // The last row of the smallest table is touched only
                    // at the first and the last step.
                    let far = cols == 3 && r == rows - 1;
                    let touched = match far {
                        true => step == 0 || step == steps - 1,
                        false => step < 400 && rng.gen_bool(0.15),
                    };
                    if touched {
                        let delta: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        g.accumulate_row(id, rows, cols, r, &delta);
                    }
                }
            }
            one.step(&mut fused, &g);
            two.step_two_pass(&mut oracle, &g);
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for id in tables {
            let i = id.index();
            assert_eq!(bits(fused.get(id)), bits(oracle.get(id)), "table {i}");
            for (a, b) in [(&one.m[i], &two.m[i]), (&one.v[i], &two.v[i])] {
                assert_eq!(
                    bits(a.as_ref().unwrap()),
                    bits(b.as_ref().unwrap()),
                    "moments {i}"
                );
            }
        }
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
