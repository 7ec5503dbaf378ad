//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records a computation as a flat list of nodes; every op
//! method both computes the forward value eagerly and remembers what it
//! needs for the backward pass. Calling [`Tape::backward`] walks the nodes
//! in reverse, accumulating parameter gradients into a
//! [`Gradients`] buffer keyed by [`ParamId`].
//!
//! A tape owns the memory it computes with: every node value, mask,
//! target, adjoint and delta is drawn from its [`MatrixPool`] and goes
//! back to it (see [`crate::pool`] for the rule); dense parameter reads
//! ([`Tape::param`]) borrow the store's matrix instead of copying it.
//!
//! Tapes borrow a [`ParamStore`] immutably, so building a step is:
//!
//! ```
//! use st_tensor::{Init, Matrix, ParamStore, Gradients, Tape};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.register("w", 2, 1, Init::Constant(0.5), &mut rng);
//!
//! let mut tape = Tape::new(&store);
//! let x = tape.input(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
//! let wv = tape.param(w);
//! let y = tape.matmul(x, wv);
//! let loss = tape.mean_all(y);
//!
//! let mut grads = Gradients::zeros_like(&store);
//! tape.backward(loss, &mut grads);
//! assert!(grads.get(w).is_some());
//! ```

use crate::ops::{self, stable_sigmoid};
use crate::pool::MatrixPool;
use crate::{Gradients, Matrix, ParamId, ParamStore};
use rand::Rng;
use std::cell::RefCell;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Constant input; no gradient flows out.
    Input,
    /// Dense read of a whole parameter.
    Param(ParamId),
    /// Sparse read of selected parameter rows (embedding lookup).
    GatherParam {
        pid: ParamId,
        indices: Vec<usize>,
    },
    /// Rowwise dot products of selected rows of two parameters: the
    /// gathers and the product in one node, nothing copied.
    GatherRowDot {
        a: ParamId,
        a_rows: Vec<usize>,
        b: ParamId,
        b_rows: Vec<usize>,
    },
    /// Read of selected rows of another node.
    GatherRows {
        a: Var,
        indices: Vec<usize>,
    },
    MatMul {
        a: Var,
        b: Var,
    },
    Transpose {
        a: Var,
    },
    Add {
        a: Var,
        b: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    MulElem {
        a: Var,
        b: Var,
    },
    Scale {
        a: Var,
        c: f32,
    },
    AddScalar {
        a: Var,
    },
    AddRowBroadcast {
        a: Var,
        row: Var,
    },
    AddColBroadcast {
        a: Var,
        col: Var,
    },
    Relu {
        a: Var,
    },
    Sigmoid {
        a: Var,
    },
    Tanh {
        a: Var,
    },
    Exp {
        a: Var,
    },
    Ln {
        a: Var,
    },
    ConcatCols {
        a: Var,
        b: Var,
    },
    ConcatRows {
        a: Var,
        b: Var,
    },
    SumAll {
        a: Var,
    },
    MeanAll {
        a: Var,
    },
    SumCols {
        a: Var,
    },
    SumRows {
        a: Var,
    },
    RowDot {
        a: Var,
        b: Var,
    },
    Dropout {
        a: Var,
        mask: Matrix,
    },
    /// Fused Gaussian kernel `K_ij = exp(-||x_i - y_j||^2 / (2 sigma^2))`
    /// with an analytic backward pass (the node value saves `K` itself).
    GaussianKernel {
        x: Var,
        y: Var,
        sigma: f32,
    },
    /// Mean binary cross-entropy over logits, computed numerically stably.
    BceWithLogits {
        logits: Var,
        targets: Matrix,
    },
}

/// A node's forward value: a pooled (or caller-built) matrix the tape
/// owns, or a parameter it reads in place.
enum Value<'s> {
    Owned(Matrix),
    Param(&'s Matrix),
}

struct Node<'s> {
    value: Value<'s>,
    op: Op,
}

/// A single forward computation, differentiable in reverse.
pub struct Tape<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node<'s>>,
    /// Where every matrix this tape computes comes from and goes back
    /// to; in a `RefCell` because [`Tape::backward`] runs on `&self`.
    pool: RefCell<MatrixPool>,
}

impl<'s> Tape<'s> {
    /// Starts a fresh tape over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Self::with_pool(store, MatrixPool::new())
    }

    /// Starts a tape that draws every buffer it needs from `pool`.
    ///
    /// Recover the pool with [`Tape::into_pool`] and hand it to the next
    /// step's tape: from the second step of a fixed-shape training loop
    /// on, the tape allocates no matrix storage at all.
    pub fn with_pool(store: &'s ParamStore, pool: MatrixPool) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(64),
            pool: RefCell::new(pool),
        }
    }

    /// Consumes the tape, releasing every matrix it owns into the pool
    /// and returning it.
    pub fn into_pool(self) -> MatrixPool {
        let mut pool = self.pool.into_inner();
        for node in self.nodes {
            if let Value::Owned(value) = node.value {
                pool.release(value);
            }
            match node.op {
                Op::Dropout { mask, .. } => pool.release(mask),
                Op::BceWithLogits { targets, .. } => pool.release(targets),
                _ => {}
            }
        }
        pool
    }

    /// A zero-filled pooled matrix.
    fn alloc(&self, rows: usize, cols: usize) -> Matrix {
        self.pool.borrow_mut().acquire_zeroed(rows, cols)
    }

    /// A pooled copy of `src`.
    fn alloc_copy(&self, src: &Matrix) -> Matrix {
        self.pool.borrow_mut().acquire_copy(src)
    }

    /// A pooled `rows x cols` matrix that `fill` writes in one pass (it
    /// must push exactly `rows * cols` elements).
    fn alloc_with(&self, rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Matrix {
        self.pool.borrow_mut().acquire_with(rows, cols, fill)
    }

    /// A pooled `f(src)`, elementwise.
    fn alloc_map(&self, src: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        self.alloc_with(src.rows(), src.cols(), |buf| src.map_into(f, buf))
    }

    /// A pooled `f(a, b)`, elementwise over same-shaped operands.
    fn alloc_zip(&self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.alloc_with(a.rows(), a.cols(), |buf| a.zip_into(b, f, buf))
    }

    /// A pooled `1 x 1` matrix.
    fn alloc_scalar(&self, value: f32) -> Matrix {
        self.alloc_with(1, 1, |buf| buf.push(value))
    }

    /// Pooled per-row sums of `m` (`rows x 1`).
    fn alloc_sum_cols(&self, m: &Matrix) -> Matrix {
        self.alloc_with(m.rows(), 1, |buf| m.sum_cols_into(buf))
    }

    /// Pooled per-column sums of `m` (`1 x cols`).
    fn alloc_sum_rows(&self, m: &Matrix) -> Matrix {
        let mut out = self.alloc(1, m.cols());
        m.sum_rows_into(&mut out);
        out
    }

    /// Pooled transpose of `m`.
    fn alloc_transpose(&self, m: &Matrix) -> Matrix {
        let mut out = self.alloc(m.cols(), m.rows());
        m.transpose_into(&mut out);
        out
    }

    /// Pooled `m` with each row `r` multiplied by the scalar `col[r]`
    /// (`RowDot`'s backward pass).
    fn alloc_mul_col_broadcast(&self, m: &Matrix, col: &Matrix) -> Matrix {
        debug_assert_eq!(col.shape(), (m.rows(), 1));
        self.alloc_with(m.rows(), m.cols(), |buf| {
            for (r, &c) in col.as_slice().iter().enumerate() {
                buf.extend(m.row(r).iter().map(|&x| x * c));
            }
        })
    }

    /// `out += a^T * b`, exactly as [`Matrix::matmul_transpose_a_into`]
    /// computes it (tiled transpose, then the packed matmul), with the
    /// transposed copy of `a` taken from the pool instead of allocated
    /// inside the kernel.
    fn matmul_transpose_a_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let at = self.alloc_transpose(a);
        at.matmul_into(b, out);
        self.release(at);
    }

    fn release(&self, m: Matrix) {
        self.pool.borrow_mut().release(m);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        match &self.nodes[v.0].value {
            Value::Owned(m) => m,
            Value::Param(m) => m,
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.push_node(Value::Owned(value), op)
    }

    fn push_node(&mut self, value: Value<'s>, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    // ---- sources -------------------------------------------------------

    /// Records a constant input (no gradient). The tape takes the
    /// matrix over and releases its buffer into the pool with the rest.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a dense read of parameter `pid`. The node borrows the
    /// store's matrix for the tape's lifetime; nothing is copied.
    pub fn param(&mut self, pid: ParamId) -> Var {
        let store: &'s ParamStore = self.store;
        self.push_node(Value::Param(store.get(pid)), Op::Param(pid))
    }

    /// Records an embedding lookup: rows `indices` of parameter `pid`.
    ///
    /// The backward pass scatters gradient only into the touched rows,
    /// which keeps large embedding tables cheap to train.
    pub fn gather_param(&mut self, pid: ParamId, indices: &[usize]) -> Var {
        let table = self.store.get(pid);
        let value = self.alloc_with(indices.len(), table.cols(), |buf| {
            table.gather_rows_into(indices, buf)
        });
        self.push(
            value,
            Op::GatherParam {
                pid,
                indices: indices.to_vec(),
            },
        )
    }

    /// Records `out[r] = a[a_rows[r]] . b[b_rows[r]]` (`n x 1`) over two
    /// embedding tables — what [`Tape::gather_param`] twice and
    /// [`Tape::row_dot`] compute, to the bit in value and in both
    /// gradients, without the two `n x cols` gathered copies or the two
    /// of the backward pass: the dot products read the tables in place,
    /// and the backward pass adds `g[r] * row` straight into the
    /// row-sparse gradient, in the same `r` order, `b` first.
    ///
    /// # Panics
    /// Panics if the index lists or the tables' widths differ, or an
    /// index is out of bounds.
    pub fn gather_row_dot(
        &mut self,
        a: ParamId,
        a_rows: &[usize],
        b: ParamId,
        b_rows: &[usize],
    ) -> Var {
        let (at, bt) = (self.store.get(a), self.store.get(b));
        assert_eq!(a_rows.len(), b_rows.len(), "gather_row_dot length mismatch");
        assert_eq!(at.cols(), bt.cols(), "gather_row_dot width mismatch");
        let value = self.alloc_with(a_rows.len(), 1, |buf| {
            buf.extend(a_rows.iter().zip(b_rows).map(|(&ar, &br)| {
                at.row(ar)
                    .iter()
                    .zip(bt.row(br))
                    .map(|(&x, &y)| x * y)
                    .sum::<f32>()
            }))
        });
        self.push(
            value,
            Op::GatherRowDot {
                a,
                a_rows: a_rows.to_vec(),
                b,
                b_rows: b_rows.to_vec(),
            },
        )
    }

    // ---- linear algebra --------------------------------------------------

    /// Matrix product (forward math shared with the inference executor
    /// through [`crate::ops::matmul`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.alloc(self.value(a).rows(), self.value(b).cols());
        ops::matmul(self.value(a), self.value(b), &mut out);
        self.push(out, Op::MatMul { a, b })
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.alloc_transpose(self.value(a));
        self.push(value, Op::Transpose { a })
    }

    /// Elementwise sum of same-shaped operands.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.alloc_zip(self.value(a), self.value(b), |a, b| a + b);
        self.push(value, Op::Add { a, b })
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.alloc_zip(self.value(a), self.value(b), |a, b| a - b);
        self.push(value, Op::Sub { a, b })
    }

    /// Elementwise product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.alloc_zip(self.value(a), self.value(b), |a, b| a * b);
        self.push(value, Op::MulElem { a, b })
    }

    /// Scales all elements by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.alloc_map(self.value(a), |x| x * c);
        self.push(value, Op::Scale { a, c })
    }

    /// Adds the constant `c` to all elements.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.alloc_map(self.value(a), |x| x + c);
        self.push(value, Op::AddScalar { a })
    }

    /// Adds a `1 x m` row vector to each row of an `n x m` matrix (bias add).
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        ops::add_row_broadcast_assign(&mut value, self.value(row));
        self.push(value, Op::AddRowBroadcast { a, row })
    }

    /// Adds an `n x 1` column vector to each column of an `n x m` matrix.
    pub fn add_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        ops::add_col_broadcast_assign(&mut value, self.value(col));
        self.push(value, Op::AddColBroadcast { a, col })
    }

    // ---- nonlinearities --------------------------------------------------

    /// `max(0, x)` elementwise.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        ops::relu_assign(&mut value);
        self.push(value, Op::Relu { a })
    }

    /// Logistic sigmoid elementwise.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        ops::sigmoid_assign(&mut value);
        self.push(value, Op::Sigmoid { a })
    }

    /// Hyperbolic tangent elementwise.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        ops::tanh_assign(&mut value);
        self.push(value, Op::Tanh { a })
    }

    /// `exp(x)` elementwise.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.alloc_map(self.value(a), f32::exp);
        self.push(value, Op::Exp { a })
    }

    /// `ln(x)` elementwise. Inputs must be positive.
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.alloc_map(self.value(a), f32::ln);
        self.push(value, Op::Ln { a })
    }

    // ---- structure -------------------------------------------------------

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        let value = self.alloc_with(av.rows(), av.cols() + bv.cols(), |buf| {
            av.concat_cols_into(bv, buf)
        });
        self.push(value, Op::ConcatCols { a, b })
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.cols(), bv.cols(), "concat_rows col mismatch");
        let value = self.alloc_with(av.rows() + bv.rows(), av.cols(), |buf| {
            buf.extend_from_slice(av.as_slice());
            buf.extend_from_slice(bv.as_slice());
        });
        self.push(value, Op::ConcatRows { a, b })
    }

    /// Records a row gather: rows `indices` of node `a`, in that order
    /// (repeats allowed). The backward pass adds each output row's
    /// gradient back onto the row it was read from.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let av = self.value(a);
        let value = self.alloc_with(indices.len(), av.cols(), |buf| {
            av.gather_rows_into(indices, buf)
        });
        self.push(
            value,
            Op::GatherRows {
                a,
                indices: indices.to_vec(),
            },
        )
    }

    // ---- reductions ------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = self.alloc_scalar(self.value(a).sum());
        self.push(value, Op::SumAll { a })
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = self.alloc_scalar(self.value(a).mean());
        self.push(value, Op::MeanAll { a })
    }

    /// Per-row sums (`n x 1`).
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let value = self.alloc_sum_cols(self.value(a));
        self.push(value, Op::SumCols { a })
    }

    /// Per-column sums (`1 x m`).
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let value = self.alloc_sum_rows(self.value(a));
        self.push(value, Op::SumRows { a })
    }

    /// Rowwise dot products of two same-shaped matrices (`n x 1`).
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        let value = self.alloc_with(av.rows(), 1, |buf| av.row_dot_into(bv, buf));
        self.push(value, Op::RowDot { a, b })
    }

    // ---- regularization / losses ------------------------------------------

    /// Inverted dropout with keep-probability `1 - p`.
    ///
    /// At `p == 0.0` this is the identity (no node is recorded). Kept units
    /// are scaled by `1/(1-p)` so inference needs no rescaling. Exactly
    /// one `rng.gen::<f32>()` per element, in row-major order — callers
    /// that must leave a stream where a masked forward pass would
    /// (ST-TransRec's step prologue) count on it.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        if p == 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let (r, c) = self.value(a).shape();
        // Mask and product are written together, one pass over `a`.
        let (mut mask, mut value) = {
            let mut pool = self.pool.borrow_mut();
            (pool.acquire_buffer(r * c), pool.acquire_buffer(r * c))
        };
        for &x in self.value(a).as_slice() {
            let m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
            mask.push(m);
            value.push(x * m);
        }
        let mask = Matrix::from_vec(r, c, mask);
        self.push(Matrix::from_vec(r, c, value), Op::Dropout { a, mask })
    }

    /// Mean binary cross-entropy between `logits` and `targets` (one
    /// target per logit, in row-major order), computed via the
    /// numerically stable form `max(z,0) - z*t + ln(1 + e^{-|z|})`.
    /// Returns a `1 x 1` loss. The tape keeps its own copy of `targets`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let z = self.value(logits);
        assert_eq!(z.len(), targets.len(), "bce_with_logits shape mismatch");
        assert!(!targets.is_empty(), "bce_with_logits on empty batch");
        let mut total = 0.0f64;
        for (&z, &t) in z.as_slice().iter().zip(targets) {
            total += (z.max(0.0) - z * t + (-z.abs()).exp().ln_1p()) as f64;
        }
        let value = self.alloc_scalar((total / targets.len() as f64) as f32);
        let targets = self.alloc_with(z.rows(), z.cols(), |buf| buf.extend_from_slice(targets));
        self.push(value, Op::BceWithLogits { logits, targets })
    }

    // ---- composites -------------------------------------------------------

    /// Affine map `x W + b` where `b` is a `1 x out` bias row.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, b)
    }

    /// Gaussian kernel matrix `K_ij = exp(-||x_i - y_j||^2 / (2 sigma^2))`
    /// between the rows of `x` (`n x d`) and `y` (`m x d`).
    ///
    /// Fused: the forward pass is one [`Matrix::pairwise_sq_dist`] (row
    /// norms computed once, cross terms through the packed `x * y^T`
    /// product) plus an in-place `exp`; the backward pass is analytic,
    /// so none of the composite formulation's intermediate `n x m`
    /// matrices are materialized or differentiated through.
    pub fn gaussian_kernel(&mut self, x: Var, y: Var, sigma: f32) -> Var {
        assert!(sigma > 0.0, "kernel bandwidth must be positive");
        let (xv, yv) = (self.value(x), self.value(y));
        let x_norms = self.alloc_with(xv.rows(), 1, |buf| xv.row_sq_norms_into(buf));
        let y_norms = self.alloc_with(yv.rows(), 1, |buf| yv.row_sq_norms_into(buf));
        let mut k = self.alloc(xv.rows(), yv.rows());
        xv.pairwise_sq_dist_with_norms_into(yv, x_norms.as_slice(), y_norms.as_slice(), &mut k);
        self.release(x_norms);
        self.release(y_norms);
        let neg_inv = -1.0 / (2.0 * sigma * sigma);
        k.map_inplace(|d| (d * neg_inv).exp());
        self.push(k, Op::GaussianKernel { x, y, sigma })
    }

    /// The Gaussian kernel built from tape primitives:
    /// `||x_i - y_j||^2 = |x_i|^2 + |y_j|^2 - 2 x_i . y_j`.
    ///
    /// Gradients flow into both operands through each primitive's own
    /// backward rule, which makes this the reference the fused
    /// [`Tape::gaussian_kernel`]'s analytic backward pass is
    /// differentially tested against.
    pub fn gaussian_kernel_composite(&mut self, x: Var, y: Var, sigma: f32) -> Var {
        assert!(sigma > 0.0, "kernel bandwidth must be positive");
        let xx = self.mul_elem(x, x);
        let sx = self.sum_cols(xx); // n x 1
        let yy = self.mul_elem(y, y);
        let sy = self.sum_cols(yy); // m x 1
        let syt = self.transpose(sy); // 1 x m
        let yt = self.transpose(y);
        let xyt = self.matmul(x, yt); // n x m
        let minus2xy = self.scale(xyt, -2.0);
        let with_rows = self.add_row_broadcast(minus2xy, syt);
        let sqdist = self.add_col_broadcast(with_rows, sx);
        let scaled = self.scale(sqdist, -1.0 / (2.0 * sigma * sigma));
        self.exp(scaled)
    }

    // ---- backward ----------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss`, accumulating
    /// parameter gradients into `grads`.
    ///
    /// May be called several times on one tape with different scalar roots;
    /// each call accumulates into `grads` (so summed losses can also be
    /// differentiated term by term).
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&self, loss: Var, grads: &mut Gradients) {
        self.backward_scaled(loss, 1.0, grads);
    }

    /// As [`Tape::backward`], but seeds the root gradient with `seed`
    /// (differentiating `seed * loss`). Useful for loss-term weights.
    pub fn backward_scaled(&self, loss: Var, seed: f32, grads: &mut Gradients) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward root must be a 1x1 scalar"
        );
        let mut adj: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        adj[loss.0] = Some(self.alloc_scalar(seed));

        for i in (0..=loss.0).rev() {
            let Some(g) = adj[i].take() else { continue };
            self.accumulate_node(i, &g, &mut adj, grads);
            // The adjoint has been fully consumed; recycle its buffer for
            // the deltas of earlier nodes.
            self.release(g);
        }
    }

    fn add_adj(&self, adj: &mut [Option<Matrix>], v: Var, delta: Matrix) {
        match &mut adj[v.0] {
            Some(g) => {
                g.axpy(1.0, &delta);
                self.release(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Adds a constant-filled `r x c` delta to `v`'s adjoint (pooled).
    fn add_adj_full(&self, adj: &mut [Option<Matrix>], v: Var, r: usize, c: usize, val: f32) {
        let m = self.alloc_with(r, c, |buf| buf.resize(r * c, val));
        self.add_adj(adj, v, m);
    }

    fn accumulate_node(
        &self,
        i: usize,
        g: &Matrix,
        adj: &mut [Option<Matrix>],
        grads: &mut Gradients,
    ) {
        let node = &self.nodes[i];
        let value = self.value(Var(i));
        debug_assert_eq!(g.shape(), value.shape(), "adjoint shape mismatch");
        match &node.op {
            Op::Input => {}
            Op::Param(pid) => grads.accumulate(*pid, g),
            Op::GatherParam { pid, indices } => {
                let (rows, cols) = self.store.get(*pid).shape();
                for (out_row, &src_row) in indices.iter().enumerate() {
                    grads.accumulate_row(*pid, rows, cols, src_row, g.row(out_row));
                }
            }
            Op::GatherRowDot {
                a,
                a_rows,
                b,
                b_rows,
            } => {
                // The composition's backward pass reaches `b`'s gather
                // node before `a`'s; each gets `g[r] * (other row)`.
                let (at, bt) = (self.store.get(*a), self.store.get(*b));
                let g = g.as_slice();
                for ((&br, &ar), &gr) in b_rows.iter().zip(a_rows).zip(g) {
                    grads.accumulate_row_scaled(*b, bt.rows(), bt.cols(), br, at.row(ar), gr);
                }
                for ((&ar, &br), &gr) in a_rows.iter().zip(b_rows).zip(g) {
                    grads.accumulate_row_scaled(*a, at.rows(), at.cols(), ar, bt.row(br), gr);
                }
            }
            Op::GatherRows { a, indices } => {
                let (rows, cols) = self.value(*a).shape();
                let mut da = self.alloc(rows, cols);
                for (out_row, &src_row) in indices.iter().enumerate() {
                    for (o, &gv) in da.row_mut(src_row).iter_mut().zip(g.row(out_row)) {
                        *o += gv;
                    }
                }
                self.add_adj(adj, *a, da);
            }
            Op::MatMul { a, b } => {
                let (av, bv) = (self.value(*a), self.value(*b));
                let mut da = self.alloc(av.rows(), av.cols());
                g.matmul_transpose_b_into(bv, &mut da);
                let mut db = self.alloc(bv.rows(), bv.cols());
                self.matmul_transpose_a_into(av, g, &mut db);
                self.add_adj(adj, *a, da);
                self.add_adj(adj, *b, db);
            }
            Op::Transpose { a } => self.add_adj(adj, *a, self.alloc_transpose(g)),
            Op::Add { a, b } => {
                self.add_adj(adj, *a, self.alloc_copy(g));
                self.add_adj(adj, *b, self.alloc_copy(g));
            }
            Op::Sub { a, b } => {
                self.add_adj(adj, *a, self.alloc_copy(g));
                self.add_adj(adj, *b, self.alloc_map(g, |x| -x));
            }
            Op::MulElem { a, b } => {
                self.add_adj(adj, *a, self.alloc_zip(g, self.value(*b), |g, b| g * b));
                self.add_adj(adj, *b, self.alloc_zip(g, self.value(*a), |g, a| g * a));
            }
            Op::Scale { a, c } => self.add_adj(adj, *a, self.alloc_map(g, |x| x * *c)),
            Op::AddScalar { a } => self.add_adj(adj, *a, self.alloc_copy(g)),
            Op::AddRowBroadcast { a, row } => {
                self.add_adj(adj, *a, self.alloc_copy(g));
                self.add_adj(adj, *row, self.alloc_sum_rows(g));
            }
            Op::AddColBroadcast { a, col } => {
                self.add_adj(adj, *a, self.alloc_copy(g));
                self.add_adj(adj, *col, self.alloc_sum_cols(g));
            }
            Op::Relu { a } => {
                let da = self.alloc_zip(g, value, |g, y| if y > 0.0 { g } else { 0.0 });
                self.add_adj(adj, *a, da);
            }
            Op::Sigmoid { a } => {
                let da = self.alloc_zip(g, value, |g, y| g * y * (1.0 - y));
                self.add_adj(adj, *a, da);
            }
            Op::Tanh { a } => {
                let da = self.alloc_zip(g, value, |g, y| g * (1.0 - y * y));
                self.add_adj(adj, *a, da);
            }
            Op::Exp { a } => self.add_adj(adj, *a, self.alloc_zip(g, value, |g, y| g * y)),
            Op::Ln { a } => {
                let da = self.alloc_zip(g, self.value(*a), |g, x| g / x);
                self.add_adj(adj, *a, da);
            }
            Op::ConcatCols { a, b } => {
                let ca = self.value(*a).cols();
                let cb = self.value(*b).cols();
                let rows = g.rows();
                let da = self.alloc_with(rows, ca, |buf| {
                    (0..rows).for_each(|r| buf.extend_from_slice(&g.row(r)[..ca]))
                });
                let db = self.alloc_with(rows, cb, |buf| {
                    (0..rows).for_each(|r| buf.extend_from_slice(&g.row(r)[ca..]))
                });
                self.add_adj(adj, *a, da);
                self.add_adj(adj, *b, db);
            }
            Op::ConcatRows { a, b } => {
                let ra = self.value(*a).rows();
                let cols = g.cols();
                let (top, bottom) = g.as_slice().split_at(ra * cols);
                let da = self.alloc_with(ra, cols, |buf| buf.extend_from_slice(top));
                let db = self.alloc_with(g.rows() - ra, cols, |buf| buf.extend_from_slice(bottom));
                self.add_adj(adj, *a, da);
                self.add_adj(adj, *b, db);
            }
            Op::SumAll { a } => {
                let (r, c) = self.value(*a).shape();
                self.add_adj_full(adj, *a, r, c, g.item());
            }
            Op::MeanAll { a } => {
                let (r, c) = self.value(*a).shape();
                let scale = g.item() / (r * c) as f32;
                self.add_adj_full(adj, *a, r, c, scale);
            }
            Op::SumCols { a } => {
                let (r, c) = self.value(*a).shape();
                let da = self.alloc_with(r, c, |buf| {
                    for &gr in g.as_slice() {
                        buf.resize(buf.len() + c, gr);
                    }
                });
                self.add_adj(adj, *a, da);
            }
            Op::SumRows { a } => {
                let (r, c) = self.value(*a).shape();
                let da = self.alloc_with(r, c, |buf| {
                    (0..r).for_each(|_| buf.extend_from_slice(g.as_slice()))
                });
                self.add_adj(adj, *a, da);
            }
            Op::RowDot { a, b } => {
                let da = self.alloc_mul_col_broadcast(self.value(*b), g);
                let db = self.alloc_mul_col_broadcast(self.value(*a), g);
                self.add_adj(adj, *a, da);
                self.add_adj(adj, *b, db);
            }
            Op::Dropout { a, mask } => self.add_adj(adj, *a, self.alloc_zip(g, mask, |g, m| g * m)),
            Op::GaussianKernel { x, y, sigma } => {
                // K_ij = exp(-||x_i - y_j||^2 / (2 s^2)); with W = g . K
                // (elementwise),
                //   dL/dx = (W y - diag(W 1) x) / s^2
                //   dL/dy = (W^T x - diag(W^T 1) y) / s^2.
                // When x and y are the same node, add_adj sums the two
                // partials, which is exactly the repeated-argument rule.
                let inv = 1.0 / (sigma * sigma);
                let (xv, yv) = (self.value(*x), self.value(*y));
                let w = self.alloc_zip(g, value, |g, k| g * k); // n x m

                let mut dx = self.alloc(xv.rows(), xv.cols());
                w.matmul_into(yv, &mut dx);
                let w_row_sums = self.alloc_sum_cols(&w); // n x 1
                for r in 0..dx.rows() {
                    let s = w_row_sums.as_slice()[r];
                    for (o, &xe) in dx.row_mut(r).iter_mut().zip(xv.row(r)) {
                        *o = inv * (*o - s * xe);
                    }
                }

                let mut dy = self.alloc(yv.rows(), yv.cols());
                self.matmul_transpose_a_into(&w, xv, &mut dy);
                let w_col_sums = self.alloc_sum_rows(&w); // 1 x m
                for r in 0..dy.rows() {
                    let s = w_col_sums.as_slice()[r];
                    for (o, &ye) in dy.row_mut(r).iter_mut().zip(yv.row(r)) {
                        *o = inv * (*o - s * ye);
                    }
                }

                self.add_adj(adj, *x, dx);
                self.add_adj(adj, *y, dy);
                self.release(w_row_sums);
                self.release(w_col_sums);
                self.release(w);
            }
            Op::BceWithLogits { logits, targets } => {
                let n = targets.len() as f32;
                let seed = g.item();
                let da = self.alloc_zip(self.value(*logits), targets, |z, t| {
                    seed * (stable_sigmoid(z) - t) / n
                });
                self.add_adj(adj, *logits, da);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn stable_sigmoid_extremes() {
        assert_eq!(stable_sigmoid(0.0), 0.5);
        assert!((stable_sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(stable_sigmoid(-100.0) < 1e-6);
        assert!(stable_sigmoid(-1000.0).is_finite());
        assert!(stable_sigmoid(1000.0).is_finite());
    }

    #[test]
    fn forward_values_match_matrix_ops() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let a = t.input(Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]));
        let r = t.relu(a);
        assert_eq!(t.value(r).as_slice(), &[1.0, 0.0, 3.0, 0.0]);
        let s = t.sum_all(r);
        assert_eq!(t.value(s).item(), 4.0);
    }

    #[test]
    fn backward_through_matmul_linear() {
        // loss = mean(x W + b); grads have closed form.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.register("w", 2, 3, Init::Gaussian { std: 0.3 }, &mut rng);
        let b = store.register("b", 1, 3, Init::Zeros, &mut rng);
        let x = Matrix::from_vec(4, 2, (0..8).map(|i| i as f32 * 0.25 - 1.0).collect());

        let mut tape = Tape::new(&store);
        let xv = tape.input(x.clone());
        let wv = tape.param(w);
        let bv = tape.param(b);
        let y = tape.linear(xv, wv, bv);
        let loss = tape.mean_all(y);

        let mut grads = Gradients::zeros_like(&store);
        tape.backward(loss, &mut grads);

        // d loss / d b_j = 4 rows * (1/12) = 1/3 each.
        let gb = grads.get(b).unwrap();
        assert!(gb.approx_eq(&Matrix::full(1, 3, 4.0 / 12.0), 1e-6));
        // d loss / d W = x^T * (1/12) ones(4,3)
        let expected = x.matmul_transpose_a(&Matrix::full(4, 3, 1.0 / 12.0));
        assert!(grads.get(w).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn gather_param_scatters_sparse_gradients() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let table = store.register("emb", 5, 2, Init::Gaussian { std: 1.0 }, &mut rng);

        let mut tape = Tape::new(&store);
        let e = tape.gather_param(table, &[3, 1, 3]);
        let loss = tape.sum_all(e);
        let mut grads = Gradients::zeros_like(&store);
        tape.backward(loss, &mut grads);

        let g = grads.to_dense(table).unwrap();
        assert_eq!(g.row(0), &[0.0, 0.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
        assert_eq!(g.row(3), &[2.0, 2.0], "row 3 gathered twice");
        assert_eq!(g.row(4), &[0.0, 0.0]);
    }

    /// The in-place text-term op against the three ops it replaces:
    /// value and both tables' gradients equal by `to_bits`, with rows
    /// repeated within and across the two index lists, for sparse and
    /// dense buffers, and with one table on both sides.
    #[test]
    fn gather_row_dot_matches_gather_gather_row_dot_bitwise() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let pois = store.register("pois", 7, 5, Init::Gaussian { std: 0.7 }, &mut rng);
        let words = store.register("words", 4, 5, Init::Gaussian { std: 0.7 }, &mut rng);
        let a_rows = [6usize, 2, 2, 0, 6, 6, 3, 2];
        let b_rows = [1usize, 3, 1, 1, 0, 3, 3, 1];
        let targets = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0];

        for (a, b) in [(pois, words), (words, words)] {
            let a_rows = a_rows.map(|r| r % store.get(a).rows());
            for dense in [false, true] {
                let run = |fused: bool| -> (Vec<u32>, Vec<Vec<u32>>) {
                    let mut tape = Tape::new(&store);
                    let logits = if fused {
                        tape.gather_row_dot(a, &a_rows, b, &b_rows)
                    } else {
                        let av = tape.gather_param(a, &a_rows);
                        let bv = tape.gather_param(b, &b_rows);
                        tape.row_dot(av, bv)
                    };
                    let loss = tape.bce_with_logits(logits, &targets);
                    let mut grads = match dense {
                        true => Gradients::dense_like(&store),
                        false => Gradients::zeros_like(&store),
                    };
                    tape.backward_scaled(loss, 0.7, &mut grads);
                    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
                    let mut out = vec![bits(tape.value(loss))];
                    for id in [a, b] {
                        out.push(bits(&grads.to_dense(id).unwrap()));
                    }
                    (bits(tape.value(logits)), out)
                };
                assert_eq!(run(true), run(false), "same table {}", a == b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gather_row_dot length mismatch")]
    fn gather_row_dot_rejects_unequal_index_lists() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let t = store.register("t", 3, 2, Init::Zeros, &mut rng);
        Tape::new(&store).gather_row_dot(t, &[0, 1], t, &[0]);
    }

    #[test]
    fn gather_rows_reads_and_scatters_back() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let p = store.register("p", 4, 2, Init::Gaussian { std: 1.0 }, &mut rng);

        let mut tape = Tape::new(&store);
        let v = tape.param(p);
        let doubled = tape.scale(v, 2.0); // gather from a computed node
        let picked = tape.gather_rows(doubled, &[3, 0, 3]);
        assert_eq!(tape.value(picked).row(0), tape.value(doubled).row(3));
        assert_eq!(tape.value(picked).row(1), tape.value(doubled).row(0));
        let loss = tape.sum_all(picked);
        let mut grads = Gradients::zeros_like(&store);
        tape.backward(loss, &mut grads);

        let g = grads.get(p).unwrap();
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0], "row 1 was never read");
        assert_eq!(g.row(3), &[4.0, 4.0], "row 3 read twice");
    }

    #[test]
    fn bce_with_logits_matches_naive_formula() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let z = Matrix::column(&[0.5, -1.5, 2.0]);
        let t = Matrix::column(&[1.0, 0.0, 1.0]);
        let zv = tape.input(z.clone());
        let loss = tape.bce_with_logits(zv, t.as_slice());

        let naive: f32 = z
            .as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(&z, &t)| {
                let p = stable_sigmoid(z);
                -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
            })
            .sum::<f32>()
            / 3.0;
        assert!((tape.value(loss).item() - naive).abs() < 1e-5);
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let mut rng = SmallRng::seed_from_u64(0);
        let a = tape.input(Matrix::full(2, 2, 1.0));
        let d = tape.dropout(a, 0.0, &mut rng);
        assert_eq!(a, d);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let mut rng = SmallRng::seed_from_u64(11);
        let a = tape.input(Matrix::full(100, 100, 1.0));
        let d = tape.dropout(a, 0.3, &mut rng);
        let mean = tape.value(d).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    fn gaussian_kernel_diagonal_is_one_for_identical_rows() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]);
        let a = tape.input(x.clone());
        let b = tape.input(x);
        let k = tape.gaussian_kernel(a, b, 1.0);
        let kv = tape.value(k);
        assert!((kv.get(0, 0) - 1.0).abs() < 1e-5);
        assert!((kv.get(1, 1) - 1.0).abs() < 1e-5);
        assert!(kv.get(0, 1) < 1.0);
        // Symmetry for identical inputs.
        assert!((kv.get(0, 1) - kv.get(1, 0)).abs() < 1e-6);
    }

    #[test]
    fn fused_gaussian_kernel_matches_composite_forward_and_backward() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let x = store.register("x", 7, 4, Init::Gaussian { std: 1.0 }, &mut rng);
        let y = store.register("y", 5, 4, Init::Gaussian { std: 1.0 }, &mut rng);

        let run = |fused: bool| -> (Matrix, Gradients) {
            let mut tape = Tape::new(&store);
            let xv = tape.param(x);
            let yv = tape.param(y);
            let k = if fused {
                tape.gaussian_kernel(xv, yv, 0.8)
            } else {
                tape.gaussian_kernel_composite(xv, yv, 0.8)
            };
            let loss = tape.mean_all(k);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            (tape.value(k).clone(), grads)
        };
        let (k_fused, g_fused) = run(true);
        let (k_ref, g_ref) = run(false);
        assert!(k_fused.approx_eq(&k_ref, 1e-5), "fused K diverges");
        assert!(
            g_fused
                .get(x)
                .unwrap()
                .approx_eq(g_ref.get(x).unwrap(), 1e-5),
            "fused dK/dx diverges"
        );
        assert!(
            g_fused
                .get(y)
                .unwrap()
                .approx_eq(g_ref.get(y).unwrap(), 1e-5),
            "fused dK/dy diverges"
        );
    }

    #[test]
    fn fused_gaussian_kernel_handles_repeated_argument() {
        // k(x, x) feeds both partials into the same adjoint slot.
        let mut rng = SmallRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let x = store.register("x", 6, 3, Init::Gaussian { std: 1.0 }, &mut rng);

        let run = |fused: bool| -> Matrix {
            let mut tape = Tape::new(&store);
            let xv = tape.param(x);
            let k = if fused {
                tape.gaussian_kernel(xv, xv, 1.3)
            } else {
                tape.gaussian_kernel_composite(xv, xv, 1.3)
            };
            let loss = tape.mean_all(k);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            grads.get(x).unwrap().clone()
        };
        assert!(run(true).approx_eq(&run(false), 1e-5));
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.register("w", 16, 16, Init::Gaussian { std: 0.1 }, &mut rng);
        let b = store.register("b", 1, 16, Init::Zeros, &mut rng);
        let table = store.register("emb", 32, 16, Init::Gaussian { std: 0.1 }, &mut rng);

        let mut pool = crate::MatrixPool::new();
        let mut after_first = None;
        for step in 1..=3 {
            let mut tape = Tape::with_pool(&store, pool);
            // A caller-built input, a gather, a borrowed parameter pair,
            // dropout and the BCE loss: every kind of buffer a training
            // step puts on the tape.
            let x = tape.input(Matrix::full(8, 16, 1.0));
            let e = tape.gather_param(table, &[0, 5, 5, 9, 31, 2, 7, 1]);
            let xe = tape.add(x, e);
            let (wv, bv) = (tape.param(w), tape.param(b));
            let y = tape.linear(xe, wv, bv);
            let y = tape.relu(y);
            let y = tape.dropout(y, 0.5, &mut rng);
            let logits = tape.sum_cols(y);
            let loss = tape.bce_with_logits(logits, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            pool = tape.into_pool();

            let stats = pool.pool_stats();
            match after_first {
                None => {
                    assert!(stats.misses > 0 && stats.pooled > 0);
                    after_first = Some(stats);
                }
                Some(first) => {
                    assert_eq!(stats.misses, first.misses, "step {step} missed");
                    assert_eq!(stats.regrown, 0, "step {step} regrew a buffer");
                    assert_eq!(stats.pooled, first.pooled, "step {step} moved len()");
                    assert_eq!(stats.pooled_bytes, first.pooled_bytes);
                    assert!(stats.hits > first.hits);
                }
            }
        }
    }

    #[test]
    fn param_nodes_borrow_the_store() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.register("w", 64, 64, Init::Gaussian { std: 0.1 }, &mut rng);
        let mut tape = Tape::new(&store);
        let wv = tape.param(w);
        assert!(
            std::ptr::eq(tape.value(wv), store.get(w)),
            "Tape::param copied the parameter"
        );
        let pool = tape.into_pool();
        assert_eq!(pool.stats(), (0, 0), "a parameter read touched the pool");
    }

    #[test]
    fn backward_accumulates_across_multiple_roots() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let p = store.register("p", 1, 1, Init::Constant(2.0), &mut rng);

        let mut tape = Tape::new(&store);
        let v = tape.param(p);
        let sq = tape.mul_elem(v, v); // p^2, d/dp = 2p = 4
        let l1 = tape.sum_all(sq);
        let l2 = tape.sum_all(v); // d/dp = 1

        let mut grads = Gradients::zeros_like(&store);
        tape.backward(l1, &mut grads);
        tape.backward(l2, &mut grads);
        assert!((grads.get(p).unwrap().item() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn backward_scaled_weights_the_loss_term() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let p = store.register("p", 1, 1, Init::Constant(3.0), &mut rng);
        let mut tape = Tape::new(&store);
        let v = tape.param(p);
        let l = tape.sum_all(v);
        let mut grads = Gradients::zeros_like(&store);
        tape.backward_scaled(l, 0.25, &mut grads);
        assert!((grads.get(p).unwrap().item() - 0.25).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "backward root must be a 1x1 scalar")]
    fn backward_rejects_non_scalar_root() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(Matrix::zeros(2, 2));
        let mut grads = Gradients::zeros_like(&store);
        tape.backward(a, &mut grads);
    }
}
