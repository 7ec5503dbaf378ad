//! The tape-free inference executor.
//!
//! [`InferCtx`] evaluates a forward tower through the shared op layer
//! ([`crate::ops`]) with none of the training machinery: no tape nodes,
//! no backward closures, no RNG, and — once its scratch buffers have
//! grown to the workload's steady-state shapes — no allocations per
//! call. It evaluates two ways:
//!
//! - **Op by op** over whatever batch was loaded
//!   ([`InferCtx::set_input`] / [`InferCtx::gather_concat2`], then
//!   [`InferCtx::linear`], [`InferCtx::activation`], ...): the
//!   activation ping-pongs between a *current* and a *next* buffer.
//!   This is the reference evaluation the differential tests hold
//!   everything else to.
//! - **One left row against many right rows** through a [`PairTower`]
//!   ([`InferCtx::score_run`]): what ranking asks for — one user, a
//!   city's candidates — computed as that shape instead of as
//!   unrelated pairs. The left row's share of the first layer is
//!   computed once, and the right rows go through the whole tower in
//!   cache-resident tiles of [`TILE_ROWS`].
//!
//! Bit-identity between the two, and with the tape path, is a hard
//! guarantee, not a tolerance: all run the same arithmetic in the same
//! order over the same kernels (the summation-order invariant in
//! [`crate::kernels`]). The differential test suites assert exactly
//! that, which is what lets serving swap executors without responses
//! changing by a single byte.

use crate::kernels::{self, PackedB, TILE_ROWS};
use crate::nn::Activation;
use crate::storage::RowSource;
use crate::{ops, Matrix};

/// An MLP over the concatenation `[left | right]` of two rows, ending
/// in one sigmoid output (Eq. 11–12's interaction tower), held the way
/// [`InferCtx::score_run`] consumes it: every weight packed into kernel
/// panels once, the first layer's split at the pair boundary.
#[derive(Debug, Clone)]
pub struct PairTower {
    /// The first weight's top `left_cols` rows.
    left: PackedB,
    /// `(weight, bias, activation stored with it)`, first layer to
    /// last; the first weight is its bottom rows only, the last
    /// activation is the output sigmoid.
    layers: Vec<(PackedB, Vec<f32>, Activation)>,
    /// Widest hidden activation: the width of the tile scratch.
    hidden: usize,
}

impl PairTower {
    /// Packs `(weight, bias)` pairs, first layer to last, for inputs
    /// whose first `left_cols` columns come from the left row.
    /// `activation` follows every layer but the last.
    ///
    /// # Panics
    /// Panics if there is no layer, a weight does not take the previous
    /// layer's width (more than `left_cols` for the first), a bias is not
    /// `1 x` its weight's width, or the last width is not 1.
    pub fn new<'a>(
        left_cols: usize,
        layers: impl IntoIterator<Item = (&'a Matrix, &'a Matrix)>,
        activation: Activation,
    ) -> Self {
        let mut packed: Vec<(PackedB, Vec<f32>, Activation)> = Vec::new();
        let mut left = None;
        for (w, b) in layers {
            assert_eq!(b.shape(), (1, w.cols()), "tower bias shape mismatch");
            let (k, n) = w.shape();
            let weight = match packed.last() {
                None => {
                    assert!(
                        k > left_cols,
                        "first tower layer must read past the left row"
                    );
                    let (top, bottom) = w.as_slice().split_at(left_cols * n);
                    left = Some(PackedB::pack(top, left_cols, n));
                    PackedB::pack(bottom, k - left_cols, n)
                }
                Some((prev, ..)) => {
                    assert_eq!(k, prev.n(), "tower layer input width mismatch");
                    PackedB::pack(w.as_slice(), k, n)
                }
            };
            packed.push((weight, b.as_slice().to_vec(), activation));
        }
        let last = packed.last_mut().expect("tower needs at least one layer");
        assert_eq!(last.0.n(), 1, "tower must end in a single logit");
        last.2 = Activation::Sigmoid;
        let hidden = packed[..packed.len() - 1]
            .iter()
            .map(|(w, ..)| w.n())
            .max()
            .unwrap_or(0);
        Self {
            left: left.expect("tower needs at least one layer"),
            layers: packed,
            hidden,
        }
    }
}

/// [`InferCtx::score_run`]'s buffers: the left row and its first-layer
/// prefix, one tile of gathered right rows, two tiles of activations.
#[derive(Debug, Default)]
struct TileScratch {
    left: Vec<f32>,
    prefix: Vec<f32>,
    input: Vec<f32>,
    cur: Vec<f32>,
    nxt: Vec<f32>,
}

/// Reusable scratch state for tape-free forward evaluation.
///
/// Create one per thread (or per long-lived consumer, e.g. the serve
/// batcher) and reuse it across calls; the scratch buffers are resized
/// in place and only reallocate while still growing toward the
/// workload's largest shapes. [`InferCtx::grow_events`] counts those
/// reallocations, so "zero steady-state allocations" is a measurable
/// property, not a claim.
#[derive(Debug, Default)]
pub struct InferCtx {
    /// The current activation.
    cur: Matrix,
    /// Scratch for the next layer's output.
    nxt: Matrix,
    /// [`InferCtx::score_run`]'s tile buffers.
    tile: TileScratch,
    /// Buffer-capacity growths since construction.
    grows: usize,
}

impl InferCtx {
    /// A fresh context with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times a scratch buffer had to grow its allocation. In
    /// steady state (same shapes call after call) this stops increasing.
    pub fn grow_events(&self) -> usize {
        self.grows
    }

    /// Reshapes `m`'s storage to a zero-filled `r x c`, reallocating only
    /// if the capacity is insufficient (counted in `grows`).
    fn reshape_zeroed(m: Matrix, r: usize, c: usize, grows: &mut usize) -> Matrix {
        let mut v = m.into_vec();
        if v.capacity() < r * c {
            *grows += 1;
        }
        v.clear();
        v.resize(r * c, 0.0);
        Matrix::from_vec(r, c, v)
    }

    /// Loads an explicit input batch (copied into scratch).
    pub fn set_input(&mut self, x: &Matrix) {
        let (r, c) = x.shape();
        self.cur = Self::reshape_zeroed(std::mem::take(&mut self.cur), r, c, &mut self.grows);
        self.cur.as_mut_slice().copy_from_slice(x.as_slice());
    }

    /// Loads the fused embedding gather + pair concat
    /// `[a[ai[i]] | b[bi[i]]]` as the current activation — the
    /// interaction tower's input, built without intermediate gather
    /// matrices. The tables may be plain matrices or quantized/mapped
    /// [`crate::TableStorage`]; quantized rows dequantize straight into
    /// the scratch buffer.
    ///
    /// # Panics
    /// Panics if the index slices differ in length or any index is out
    /// of range.
    pub fn gather_concat2<A: RowSource + ?Sized, B: RowSource + ?Sized>(
        &mut self,
        a: &A,
        ai: &[usize],
        b: &B,
        bi: &[usize],
    ) {
        let (r, c) = (ai.len(), a.cols() + b.cols());
        self.cur = Self::reshape_zeroed(std::mem::take(&mut self.cur), r, c, &mut self.grows);
        ops::gather_concat2_assign(a, ai, b, bi, &mut self.cur);
    }

    /// The affine map `x W + b`: multiplies the current activation by `w`
    /// into the next buffer, adds the bias row, and swaps the buffers.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn linear(&mut self, w: &Matrix, b: &Matrix) {
        let (r, c) = (self.cur.rows(), w.cols());
        self.nxt = Self::reshape_zeroed(std::mem::take(&mut self.nxt), r, c, &mut self.grows);
        ops::matmul(&self.cur, w, &mut self.nxt);
        ops::add_row_broadcast_assign(&mut self.nxt, b);
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    /// Applies `act` to the current activation in place.
    pub fn activation(&mut self, act: Activation) {
        ops::activation_assign(act, &mut self.cur);
    }

    /// Applies the stable logistic sigmoid in place (the Eq. 12 output
    /// layer).
    pub fn sigmoid(&mut self) {
        ops::sigmoid_assign(&mut self.cur);
    }

    /// Appends to `out` the tower's output for `left[left_row]` paired
    /// with each of `right[right_rows]`, in order — the values the
    /// op-by-op evaluation of the concatenated pairs produces, without
    /// building the pairs: the left row's part of the first layer is
    /// computed once and seeds every tile's accumulators, and each tile
    /// of [`TILE_ROWS`] right rows is gathered and taken through all
    /// layers while it is cache-resident. The tables may be plain
    /// matrices or quantized/mapped [`crate::TableStorage`].
    ///
    /// # Panics
    /// Panics if a table's width disagrees with `tower` or a row index
    /// is out of range.
    pub fn score_run<A: RowSource + ?Sized, B: RowSource + ?Sized>(
        &mut self,
        tower: &PairTower,
        left: &A,
        left_row: usize,
        right: &B,
        mut right_rows: impl Iterator<Item = usize>,
        out: &mut Vec<f32>,
    ) {
        let first = &tower.layers[0].0;
        let (left_cols, right_cols, width) = (tower.left.k(), first.k(), first.n());
        assert_eq!(left.cols(), left_cols, "left table width mismatch");
        assert_eq!(right.cols(), right_cols, "right table width mismatch");
        let TileScratch {
            left: left_buf,
            prefix,
            input,
            cur,
            nxt,
        } = &mut self.tile;
        // Full-tile sizes whatever this run's length, so the buffers
        // settle on the first call.
        for (buf, len) in [
            (&mut *left_buf, left_cols),
            (&mut *prefix, width),
            (&mut *input, TILE_ROWS * right_cols),
            (&mut *cur, TILE_ROWS * tower.hidden),
            (&mut *nxt, TILE_ROWS * tower.hidden),
        ] {
            if buf.len() < len {
                self.grows += usize::from(buf.capacity() < len);
                buf.resize(len, 0.0);
            }
        }

        let left_buf = &mut left_buf[..left_cols];
        left.copy_row_into(left_row, left_buf);
        let prefix = &mut prefix[..width];
        kernels::matmul_packed(left_buf, &tower.left, None, prefix, 1, |c, acc, _, _| {
            c.copy_from_slice(acc)
        });

        let last = tower.layers.len() - 1;
        loop {
            let mut m = 0;
            for (dst, row) in input[..TILE_ROWS * right_cols]
                .chunks_exact_mut(right_cols)
                .zip(right_rows.by_ref())
            {
                right.copy_row_into(row, dst);
                m += 1;
            }
            if m == 0 {
                return;
            }
            for (i, (w, bias, act)) in tower.layers.iter().enumerate() {
                let (x, init) = match i {
                    0 => (&input[..m * right_cols], Some(&*prefix)),
                    _ => (&cur[..m * w.k()], None),
                };
                if i == last {
                    let at = out.len();
                    out.resize(at + m, 0.0);
                    ops::linear_packed(x, w, init, bias, *act, &mut out[at..], m);
                } else {
                    ops::linear_packed(x, w, init, bias, *act, &mut nxt[..m * w.n()], m);
                    std::mem::swap(cur, nxt);
                }
            }
        }
    }

    /// The current activation (the evaluation's output after the last
    /// op).
    pub fn value(&self) -> &Matrix {
        &self.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ping_pong_matches_matrix_math() {
        let x = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        let w = Matrix::from_vec(3, 2, vec![0.5, 1.0, -1.0, 0.25, 2.0, -0.5]);
        let b = Matrix::from_vec(1, 2, vec![0.1, -0.2]);
        let mut ctx = InferCtx::new();
        ctx.set_input(&x);
        ctx.linear(&w, &b);
        let mut expected = x.matmul(&w);
        crate::ops::add_row_broadcast_assign(&mut expected, &b);
        assert_eq!(ctx.value(), &expected);
    }

    #[test]
    fn scratch_reaches_zero_allocation_steady_state() {
        let x = Matrix::from_vec(4, 3, vec![0.25; 12]);
        let w = Matrix::from_vec(3, 3, vec![0.5; 9]);
        let b = Matrix::zeros(1, 3);
        let mut ctx = InferCtx::new();
        for _ in 0..3 {
            ctx.set_input(&x);
            ctx.linear(&w, &b);
            ctx.activation(Activation::Relu);
        }
        let settled = ctx.grow_events();
        for _ in 0..10 {
            ctx.set_input(&x);
            ctx.linear(&w, &b);
            ctx.activation(Activation::Relu);
        }
        assert_eq!(ctx.grow_events(), settled, "scratch kept reallocating");
    }

    #[test]
    fn empty_batch_is_harmless() {
        let table = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let b = Matrix::zeros(1, 1);
        let mut ctx = InferCtx::new();
        ctx.gather_concat2(&table, &[], &table, &[]);
        ctx.linear(&w, &b);
        ctx.sigmoid();
        assert_eq!(ctx.value().shape(), (0, 1));
    }
}
