//! The shared forward op layer.
//!
//! Every operation the interaction tower evaluates — embedding gather,
//! pair concatenation, the affine map, activations, the sigmoid output —
//! is implemented exactly once here, over plain [`Matrix`] buffers, on
//! top of the blocked kernels in [`crate::kernels`]. Two executors
//! consume this layer:
//!
//! - [`crate::Tape`] calls these functions in its forward pass and adds
//!   gradient recording on top (node list, backward closures).
//! - [`crate::InferCtx`] calls the same functions over a pair of
//!   reusable scratch buffers and adds nothing: no nodes, no closures,
//!   no RNG, no steady-state allocations.
//!
//! Because both executors run the *same* arithmetic in the *same* order
//! over the same kernels, the tape-free inference path is bit-identical
//! to the tape path — the differential test suites assert exact `f32`
//! equality, not tolerance bounds.

use crate::kernels::{self, PackedB};
use crate::nn::Activation;
use crate::storage::RowSource;
use crate::Matrix;

/// `out += a * b` through the blocked register-tile kernel. `out` must be
/// zero-filled (as pool and scratch buffers are) to compute a plain
/// product.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    a.matmul_into(b, out);
}

/// Adds the `1 x cols` bias row `row` to every row of `x`, in place.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add_row_broadcast_assign(x: &mut Matrix, row: &Matrix) {
    assert_eq!(row.rows(), 1, "broadcast operand must be 1 x cols");
    assert_eq!(row.cols(), x.cols(), "broadcast col mismatch");
    for r in 0..x.rows() {
        for (o, &b) in x.row_mut(r).iter_mut().zip(row.as_slice()) {
            *o += b;
        }
    }
}

/// Adds the `rows x 1` column `col` to every column of `x`, in place.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add_col_broadcast_assign(x: &mut Matrix, col: &Matrix) {
    assert_eq!(col.cols(), 1, "broadcast operand must be rows x 1");
    assert_eq!(col.rows(), x.rows(), "broadcast row mismatch");
    for (r, &b) in col.as_slice().iter().enumerate() {
        for o in x.row_mut(r) {
            *o += b;
        }
    }
}

/// `max(0, x)` elementwise, in place.
pub fn relu_assign(x: &mut Matrix) {
    activate(Activation::Relu, x.as_mut_slice());
}

/// Hyperbolic tangent elementwise, in place.
pub fn tanh_assign(x: &mut Matrix) {
    activate(Activation::Tanh, x.as_mut_slice());
}

/// Overflow-safe logistic sigmoid elementwise, in place.
pub fn sigmoid_assign(x: &mut Matrix) {
    activate(Activation::Sigmoid, x.as_mut_slice());
}

/// Applies `act` elementwise, in place ([`Activation::Identity`] is a
/// no-op).
pub fn activation_assign(act: Activation, x: &mut Matrix) {
    activate(act, x.as_mut_slice());
}

/// `act` over a slice, in place: the one elementwise definition under
/// the `*_assign` ops and [`linear_packed`]'s fused store.
fn activate(act: Activation, xs: &mut [f32]) {
    match act {
        Activation::Relu => xs.iter_mut().for_each(|v| *v = v.max(0.0)),
        Activation::Tanh => xs.iter_mut().for_each(|v| *v = v.tanh()),
        Activation::Sigmoid => xs.iter_mut().for_each(|v| *v = stable_sigmoid(*v)),
        Activation::Identity => {}
    }
}

/// `out = act(init + x * w + bias)` for `x: m x w.k()`, `out: m x w.n()`:
/// the affine layer with its weight pre-packed, the product optionally
/// continued from the `1 x n` row `init`, and bias and activation
/// applied as each register tile is stored rather than in two more
/// passes over `out`. For `init = None` the values are those of
/// [`matmul`] into zeros, [`add_row_broadcast_assign`], then
/// [`activation_assign`] — bit for bit (see the summation-order
/// invariant in [`crate::kernels`]).
///
/// # Panics
/// Panics on shape mismatch.
pub fn linear_packed(
    x: &[f32],
    w: &PackedB,
    init: Option<&[f32]>,
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
    m: usize,
) {
    assert_eq!(bias.len(), w.n(), "linear_packed bias width mismatch");
    kernels::matmul_packed(x, w, init, out, m, |c, acc, _, j| {
        for ((o, &a), &b) in c.iter_mut().zip(acc).zip(&bias[j..]) {
            *o = a + b;
        }
        activate(act, c);
    });
}

/// Fills `out` (shape `ai.len() x (a.cols() + b.cols())`) with the
/// rowwise concatenation `[a[ai[i]] | b[bi[i]]]` — the embedding
/// gather + pair concat of the interaction tower, fused into one pass so
/// no intermediate gather matrices exist on the inference path.
///
/// Generic over [`RowSource`], so the tables may be plain matrices or
/// quantized/memory-mapped [`crate::TableStorage`]: dequantization
/// happens inside the gather, row by row, straight into `out`. For
/// `Matrix` sources the body reduces to the same `copy_from_slice` as
/// before — bit-identical to the historical implementation.
///
/// # Panics
/// Panics if the index slices differ in length, any index is out of
/// range, or `out` has the wrong shape.
pub fn gather_concat2_assign<A: RowSource + ?Sized, B: RowSource + ?Sized>(
    a: &A,
    ai: &[usize],
    b: &B,
    bi: &[usize],
    out: &mut Matrix,
) {
    assert_eq!(ai.len(), bi.len(), "index slices must be parallel");
    assert_eq!(
        out.shape(),
        (ai.len(), a.cols() + b.cols()),
        "gather_concat2 output shape mismatch"
    );
    let split = a.cols();
    for (r, (&ia, &ib)) in ai.iter().zip(bi).enumerate() {
        assert!(ia < a.rows(), "gather index {ia} out of {} rows", a.rows());
        assert!(ib < b.rows(), "gather index {ib} out of {} rows", b.rows());
        let row = out.row_mut(r);
        a.copy_row_into(ia, &mut row[..split]);
        b.copy_row_into(ib, &mut row[split..]);
    }
}

/// For each row of `points`, pushes onto `out` the index of the nearest
/// row of `centroids` under squared Euclidean distance (ties broken
/// toward the lower index). `out` is cleared first.
///
/// Via the expansion `||x||^2 + ||c||^2 - 2 x.c`: the per-point norm is
/// constant across centroids and dropped, so the comparison key is
/// `||c||^2 - 2 x.c`. The O(n·k·d) dot products run through the packed
/// register-tile kernel: `centroids^T` is packed once per call, the
/// points are decoded [`kernels::TILE_ROWS`] at a time into one reused
/// buffer, and the key is formed as each tile is stored. The packed
/// side is padded to whole [`kernels::NR`] panels whose keys are `+inf`
/// (never below any running minimum), so no narrow remainder tile runs.
/// By the summation-order invariant of [`crate::kernels`] the result is
/// exactly `argmin_j (sum_k c_jk^2 - 2 * sum_k x_k c_jk)` with every sum
/// taken left to right in `f32` and the first minimum kept.
///
/// This is the assignment step of the IVF coarse quantizer. Generic
/// over [`RowSource`], so quantized or memory-mapped points give the
/// same answer as the matrix decoded from them.
///
/// # Panics
/// Panics if the row widths differ or `centroids` is empty.
pub fn nearest_centroids<P: RowSource + ?Sized>(
    points: &P,
    centroids: &Matrix,
    out: &mut Vec<u32>,
) {
    assert_eq!(
        points.cols(),
        centroids.cols(),
        "nearest_centroids width mismatch: {} vs {}",
        points.cols(),
        centroids.cols()
    );
    assert!(
        centroids.rows() > 0,
        "nearest_centroids needs >= 1 centroid"
    );
    let (n, k, dim) = (points.rows(), centroids.rows(), points.cols());
    out.clear();
    out.reserve(n);
    let width = k.next_multiple_of(kernels::NR);
    let packed = PackedB::pack_rows(centroids.as_slice(), k, dim, width);
    let mut csq = Vec::with_capacity(width);
    kernels::row_sq_norms_into(centroids.as_slice(), k, dim, &mut csq);
    csq.resize(width, f32::INFINITY);
    let mut block = vec![0.0f32; kernels::TILE_ROWS.min(n) * dim];
    let mut keys = vec![0.0f32; kernels::TILE_ROWS.min(n) * width];
    for start in (0..n).step_by(kernels::TILE_ROWS) {
        let bs = kernels::TILE_ROWS.min(n - start);
        for r in 0..bs {
            points.copy_row_into(start + r, &mut block[r * dim..(r + 1) * dim]);
        }
        let (tile, keys) = (&block[..bs * dim], &mut keys[..bs * width]);
        kernels::matmul_packed(tile, &packed, None, keys, bs, |c, acc, _, j| {
            for ((o, &dot), &sq) in c.iter_mut().zip(acc).zip(&csq[j..]) {
                *o = sq - 2.0 * dot;
            }
        });
        for row in keys.chunks_exact(width) {
            out.push(first_min(row));
        }
    }
}

/// Index of the first minimum of `row` (a whole number of
/// [`kernels::NR`]-wide chunks) under `<`; keys that compare below
/// nothing (`+inf`, NaN) are never chosen, and 0 is returned when there
/// is no other kind. Each lane keeps its own running minimum and the
/// chunk it came from, which is elementwise and vectorises; the lanes
/// are reduced at the end.
fn first_min(row: &[f32]) -> u32 {
    const NR: usize = kernels::NR;
    let mut lane_key = [f32::INFINITY; NR];
    let mut lane_chunk = [0u32; NR];
    for (c, chunk) in row.chunks_exact(NR).enumerate() {
        let chunk: &[f32; NR] = chunk.try_into().expect("NR chunk");
        for l in 0..NR {
            if chunk[l] < lane_key[l] {
                lane_key[l] = chunk[l];
                lane_chunk[l] = c as u32;
            }
        }
    }
    let (mut best, mut best_key) = (0, f32::INFINITY);
    for l in 0..NR {
        let j = lane_chunk[l] * NR as u32 + l as u32;
        if lane_key[l] < best_key || (lane_key[l] == best_key && j < best) {
            (best, best_key) = (j, lane_key[l]);
        }
    }
    best
}

/// Overflow-safe logistic sigmoid.
pub fn stable_sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_row_broadcast_assign_matches_out_of_place() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::row_vec(&[0.5, -1.0, 2.0]);
        let mut y = x.clone();
        add_row_broadcast_assign(&mut y, &b);
        assert_eq!(y, x.add_row_broadcast(&b));
    }

    #[test]
    fn activations_match_map_forms() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.0, 3.0]);
        let mut r = x.clone();
        relu_assign(&mut r);
        assert_eq!(r, x.map(|v| v.max(0.0)));
        let mut t = x.clone();
        tanh_assign(&mut t);
        assert_eq!(t, x.map(f32::tanh));
        let mut s = x.clone();
        sigmoid_assign(&mut s);
        assert_eq!(s, x.map(stable_sigmoid));
        let mut i = x.clone();
        activation_assign(Activation::Identity, &mut i);
        assert_eq!(i, x);
    }

    #[test]
    fn gather_concat2_interleaves_rows() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 1, vec![10.0, 20.0]);
        let mut out = Matrix::zeros(2, 3);
        gather_concat2_assign(&a, &[2, 0], &b, &[0, 1], &mut out);
        assert_eq!(
            out,
            Matrix::from_vec(2, 3, vec![5.0, 6.0, 10.0, 1.0, 2.0, 20.0])
        );
    }

    #[test]
    #[should_panic(expected = "gather index")]
    fn gather_concat2_rejects_out_of_range() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(1, 4);
        gather_concat2_assign(&a, &[5], &b, &[0], &mut out);
    }

    #[test]
    fn nearest_centroids_picks_obvious_clusters() {
        let centroids = Matrix::from_vec(3, 2, vec![0.0, 0.0, 10.0, 0.0, 0.0, 10.0]);
        let points = Matrix::from_vec(4, 2, vec![0.1, -0.2, 9.5, 0.3, 0.2, 11.0, 10.0, 0.0]);
        let mut out = vec![99];
        nearest_centroids(&points, &centroids, &mut out);
        assert_eq!(out, vec![0, 1, 2, 1]);
    }

    #[test]
    fn nearest_centroids_ties_break_toward_lower_index() {
        // Identical centroid rows produce bit-identical scores; the
        // strict `<` comparison must keep the first.
        let centroids = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let points = Matrix::from_vec(2, 3, vec![0.0, 0.0, 0.0, 5.0, -1.0, 2.0]);
        let mut out = Vec::new();
        nearest_centroids(&points, &centroids, &mut out);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn gather_concat2_from_storage_matches_decoded_matrix() {
        use crate::storage::{StorageEncoding, TableStorage};
        let a = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32 - 6.0) / 7.0).collect());
        let b = Matrix::from_vec(3, 2, (0..6).map(|i| (i as f32) * 0.3 - 0.8).collect());
        for enc in [
            StorageEncoding::F32,
            StorageEncoding::F16,
            StorageEncoding::I8,
        ] {
            let sa = TableStorage::encode(&a, enc);
            let sb = TableStorage::encode(&b, enc);
            // The fused quantized gather must agree bit-for-bit with
            // decode-whole-table-then-gather.
            let (da, db) = (sa.to_matrix(), sb.to_matrix());
            let ai = [3usize, 0, 2];
            let bi = [1usize, 2, 0];
            let mut fused = Matrix::zeros(3, 5);
            gather_concat2_assign(&sa, &ai, &sb, &bi, &mut fused);
            let mut decoded = Matrix::zeros(3, 5);
            gather_concat2_assign(&da, &ai, &db, &bi, &mut decoded);
            assert_eq!(fused, decoded, "{enc}");
        }
    }

    #[test]
    fn nearest_centroids_from_storage_matches_decoded_matrix() {
        use crate::storage::{StorageEncoding, TableStorage};
        let points = Matrix::from_vec(
            9,
            4,
            (0..36).map(|i| ((i * 13 % 17) as f32) / 5.0).collect(),
        );
        let centroids = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32) / 3.0).collect());
        for enc in [StorageEncoding::F16, StorageEncoding::I8] {
            let sp = TableStorage::encode(&points, enc);
            let mut via_storage = Vec::new();
            nearest_centroids(&sp, &centroids, &mut via_storage);
            let mut via_decoded = Vec::new();
            nearest_centroids(&sp.to_matrix(), &centroids, &mut via_decoded);
            assert_eq!(via_storage, via_decoded, "{enc}");
        }
    }

    #[test]
    fn nearest_centroids_matches_naive_across_block_boundary() {
        // Several `TILE_ROWS` blocks and a ragged last one; deterministic
        // LCG data, held to the naive key arg-min by equality.
        let (n, k, d) = (700, 7, 5);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let points = Matrix::from_vec(n, d, (0..n * d).map(|_| next()).collect());
        let centroids = Matrix::from_vec(k, d, (0..k * d).map(|_| next()).collect());
        let mut out = Vec::new();
        nearest_centroids(&points, &centroids, &mut out);
        assert_eq!(out.len(), n);
        let key = |p: &[f32], c: &[f32]| -> f32 {
            let (mut sq, mut dot) = (0.0f32, 0.0f32);
            for (&x, &y) in p.iter().zip(c) {
                sq += y * y;
                dot += x * y;
            }
            sq - 2.0 * dot
        };
        for (i, &chosen) in out.iter().enumerate() {
            let mut best = 0;
            for j in 1..k {
                if key(points.row(i), centroids.row(j)) < key(points.row(i), centroids.row(best)) {
                    best = j;
                }
            }
            assert_eq!(chosen as usize, best, "row {i}");
        }
    }
}
