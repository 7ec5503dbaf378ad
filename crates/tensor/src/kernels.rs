//! Cache-blocked, autovectorization-friendly matrix micro-kernels.
//!
//! Every kernel here works on raw row-major `f32` buffers and is written
//! so LLVM's autovectorizer produces SIMD code without `unsafe`:
//!
//! - **Fixed-size register tiles.** The hot loops accumulate into
//!   `[[f32; NR]; MR]` arrays that live entirely in registers, so the
//!   inner k-loop performs no loads or stores against the output.
//! - **Bounds checks hoisted.** Slices are converted to fixed-size array
//!   references (`try_into`) once per row, after which all indexing is
//!   statically in range and check-free.
//! - **Contiguous streaming.** All inner loops walk unit-stride memory.
//!
//! Tile sizes are chosen for the x86-64 baseline (SSE2, 16 XMM
//! registers): a 4x8 `f32` accumulator block is 8 vector registers,
//! leaving room for operand broadcasts. On wider ISAs (AVX2/AVX-512 via
//! `-C target-cpu=native`) the same code compiles to fewer, wider ops.
//!
//! The repo keeps the original straightforward loops as `*_naive`
//! reference kernels (see [`crate::Matrix`]); differential proptests
//! assert the blocked kernels match them across ragged shapes.

/// Rows per register tile (micro-kernel height).
pub const MR: usize = 4;
/// Columns per register tile (micro-kernel width): two AVX-512 lanes,
/// four AVX2 lanes — wide enough to keep the FMA ports busy while the
/// `MR x NR` accumulator block still fits the vector register file.
pub const NR: usize = 32;
/// Block edge for the tiled transpose.
pub const TR: usize = 8;

/// `c += a * b` for row-major buffers, `a: m x k`, `b: k x n`, `c: m x n`.
///
/// GEBP-style: each `NR`-column panel of `b` is packed once into a
/// contiguous `k x NR` scratch buffer, then every `MR`-row band of `a`
/// streams through it with an `MR x NR` register-tile micro-kernel. The
/// packing makes the micro-kernel's loads unit-stride and bounds-check
/// free (`chunks_exact`), which is what lets LLVM keep the whole
/// accumulator block in vector registers.
///
/// The caller guarantees buffer lengths match the dimensions; `c` is
/// accumulated into (callers wanting a plain product pass zeros).
pub fn matmul_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);

    let mut panel = vec![0.0f32; k * NR];
    let mut j = 0;
    while j + NR <= n {
        // Pack B[:, j..j+NR] as a contiguous k x NR panel.
        for (dst, brow) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst.copy_from_slice(&brow[j..j + NR]);
        }
        let mut i = 0;
        while i + MR <= m {
            micro_kernel_4xnr(a, &panel, c, k, n, i, j);
            i += MR;
        }
        // Bottom rows of this panel, one at a time.
        for ii in i..m {
            micro_kernel_1xnr(&a[ii * k..(ii + 1) * k], &panel, &mut c[ii * n + j..]);
        }
        j += NR;
    }
    if j < n {
        // Column remainder, full height.
        matmul_edge(a, b, c, k, n, 0, m, j, n);
    }
}

/// `MR x NR` register-tile update: `c[i..i+MR][j..j+NR] += a_band * panel`.
///
/// The four accumulator rows are separate local arrays (not one 2-D
/// array) so LLVM's scalar-replacement keeps each in vector registers.
#[inline(always)]
fn micro_kernel_4xnr(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let mut acc0 = [0.0f32; NR];
    let mut acc1 = [0.0f32; NR];
    let mut acc2 = [0.0f32; NR];
    let mut acc3 = [0.0f32; NR];
    for (p, bp) in panel.chunks_exact(NR).enumerate() {
        let bp: &[f32; NR] = bp.try_into().expect("NR chunk");
        let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
        for l in 0..NR {
            acc0[l] += v0 * bp[l];
            acc1[l] += v1 * bp[l];
            acc2[l] += v2 * bp[l];
            acc3[l] += v3 * bp[l];
        }
    }
    for (r, accr) in [acc0, acc1, acc2, acc3].iter().enumerate() {
        let off = (i + r) * n + j;
        let crow: &mut [f32; NR] = (&mut c[off..off + NR]).try_into().expect("NR chunk");
        for l in 0..NR {
            crow[l] += accr[l];
        }
    }
}

/// Single-row variant of the register-tile update for band remainders.
#[inline(always)]
fn micro_kernel_1xnr(a_row: &[f32], panel: &[f32], c_row: &mut [f32]) {
    let mut acc = [0.0f32; NR];
    for (&av, bp) in a_row.iter().zip(panel.chunks_exact(NR)) {
        let bp: &[f32; NR] = bp.try_into().expect("NR chunk");
        for l in 0..NR {
            acc[l] += av * bp[l];
        }
    }
    let c_row: &mut [f32; NR] = (&mut c_row[..NR]).try_into().expect("NR chunk");
    for l in 0..NR {
        c_row[l] += acc[l];
    }
}

/// Scalar i-k-j cleanup for tile edges: rows `[i0, i1)`, cols `[j0, j1)`.
#[allow(clippy::too_many_arguments)] // raw slices + the four tile bounds
fn matmul_edge(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
) {
    for i in i0..i1 {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n + j0..i * n + j1];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n + j0..p * n + j1];
            for (o, &bv) in c_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `c += a * b^T` for row-major buffers, `a: m x k`, `b: n x k`, `c: m x n`.
///
/// Dot-product shape: each output element is a length-`k` dot of two
/// rows. The kernel pairs one `a`-row with four `b`-rows and keeps four
/// 8-wide partial-sum vectors, so each `a` vector load feeds 4 FMAs.
pub fn matmul_transpose_b_blocked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    const JB: usize = 4; // b-rows per block
    const KW: usize = 8; // k unroll width

    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + JB <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            // Four 8-wide accumulators: 4 x 8 f32 = 8 XMM registers.
            let mut acc = [[0.0f32; KW]; JB];
            let chunks = k / KW;
            for p in 0..chunks {
                let o = p * KW;
                let av: &[f32; KW] = a_row[o..o + KW].try_into().expect("KW chunk");
                for (accr, brow) in acc.iter_mut().zip([b0, b1, b2, b3]) {
                    let bv: &[f32; KW] = brow[o..o + KW].try_into().expect("KW chunk");
                    for l in 0..KW {
                        accr[l] += av[l] * bv[l];
                    }
                }
            }
            let mut dots = [0.0f32; JB];
            for (d, accr) in dots.iter_mut().zip(&acc) {
                *d = accr.iter().sum();
            }
            for p in chunks * KW..k {
                let av = a_row[p];
                dots[0] += av * b0[p];
                dots[1] += av * b1[p];
                dots[2] += av * b2[p];
                dots[3] += av * b3[p];
            }
            for (o, &d) in c_row[j..j + JB].iter_mut().zip(&dots) {
                *o += d;
            }
            j += JB;
        }
        // Remaining b-rows: plain dot products.
        for (jj, o) in c_row.iter_mut().enumerate().skip(j) {
            let b_row = &b[jj * k..(jj + 1) * k];
            let mut dot = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                dot += x * y;
            }
            *o += dot;
        }
    }
}

/// `c += a^T * b` for row-major buffers, `a: k x m`, `b: k x n`, `c: m x n`.
///
/// The transposed-A shape defeats register tiling directly (columns of
/// `a` are strided), so the kernel materializes `a^T` once with the
/// tiled transpose — O(k·m), negligible next to the O(m·k·n) product —
/// and runs the packed matmul.
pub fn matmul_transpose_a_blocked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let mut at = vec![0.0f32; k * m];
    transpose_blocked(a, &mut at, k, m);
    matmul_blocked(&at, b, c, m, k, n);
}

/// Tiled out-of-place transpose: `dst[c][r] = src[r][c]`, `src: rows x cols`.
///
/// Processes `TR x TR` blocks so both source reads and destination
/// writes stay within a few cache lines per tile instead of striding
/// the full matrix width on every element.
pub fn transpose_blocked(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    let mut rb = 0;
    while rb < rows {
        let r_end = (rb + TR).min(rows);
        let mut cb = 0;
        while cb < cols {
            let c_end = (cb + TR).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            cb += TR;
        }
        rb += TR;
    }
}

/// Appends the squared L2 norm of each length-`k` row of `a` (`m` rows)
/// to `out`.
pub fn row_sq_norms_into(a: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), m * k);
    out.extend((0..m).map(|i| {
        let row = &a[i * k..(i + 1) * k];
        row.iter().map(|x| x * x).sum::<f32>()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 7 + 3) % 13) as f32 - 6.0).collect()
    }

    #[test]
    fn blocked_matmul_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 8), (5, 3, 9), (17, 13, 11), (8, 1, 8)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c = vec![0.0f32; m * n];
            matmul_blocked(&a, &b, &mut c, m, k, n);
            let want = naive_matmul(&a, &b, m, k, n);
            assert_eq!(c, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_transpose_variants_match_naive() {
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 4), (7, 10, 5), (13, 17, 9)] {
            let a = seq(m * k);
            let bt = seq(n * k); // b^T laid out n x k
            let mut c = vec![0.0f32; m * n];
            matmul_transpose_b_blocked(&a, &bt, &mut c, m, k, n);
            // Reference: transpose bt into k x n then plain matmul.
            let mut b = vec![0.0f32; k * n];
            transpose_blocked(&bt, &mut b, n, k);
            assert_eq!(c, naive_matmul(&a, &b, m, k, n), "t_b shape {m}x{k}x{n}");

            let at = seq(k * m); // a^T laid out k x m
            let mut c2 = vec![0.0f32; m * n];
            let b2 = seq(k * n);
            matmul_transpose_a_blocked(&at, &b2, &mut c2, m, k, n);
            let mut a2 = vec![0.0f32; m * k];
            transpose_blocked(&at, &mut a2, k, m);
            assert_eq!(c2, naive_matmul(&a2, &b2, m, k, n), "t_a shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_blocked_is_exact() {
        let (r, c) = (13, 9);
        let src = seq(r * c);
        let mut dst = vec![0.0f32; r * c];
        transpose_blocked(&src, &mut dst, r, c);
        for i in 0..r {
            for j in 0..c {
                assert_eq!(dst[j * r + i], src[i * c + j]);
            }
        }
    }

    #[test]
    fn row_sq_norms_match_manual() {
        let a = vec![3.0, 4.0, 0.0, 1.0, 2.0, 2.0];
        let mut norms = Vec::new();
        row_sq_norms_into(&a, 2, 3, &mut norms);
        assert_eq!(norms, vec![25.0, 9.0]);
    }
}
