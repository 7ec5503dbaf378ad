//! Cache-blocked, autovectorization-friendly matrix micro-kernels.
//!
//! Every kernel here works on raw row-major `f32` buffers and is written
//! so LLVM's autovectorizer produces SIMD code without `unsafe`:
//!
//! - **Fixed-size register tiles.** The hot loops accumulate into
//!   `[[f32; W]; R]` arrays that live entirely in registers, so the
//!   inner k-loop performs no loads or stores against the output.
//! - **Bounds checks hoisted.** Slices are converted to fixed-size array
//!   references (`try_into`) once per row, after which all indexing is
//!   statically in range and check-free.
//! - **Contiguous streaming.** All inner loops walk unit-stride memory.
//!
//! # The summation-order invariant
//!
//! There is one product micro-kernel family. All three shapes — `a * b`
//! ([`matmul_blocked`], [`matmul_packed`]), `a^T * b`
//! ([`matmul_transpose_a_blocked`]) and `a * b^T`
//! ([`crate::Matrix::matmul_transpose_b_into`]) — pack their right-hand
//! side into column panels and run the same register tiles over them
//! (`panel_product`; there is no dot-product tile), and every
//! element they write is `init + a[0]*b[0] + a[1]*b[1] + ...` evaluated
//! left to right: one accumulator per output element, terms added in
//! ascending `k`, a separate multiply and add per term (never
//! `mul_add`, which rounds once instead of twice). The tile shape
//! decides only which elements share a loop, so every tile width and
//! height — and the plain `*_naive` loops kept in [`crate::Matrix`] —
//! produce the same bits for every shape, and a product may be split at
//! any `k`: run the first terms, then pass the result as the `init` row
//! of the rest. Scoring one user against many candidates rests on
//! exactly that ([`crate::PairTower`]): the user's half of the first
//! layer is computed once and seeds every candidate's accumulators. The
//! differential proptests assert all of this by `to_bits`.
//!
//! Tile sizes are chosen for the x86-64 baseline (SSE2, 16 XMM
//! registers): a 4x8 `f32` accumulator block is 8 vector registers,
//! leaving room for operand broadcasts. On wider ISAs (AVX2/AVX-512 via
//! `-C target-cpu=native`) the same code compiles to fewer, wider ops.

/// Rows per full-width register tile (micro-kernel height).
pub const MR: usize = 4;
/// Columns per full-width register tile (micro-kernel width): two
/// AVX-512 lanes, four AVX2 lanes — wide enough to keep the FMA ports
/// busy while the `MR x NR` accumulator block still fits the vector
/// register file.
pub const NR: usize = 32;
/// Rows per narrow register tile: the `n mod NR` remainder columns run
/// as 16/8/4/2/1-wide tiles, which leave registers for twice the rows.
pub const MR_NARROW: usize = 8;
/// Candidate rows [`crate::InferCtx::score_run`] takes through the whole
/// tower at a time: one tile's input and activations (~100 KB for the
/// paper's tower) stay cache-resident from gather to sigmoid. 64–256
/// measure within 5 % of each other.
pub const TILE_ROWS: usize = 128;
/// Block edge for the tiled transpose.
pub const TR: usize = 8;

/// The column panels of an `n`-wide product, left to right, as
/// `(first column, width)`: `NR`-wide while that many columns remain,
/// then the remainder split by its bits into 16/8/4/2/1.
fn panels(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j = 0;
    std::iter::from_fn(move || {
        let left = n - j;
        if left == 0 {
            return None;
        }
        let w = if left >= NR { NR } else { 1 << left.ilog2() };
        j += w;
        Some((j - w, w))
    })
}

/// Copies `b[:, j..j+w]` (`b: k x n`) into `dst` as a contiguous `k x w`
/// panel, which makes the micro-kernel's loads unit-stride and
/// bounds-check free (`chunks_exact`).
fn pack_panel(b: &[f32], n: usize, j: usize, w: usize, dst: &mut [f32]) {
    for (dst, brow) in dst.chunks_exact_mut(w).zip(b.chunks_exact(n)) {
        dst.copy_from_slice(&brow[j..j + w]);
    }
}

/// Copies rows `j..j+live` of the row-major `n x k` matrix `rows` into
/// the first `live` columns of the `k x w` panel `dst`: the panel of
/// columns `j..j+w` of `rows^T`, built without a transposed copy of
/// `rows`. Columns `live..w` of `dst` are left as they are.
fn pack_rows_panel(rows: &[f32], k: usize, j: usize, live: usize, w: usize, dst: &mut [f32]) {
    transpose_strided(&rows[j * k..(j + live) * k], dst, live, k, w);
}

/// A `k x n` right-hand side packed once into the panels the
/// micro-kernels stream, for weights multiplied many times
/// ([`matmul_packed`]).
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// The panels of [`panels`]`(n)` back to back; the one starting at
    /// column `j` starts at `k * j`.
    data: Vec<f32>,
}

impl PackedB {
    /// Packs the row-major `k x n` matrix `b`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "PackedB::pack: buffer is not k x n");
        let mut data = vec![0.0f32; k * n];
        for (j, w) in panels(n) {
            pack_panel(b, n, j, w, &mut data[k * j..k * (j + w)]);
        }
        Self { k, n, data }
    }

    /// Packs `b^T` straight from `b`'s `n` row-major rows of length `k`,
    /// widened with zero columns to `width >= n`: the right-hand side of
    /// `x * b^T` (each output a dot of two rows) in the shape the packed
    /// kernels stream. A caller that pads to whole [`NR`] panels never
    /// runs a narrow remainder tile; the padding columns come out as
    /// `init + 0`.
    pub fn pack_rows(rows: &[f32], n: usize, k: usize, width: usize) -> Self {
        assert_eq!(rows.len(), n * k, "PackedB::pack_rows: buffer is not n x k");
        assert!(width >= n, "PackedB::pack_rows: width {width} < {n} rows");
        let mut data = vec![0.0f32; k * width];
        for (j, w) in panels(width).take_while(|&(j, _)| j < n) {
            pack_rows_panel(rows, k, j, w.min(n - j), w, &mut data[k * j..k * (j + w)]);
        }
        Self { k, n: width, data }
    }

    /// Rows of the packed matrix (the product's inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix (the product's width).
    pub fn n(&self) -> usize {
        self.n
    }
}

/// `c += a * b` for row-major buffers, `a: m x k`, `b: k x n`, `c: m x n`.
///
/// GEBP-style: each column panel of `b` is packed into one scratch
/// buffer, then every row band of `a` streams through it with a
/// register-tile micro-kernel — `MR x NR` for full panels,
/// `MR_NARROW x {16,8,4,2,1}` for the `n mod NR` remainder.
///
/// The caller guarantees buffer lengths match the dimensions; `c` is
/// accumulated into (callers wanting a plain product pass zeros).
pub fn matmul_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);

    let mut scratch = vec![0.0f32; k * NR.min(n)];
    for (j, w) in panels(n) {
        let panel = &mut scratch[..k * w];
        pack_panel(b, n, j, w, panel);
        panel_product(a, panel, None, c, m, k, n, j, w, &accumulate);
    }
}

/// The accumulating write-back, `c += acc`.
pub(crate) fn accumulate(c: &mut [f32], acc: &[f32], _i: usize, _j: usize) {
    for (o, &v) in c.iter_mut().zip(acc) {
        *o += v;
    }
}

/// The product `a * b` (`a: m x b.k()`, `c: m x b.n()`) with the
/// accumulators started from `init` (a `1 x n` row shared by every row
/// of `a`; zeros when `None`) and each finished tile row handed to
/// `write(c_row_segment, accumulators, first_column)`, which decides
/// what lands in `c` — accumulate, or bias and activation fused into the
/// store.
///
/// # Panics
/// Panics if a buffer length disagrees with the dimensions.
#[inline]
pub fn matmul_packed(
    a: &[f32],
    b: &PackedB,
    init: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    write: impl Fn(&mut [f32], &[f32], usize, usize),
) {
    assert_eq!(a.len(), m * b.k, "matmul_packed: a is not m x k");
    assert_eq!(c.len(), m * b.n, "matmul_packed: c is not m x n");
    if let Some(row) = init {
        assert_eq!(row.len(), b.n, "matmul_packed: init is not 1 x n");
    }
    for (j, w) in panels(b.n) {
        let panel = &b.data[b.k * j..b.k * (j + w)];
        panel_product(a, panel, init, c, m, b.k, b.n, j, w, &write);
    }
}

/// Every row of `a` against the packed `k x w` panel of columns
/// `j..j+w`, through the register tile of that width: row bands first,
/// then the bottom rows one at a time.
#[allow(clippy::too_many_arguments)] // raw slices + the panel's place in the product
#[inline(always)]
fn panel_product(
    a: &[f32],
    panel: &[f32],
    init: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    w: usize,
    write: &impl Fn(&mut [f32], &[f32], usize, usize),
) {
    let init = init.map(|row| &row[j..j + w]);
    match w {
        NR => {
            let init = init_row::<NR>(init);
            let mut i = 0;
            while i + MR <= m {
                micro_kernel_wide(a, panel, init, c, k, n, i, j, write);
                i += MR;
            }
            for i in i..m {
                micro_kernel::<1, NR>(a, panel, init, c, k, n, i, j, write);
            }
        }
        16 => narrow_bands::<16>(a, panel, init, c, m, k, n, j, write),
        8 => narrow_bands::<8>(a, panel, init, c, m, k, n, j, write),
        4 => narrow_bands::<4>(a, panel, init, c, m, k, n, j, write),
        2 => narrow_bands::<2>(a, panel, init, c, m, k, n, j, write),
        1 => narrow_bands::<1>(a, panel, init, c, m, k, n, j, write),
        _ => unreachable!("panels() yields NR or a power of two below it"),
    }
}

/// The accumulators' starting row as a `W`-array (zeros when `None`).
#[inline(always)]
fn init_row<const W: usize>(init: Option<&[f32]>) -> [f32; W] {
    init.map_or([0.0; W], |row| row.try_into().expect("W-wide init"))
}

/// [`panel_product`] for a `W < NR` panel: bands of `MR_NARROW` rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn narrow_bands<const W: usize>(
    a: &[f32],
    panel: &[f32],
    init: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    write: &impl Fn(&mut [f32], &[f32], usize, usize),
) {
    let init = init_row::<W>(init);
    let mut i = 0;
    while i + MR_NARROW <= m {
        micro_kernel::<MR_NARROW, W>(a, panel, init, c, k, n, i, j, write);
        i += MR_NARROW;
    }
    for i in i..m {
        micro_kernel::<1, W>(a, panel, init, c, k, n, i, j, write);
    }
}

/// `MR x NR` register-tile product of rows `i..i+MR` of `a` with the
/// packed panel of columns `j..j+NR`.
///
/// Same arithmetic as [`micro_kernel`]`::<MR, NR>`, spelled out: the
/// four accumulator rows are separate local arrays because LLVM's
/// scalar replacement keeps those in vector registers, while a
/// `[[f32; NR]; MR]` this large stays in memory (6 vs 60 gflop/s).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel_wide(
    a: &[f32],
    panel: &[f32],
    init: [f32; NR],
    c: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    write: &impl Fn(&mut [f32], &[f32], usize, usize),
) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (init, init, init, init);
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
        write(&mut c[off..off + NR], accr, i + r, j);
    }
}

/// `R x W` register-tile product of rows `i..i+R` of `a` with the packed
/// panel of columns `j..j+W`: accumulators start at `init`, take one
/// multiply and one add per `k` in ascending order, and go to `write`
/// row by row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel<const R: usize, const W: usize>(
    a: &[f32],
    panel: &[f32],
    init: [f32; W],
    c: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    write: &impl Fn(&mut [f32], &[f32], usize, usize),
) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [init; R];
    for (p, bp) in panel.chunks_exact(W).enumerate() {
        let bp: &[f32; W] = bp.try_into().expect("W chunk");
        for r in 0..R {
            let v = rows[r][p];
            for l in 0..W {
                acc[r][l] += v * bp[l];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let off = (i + r) * n + j;
        write(&mut c[off..off + W], accr, i + r, j);
    }
}

/// The product `a * b^T` for row-major buffers (`a: m x k`, `b: n x k`,
/// `c: m x n`), each finished tile row handed to `write` as in
/// [`matmul_packed`] ([`accumulate`] for `c += a * b^T`).
///
/// Each output is a dot of two rows, computed as every other product
/// is: each column panel of `b^T` is packed straight from `b`'s rows
/// into one scratch buffer ([`matmul_blocked`]'s loop with the other
/// packing routine), then every row band of `a` streams through it.
pub(crate) fn matmul_transpose_b_blocked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    write: impl Fn(&mut [f32], &[f32], usize, usize),
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);

    let mut scratch = vec![0.0f32; k * NR.min(n)];
    for (j, w) in panels(n) {
        let panel = &mut scratch[..k * w];
        pack_rows_panel(b, k, j, w, w, panel);
        panel_product(a, panel, None, c, m, k, n, j, w, &write);
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
pub fn transpose_blocked(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(dst.len(), rows * cols);
    transpose_strided(src, dst, rows, cols, rows);
}

/// [`transpose_blocked`] into a `dst` whose rows are `stride >= rows`
/// long: `dst[c * stride + r] = src[r * cols + c]`, the rest untouched.
///
/// Processes `TR x TR` blocks so both source reads and destination
/// writes stay within a few cache lines per tile instead of striding
/// the full matrix width on every element.
fn transpose_strided(src: &[f32], dst: &mut [f32], rows: usize, cols: usize, stride: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert!(stride >= rows && dst.len() >= cols * stride);
    let mut rb = 0;
    while rb < rows {
        let r_end = (rb + TR).min(rows);
        let mut cb = 0;
        while cb < cols {
            let c_end = (cb + TR).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * stride + r] = src[r * cols + c];
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
        // Off-grid values: the sums round, so equality holds only if the
        // order of summation is the naive loop's.
        let frac = |len: usize| -> Vec<f32> { seq(len).iter().map(|v| v / 7.0).collect() };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 4), (7, 10, 5), (13, 17, 9), (5, 9, 70)] {
            let a = frac(m * k);
            let bt = frac(n * k); // b^T laid out n x k
            let mut c = vec![0.0f32; m * n];
            matmul_transpose_b_blocked(&a, &bt, &mut c, m, k, n, accumulate);
            // Reference: transpose bt into k x n then plain matmul.
            let mut b = vec![0.0f32; k * n];
            transpose_blocked(&bt, &mut b, n, k);
            let want = naive_matmul(&a, &b, m, k, n);
            assert_eq!(bits(&c), bits(&want), "t_b shape {m}x{k}x{n}");

            let at = frac(k * m); // a^T laid out k x m
            let mut c2 = vec![0.0f32; m * n];
            let b2 = frac(k * n);
            matmul_transpose_a_blocked(&at, &b2, &mut c2, m, k, n);
            let mut a2 = vec![0.0f32; m * k];
            transpose_blocked(&at, &mut a2, k, m);
            let want = naive_matmul(&a2, &b2, m, k, n);
            assert_eq!(bits(&c2), bits(&want), "t_a shape {m}x{k}x{n}");
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
