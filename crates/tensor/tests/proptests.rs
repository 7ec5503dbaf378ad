//! Property-based tests for the matrix kernels and autodiff identities.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use st_tensor::{Gradients, Init, Matrix, ParamStore, Tape};

/// Strategy: a matrix of bounded shape with small finite entries.
fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-3.0f32..3.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Two matrices with matching inner dimension for multiplication.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-3.0f32..3.0, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d)),
            proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d)),
        )
    })
}

/// Strategy: a matrix whose entries are multiples of 0.25 in [-4, 4].
///
/// On this grid every product is a multiple of 1/16 and every partial sum
/// stays far below 2^20, so f32 arithmetic is exact: the norm expansion
/// of `pairwise_sq_dist` cancels without error and its bound against the
/// direct per-pair subtraction tests kernel logic (tiling, packing, edge
/// handling) rather than floating-point cancellation.
fn grid_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-16i32..17, rows * cols).prop_map(move |data| {
        Matrix::from_vec(
            rows,
            cols,
            data.into_iter().map(|q| q as f32 * 0.25).collect(),
        )
    })
}

/// Dimensions straddling the register-tile sizes (MR = 4 rows, NR = 32
/// columns, TR = 8 transpose block): below / at / above each boundary,
/// plus the degenerate size 1 that makes 1x1, 1xn and nx1 operands.
const TILE_DIMS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 34, 63, 64, 65];

fn tile_dim() -> impl Strategy<Value = usize> {
    (0usize..TILE_DIMS.len()).prop_map(|i| TILE_DIMS[i])
}

fn tile_boundary_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (tile_dim(), tile_dim(), tile_dim())
}

/// A ragged matmul case: operands with tile-straddling shapes and
/// exact-grid entries.
fn ragged_matmul_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    tile_boundary_dims().prop_flat_map(|(m, k, n)| (grid_matrix(m, k), grid_matrix(k, n)))
}

/// As [`ragged_matmul_case`] with entries off any binary grid: every sum
/// rounds, so a product that adds its terms in another order than the
/// naive loop shows up as a changed bit.
fn ragged_off_grid_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    tile_boundary_dims()
        .prop_flat_map(|(m, k, n)| (matrix(m..m + 1, k..k + 1), matrix(k..k + 1, n..n + 1)))
}

proptest! {
    /// The tentpole differential test: the blocked matmul must match the
    /// naive reference bit for bit across odd/ragged shapes, including
    /// 1x1, 1xn, nx1 and sizes that are not multiples of the tile.
    #[test]
    fn blocked_matmul_matches_naive_across_tile_boundaries((a, b) in ragged_off_grid_case()) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        prop_assert!(
            bit_equal(&a.matmul(&b), &a.matmul_naive(&b)),
            "matmul {m}x{k}x{n}"
        );
    }

    /// The same for the transposed shapes, driven without materializing
    /// the transpose on the blocked side: all three products run the one
    /// packed kernel family, so all three equal their naive loops.
    #[test]
    fn blocked_transpose_products_match_naive_across_tile_boundaries(
        (a, b) in ragged_off_grid_case()
    ) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let bt = b.transpose_naive(); // n x k
        prop_assert!(
            bit_equal(&a.matmul_transpose_b(&bt), &a.matmul_transpose_b_naive(&bt)),
            "matmul_transpose_b {m}x{k}x{n}"
        );
        let at = a.transpose_naive(); // k x m
        prop_assert!(
            bit_equal(&at.matmul_transpose_a(&b), &at.matmul_transpose_a_naive(&b)),
            "matmul_transpose_a {m}x{k}x{n}"
        );
    }

    /// The tiled transpose is a permutation — it must match the naive
    /// double loop exactly, for any shape around the TR = 8 block edge.
    #[test]
    fn blocked_transpose_matches_naive_across_tile_boundaries(
        (r, c, _) in tile_boundary_dims()
    ) {
        let src = Matrix::from_vec(r, c, (0..r * c).map(|i| i as f32).collect());
        prop_assert_eq!(src.transpose(), src.transpose_naive());
    }

    /// The norm-expansion pairwise-distance kernel (MMD's forward) must
    /// match the direct per-pair subtraction within the differential bound.
    #[test]
    fn pairwise_sq_dist_matches_direct_across_tile_boundaries(
        (a, b) in ragged_matmul_case()
    ) {
        let y = b.transpose_naive(); // n x k: same width as a
        let d = a.pairwise_sq_dist(&y);
        for i in 0..a.rows() {
            for j in 0..y.rows() {
                let direct: f32 = a
                    .row(i)
                    .iter()
                    .zip(y.row(j))
                    .map(|(&p, &q)| (p - q) * (p - q))
                    .sum();
                prop_assert!(
                    (d.get(i, j) - direct).abs() <= 1e-4,
                    "pairwise_sq_dist[{i}][{j}]: {} vs {direct}",
                    d.get(i, j)
                );
            }
        }
    }

    #[test]
    fn transpose_is_involutive(a in matrix(1..8, 1..8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity((a, b) in matmul_pair()) {
        // (A B)^T == B^T A^T
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-4));
    }

    #[test]
    fn matmul_fused_variants_agree((a, b) in matmul_pair()) {
        let plain = a.matmul(&b);
        let via_bt = a.matmul_transpose_b(&b.transpose());
        let via_at = a.transpose().matmul_transpose_a(&b);
        prop_assert!(plain.approx_eq(&via_bt, 1e-4));
        prop_assert!(plain.approx_eq(&via_at, 1e-4));
    }

    #[test]
    fn add_commutes_and_sub_inverts(a in matrix(1..6, 1..6)) {
        let b = a.scale(0.5);
        prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-6));
        prop_assert!(a.add(&b).sub(&b).approx_eq(&a, 1e-5));
    }

    #[test]
    fn concat_cols_preserves_content(a in matrix(1..5, 1..5), scale in -2.0f32..2.0) {
        let b = a.scale(scale);
        let cat = a.concat_cols(&b);
        prop_assert_eq!(cat.cols(), a.cols() * 2);
        for r in 0..a.rows() {
            prop_assert_eq!(&cat.row(r)[..a.cols()], a.row(r));
            prop_assert_eq!(&cat.row(r)[a.cols()..], b.row(r));
        }
    }

    #[test]
    fn reductions_are_consistent(a in matrix(1..6, 1..6)) {
        let total = a.sum();
        prop_assert!((a.sum_cols().sum() - total).abs() < 1e-3);
        prop_assert!((a.sum_rows().sum() - total).abs() < 1e-3);
        prop_assert!((a.mean() * a.len() as f32 - total).abs() < 1e-3);
    }

    #[test]
    fn row_dot_matches_elementwise_sum(a in matrix(1..6, 1..6)) {
        let b = a.map(|x| x * 0.7 - 0.1);
        let rd = a.row_dot(&b);
        let manual = a.mul_elem(&b).sum_cols();
        prop_assert!(rd.approx_eq(&manual, 1e-4));
    }

    /// Differentiating a sum of losses equals summing per-loss gradients.
    #[test]
    fn backward_is_linear_in_the_loss(seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let p = store.register("p", 3, 3, Init::Gaussian { std: 1.0 }, &mut rng);

        let build = |tape: &mut Tape<'_>| {
            let v = tape.param(p);
            let sq = tape.mul_elem(v, v);
            let l1 = tape.sum_all(sq);
            let s = tape.sigmoid(v);
            let l2 = tape.mean_all(s);
            (l1, l2)
        };

        // Combined: backward from l1 + l2 on one tape.
        let mut combined = Gradients::zeros_like(&store);
        {
            let mut tape = Tape::new(&store);
            let (l1, l2) = build(&mut tape);
            let sum = tape.add(l1, l2);
            tape.backward(sum, &mut combined);
        }
        // Separate: two backward calls accumulating.
        let mut separate = Gradients::zeros_like(&store);
        {
            let mut tape = Tape::new(&store);
            let (l1, l2) = build(&mut tape);
            tape.backward(l1, &mut separate);
            tape.backward(l2, &mut separate);
        }
        let g1 = combined.get(p).unwrap();
        let g2 = separate.get(p).unwrap();
        prop_assert!(g1.approx_eq(g2, 1e-4));
    }

    /// backward_scaled(c) == c * backward(1).
    #[test]
    fn backward_scaling_is_multiplicative(c in 0.1f32..4.0) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = store.register("p", 2, 2, Init::Gaussian { std: 1.0 }, &mut rng);
        let run = |seed_weight: f32| {
            let mut grads = Gradients::zeros_like(&store);
            let mut tape = Tape::new(&store);
            let v = tape.param(p);
            let t = tape.tanh(v);
            let l = tape.sum_all(t);
            tape.backward_scaled(l, seed_weight, &mut grads);
            grads.get(p).unwrap().clone()
        };
        let unit = run(1.0);
        let scaled = run(c);
        prop_assert!(scaled.approx_eq(&unit.scale(c), 1e-4));
    }

    #[test]
    fn gather_rows_never_invents_values(rows in 2usize..6, picks in proptest::collection::vec(0usize..6, 1..8)) {
        let m = Matrix::from_vec(6, rows, (0..6 * rows).map(|i| i as f32).collect());
        let g = m.gather_rows(&picks);
        for (out_row, &src) in picks.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), m.row(src));
        }
    }
}

// ---------------------------------------------------------------------------
// Row-sparse gradient path vs the dense oracle (PR 3).
//
// Every test drives the SAME touch sequence into a `Gradients::zeros_like`
// buffer (row-sparse slots) and a `Gradients::dense_like` buffer (the
// pre-sparse dense representation) and demands agreement: bit-exact for
// the buffer ops and SGD, bounded for lazy-vs-dense Adam (whose documented
// drift is the dense path's momentum-tail updates on skipped rows).
// ---------------------------------------------------------------------------

/// A script of row touches over a `ROWS x COLS` table: `(row, delta)`
/// pairs applied in order, with repeats and arbitrary order.
fn touch_script(
    rows: usize,
    cols: usize,
    max_touches: usize,
) -> impl Strategy<Value = Vec<(usize, Vec<f32>)>> {
    proptest::collection::vec(
        (0..rows, proptest::collection::vec(-3.0f32..3.0, cols)),
        1..max_touches,
    )
}

const T_ROWS: usize = 17;
const T_COLS: usize = 3;

fn table_store() -> (ParamStore, st_tensor::ParamId, st_tensor::ParamId) {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut store = ParamStore::new();
    let table = store.register(
        "table",
        T_ROWS,
        T_COLS,
        Init::Gaussian { std: 0.5 },
        &mut rng,
    );
    let w = store.register("w", 2, 4, Init::Gaussian { std: 0.5 }, &mut rng);
    (store, table, w)
}

/// Applies one script to a pair of buffers (sparse, dense-oracle).
fn fill_pair(
    store: &ParamStore,
    table: st_tensor::ParamId,
    script: &[(usize, Vec<f32>)],
) -> (Gradients, Gradients) {
    let mut sparse = Gradients::zeros_like(store);
    let mut dense = Gradients::dense_like(store);
    for (row, delta) in script {
        sparse.accumulate_row(table, T_ROWS, T_COLS, *row, delta);
        dense.accumulate_row(table, T_ROWS, T_COLS, *row, delta);
    }
    (sparse, dense)
}

fn bit_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// merge_from / scale agree bit for bit between the sparse path and
    /// the dense oracle over arbitrary row-touch patterns.
    #[test]
    fn sparse_buffer_ops_match_dense_oracle_bitwise(
        s1 in touch_script(T_ROWS, T_COLS, 14),
        s2 in touch_script(T_ROWS, T_COLS, 14),
    ) {
        let (store, table, w) = table_store();
        let (mut sp1, mut de1) = fill_pair(&store, table, &s1);
        let (mut sp2, mut de2) = fill_pair(&store, table, &s2);
        // A dense-slot param rides along to cover mixed buffers.
        let full = Matrix::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.5 - 2.0).collect());
        sp1.accumulate(w, &full);
        de1.accumulate(w, &full);

        sp1.merge_from(&mut sp2);
        de1.merge_from(&mut de2);
        prop_assert!(bit_equal(
            &sp1.to_dense(table).unwrap(),
            &de1.to_dense(table).unwrap()
        ));
        // The merged-from buffers are empty, ready for their next step.
        prop_assert!(sp2.slot(table).is_none() && de2.slot(table).is_none());

        sp1.scale(0.5);
        de1.scale(0.5);
        prop_assert!(bit_equal(
            &sp1.to_dense(table).unwrap(),
            &de1.to_dense(table).unwrap()
        ));
        prop_assert!(bit_equal(
            &sp1.to_dense(w).unwrap(),
            &de1.to_dense(w).unwrap()
        ));
    }

    /// SGD (no weight decay) applied through a sparse buffer is
    /// bit-identical to SGD applied through the dense oracle, over
    /// arbitrary multi-step touch patterns.
    #[test]
    fn sgd_apply_is_bit_identical_across_representations(
        steps in proptest::collection::vec(touch_script(T_ROWS, T_COLS, 10), 1..5),
    ) {
        use st_tensor::{Optimizer, Sgd};
        let (store, table, _) = table_store();
        let (mut st_sparse, mut st_dense) = (store.clone(), store);
        let mut o1 = Sgd::new(0.07);
        let mut o2 = Sgd::new(0.07);
        for script in &steps {
            let (sp, de) = fill_pair(&st_sparse, table, script);
            o1.step(&mut st_sparse, &sp);
            o2.step(&mut st_dense, &de);
        }
        prop_assert!(bit_equal(st_sparse.get(table), st_dense.get(table)));
    }

    /// The two forward executors are bit-identical, not merely close:
    /// tape inference (`forward_inference` + `Tape::sigmoid`) and the
    /// tape-free `InferCtx` path run the same shared ops in the same
    /// order, across tower depths, widths, activations and batch sizes
    /// (dropout configured but off at inference).
    #[test]
    fn tape_free_forward_is_bit_identical_to_tape_inference(
        widths in proptest::collection::vec(1usize..9, 2..6),
        act_idx in 0usize..4,
        rows in 1usize..7,
        seed in 0u64..1000,
    ) {
        use st_tensor::{Activation, InferCtx, Mlp};
        let act = [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ][act_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &widths, act, 0.4, &mut rng);
        let x = Init::Gaussian { std: 1.0 }.sample(rows, widths[0], &mut rng);

        let mut tape = Tape::new(&store);
        let xv = tape.input(x.clone());
        let logits = mlp.forward_inference(&mut tape, xv);
        let probs = tape.sigmoid(logits);

        let mut ctx = InferCtx::new();
        ctx.set_input(&x);
        mlp.forward_infer(&store, &mut ctx);
        ctx.sigmoid();

        prop_assert!(
            bit_equal(ctx.value(), tape.value(probs)),
            "executors diverged: widths {widths:?}, {act:?}, {rows} rows"
        );
    }

    /// One left row against many right rows through a packed
    /// [`st_tensor::PairTower`] scores the bits the op-by-op forward over
    /// the materialised pairs does — across activations, depths, widths
    /// on and off the tile sizes, and run lengths around a row tile.
    #[test]
    fn score_run_is_bit_identical_to_the_op_by_op_forward(
        (da, db) in (1usize..6, 1usize..6),
        hidden in proptest::collection::vec(1usize..40, 0..4),
        act_idx in 0usize..4,
        len_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        use st_tensor::kernels::TILE_ROWS;
        use st_tensor::{Activation, InferCtx, PairTower};
        let act = [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ][act_idx];
        let rows = [0, 1, 5, TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS + 3][len_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let gauss = Init::Gaussian { std: 1.0 };
        let a = gauss.sample(4, da, &mut rng);
        let b = gauss.sample(9, db, &mut rng);
        let widths: Vec<usize> = [da + db].into_iter().chain(hidden).chain([1]).collect();
        let layers: Vec<(Matrix, Matrix)> = widths
            .windows(2)
            .map(|w| (gauss.sample(w[0], w[1], &mut rng), gauss.sample(1, w[1], &mut rng)))
            .collect();
        let bi: Vec<usize> = (0..rows).map(|i| (i * 7 + 2) % 9).collect();

        let mut ctx = InferCtx::new();
        ctx.gather_concat2(&a, &vec![3; rows], &b, &bi);
        for (i, (w, bias)) in layers.iter().enumerate() {
            ctx.linear(w, bias);
            if i + 1 < layers.len() {
                ctx.activation(act);
            }
        }
        ctx.sigmoid();
        let expected = ctx.value().clone();

        let tower = PairTower::new(da, layers.iter().map(|(w, b)| (w, b)), act);
        let mut scores = vec![f32::NAN]; // appended to, not overwritten
        ctx.score_run(&tower, &a, 3, &b, bi.iter().copied(), &mut scores);
        prop_assert!(scores[0].is_nan());
        prop_assert!(
            bit_equal(&Matrix::from_vec(rows, 1, scores.split_off(1)), &expected),
            "widths {widths:?}, {act:?}, {rows} rows"
        );
    }

    /// The fused embedding gather + pair concat equals the tape's
    /// two-step gather-then-concat to the last bit (both are pure row
    /// copies).
    #[test]
    fn fused_gather_concat_matches_gather_then_concat_bitwise(
        da in 1usize..6,
        db in 1usize..6,
        ai in proptest::collection::vec(0usize..6, 1..9),
        seed in 0u64..1000,
    ) {
        use st_tensor::InferCtx;
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = Init::Gaussian { std: 1.0 }.sample(6, da, &mut rng);
        let b = Init::Gaussian { std: 1.0 }.sample(6, db, &mut rng);
        let bi: Vec<usize> = ai.iter().map(|&i| 5 - i).collect();

        let expected = a.gather_rows(&ai).concat_cols(&b.gather_rows(&bi));
        let mut ctx = InferCtx::new();
        ctx.gather_concat2(&a, &ai, &b, &bi);
        prop_assert!(bit_equal(ctx.value(), &expected));
    }

    /// Lazy Adam stays within a small tolerance of the dense oracle over
    /// arbitrary touch patterns (exact on rows touched every step; skipped
    /// rows miss only the oracle's momentum-tail updates, which are
    /// O(lr · beta1^gap) each).
    #[test]
    fn lazy_adam_tracks_dense_oracle_within_tolerance(
        steps in proptest::collection::vec(touch_script(T_ROWS, T_COLS, 10), 2..6),
    ) {
        use st_tensor::{Adam, Optimizer};
        let (store, table, _) = table_store();
        let (mut st_lazy, mut st_dense) = (store.clone(), store);
        let mut lazy = Adam::new(1e-3);
        let mut dense = Adam::new(1e-3).with_lazy(false);
        for script in &steps {
            let (sp, de) = fill_pair(&st_lazy, table, script);
            lazy.step(&mut st_lazy, &sp);
            dense.step(&mut st_dense, &de);
        }
        let a = st_lazy.get(table);
        let b = st_dense.get(table);
        // <= 5 steps at lr 1e-3: each skipped momentum-tail update moves a
        // weight by < lr, so 1e-2 is a generous but meaningful bound.
        prop_assert!(a.approx_eq(b, 1e-2), "lazy Adam drifted past tolerance");
    }
}

// ---- the matrix pool against a reference model ---------------------------

/// One step of a pool script: `(kind, rows, cols)`. Shapes include empty
/// matrices; `kind` picks among the three acquisitions, releasing a held
/// matrix, and handing in a foreign buffer (with spare capacity, so it
/// lands in the middle of a class).
fn pool_script(kinds: u8) -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..kinds, 0usize..24, 0usize..24), 1..80)
}

/// The class of a request, restated here so the test does not share the
/// pool's arithmetic: the smallest `k` with `2^k >= n`.
fn request_class(n: usize) -> usize {
    (0..).find(|&k| (1usize << k) >= n).unwrap()
}

/// Reference model: how many acquired buffers of each class are out, and
/// the most that ever were.
#[derive(Default)]
struct PoolModel {
    outstanding: Vec<usize>,
    high_water: Vec<usize>,
    acquisitions: usize,
}

impl PoolModel {
    fn acquired(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let k = request_class(n);
        if k >= self.outstanding.len() {
            self.outstanding.resize(k + 1, 0);
            self.high_water.resize(k + 1, 0);
        }
        self.acquisitions += 1;
        self.outstanding[k] += 1;
        self.high_water[k] = self.high_water[k].max(self.outstanding[k]);
    }

    fn released(&mut self, n: usize) {
        if n > 0 {
            self.outstanding[request_class(n)] -= 1;
        }
    }

    /// Upper bounds on what the pool may hold: one buffer per high-water
    /// slot, each below the next class's capacity.
    fn bounds(&self) -> (usize, usize) {
        let buffers = self.high_water.iter().sum();
        let bytes = self
            .high_water
            .iter()
            .enumerate()
            .map(|(k, &hw)| hw * ((2usize << k) - 1) * 4)
            .sum();
        (buffers, bytes)
    }
}

/// Runs `script` against `pool` and `model`, checking every acquisition
/// and the pool's bounds after every step; releases what is still held
/// at the end.
fn run_pool_script(
    pool: &mut st_tensor::MatrixPool,
    model: &mut PoolModel,
    script: &[(u8, usize, usize)],
) -> Result<(), TestCaseError> {
    let mut held: Vec<Matrix> = Vec::new();
    for &(kind, rows, cols) in script {
        let n = rows * cols;
        match kind {
            0..=2 => {
                let m = match kind {
                    0 => {
                        let m = pool.acquire_zeroed(rows, cols);
                        prop_assert!(m.as_slice().iter().all(|&x| x == 0.0), "not zeroed");
                        m
                    }
                    1 => {
                        let m = pool
                            .acquire_with(rows, cols, |buf| buf.extend((0..n).map(|i| i as f32)));
                        prop_assert!(m.as_slice().iter().enumerate().all(|(i, &x)| x == i as f32));
                        m
                    }
                    _ => {
                        let src = Matrix::full(rows, cols, 2.5);
                        let m = pool.acquire_copy(&src);
                        prop_assert_eq!(&m, &src);
                        m
                    }
                };
                prop_assert_eq!(m.shape(), (rows, cols));
                model.acquired(n);
                // No class hands out a buffer smaller than the request.
                let buf = m.into_vec();
                prop_assert!(buf.capacity() >= n);
                held.push(Matrix::from_vec(rows, cols, buf));
            }
            3 => {
                if !held.is_empty() {
                    let mut m = held.swap_remove((rows * 31 + cols) % held.len());
                    model.released(m.len());
                    m.as_mut_slice().fill(7.5); // dirty on the way back
                    pool.release(m);
                }
            }
            _ => {
                let mut buf = Vec::with_capacity(n + cols);
                buf.resize(n, 1.0);
                pool.release(Matrix::from_vec(rows, cols, buf));
            }
        }
        let (max_buffers, max_bytes) = model.bounds();
        prop_assert!(
            pool.len() <= max_buffers,
            "{} buffers pooled, bound {max_buffers}",
            pool.len()
        );
        prop_assert!(pool.pooled_bytes() <= max_bytes);
        prop_assert_eq!(pool.regrown(), 0);
        let (hits, misses) = pool.stats();
        prop_assert_eq!(hits + misses, model.acquisitions);
    }
    for m in held {
        model.released(m.len());
        pool.release(m);
    }
    Ok(())
}

proptest! {
    /// Random acquire/release sequences, foreign and zero-capacity
    /// buffers included: acquired matrices have the requested shape and
    /// contents, and the pool never holds more than the high-water mark
    /// of what was out at once.
    #[test]
    fn pool_stays_within_its_high_water_mark(script in pool_script(5)) {
        let (mut pool, mut model) = (st_tensor::MatrixPool::new(), PoolModel::default());
        run_pool_script(&mut pool, &mut model, &script)?;
        let (max_buffers, max_bytes) = model.bounds();
        prop_assert!(pool.len() <= max_buffers);
        prop_assert!(pool.pooled_bytes() <= max_bytes);
    }

    /// A script that only uses the pool's own buffers, replayed: the
    /// second pass takes no miss and leaves the pool as the first did.
    #[test]
    fn pool_replay_takes_no_miss(script in pool_script(4)) {
        let (mut pool, mut model) = (st_tensor::MatrixPool::new(), PoolModel::default());
        run_pool_script(&mut pool, &mut model, &script)?;
        let first = pool.pool_stats();
        run_pool_script(&mut pool, &mut model, &script)?;
        let second = pool.pool_stats();
        prop_assert_eq!(second.misses, first.misses);
        prop_assert_eq!(second.pooled, first.pooled);
        prop_assert_eq!(second.pooled_bytes, first.pooled_bytes);
    }
}

// ---- Summation order: every tile shape, exact bits ----
//
// `kernels.rs` promises one accumulator per output element, terms added
// in ascending `k`, a multiply and an add per term. These are exhaustive
// sweeps rather than sampled properties: every remainder decomposition
// of `n mod NR`, row counts around both tile heights, and data off the
// exact grid, so any reassociation or `mul_add` shows up as a changed
// bit.

/// `len` values in (-1, 1) that do not sit on a binary grid.
fn off_grid(rng: &mut SmallRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// As [`off_grid`] with about half the draws an exact zero: a post-ReLU
/// activation, the input the old scalar edge loop used to skip terms
/// for.
fn half_zero(rng: &mut SmallRng, len: usize) -> Vec<f32> {
    let zero_out = |v: f32| if v.to_bits() & 1 == 0 { 0.0 } else { v };
    off_grid(rng, len).into_iter().map(zero_out).collect()
}

/// The definition the kernels are held to: `init[j] + a[i][0]*b[0][j] +
/// a[i][1]*b[1][j] + ...`, left to right, no term skipped.
fn sequential_product(
    a: &[f32],
    b: &[f32],
    init: &[f32],
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = init[j];
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const SWEEP_M: [usize; 5] = [1, 7, 8, 9, 33];
const SWEEP_K: [usize; 4] = [1, 16, 64, 65];

#[test]
fn blocked_matmul_is_the_sequential_sum_for_every_remainder_width() {
    use st_tensor::kernels::matmul_blocked;
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for n in 1..=70 {
        for m in SWEEP_M {
            for k in SWEEP_K {
                let a = half_zero(&mut rng, m * k);
                let b = off_grid(&mut rng, k * n);
                let mut c = vec![0.0f32; m * n];
                matmul_blocked(&a, &b, &mut c, m, k, n);
                let want = sequential_product(&a, &b, &vec![0.0; n], (m, k, n));
                assert_eq!(bits(&c), bits(&want), "shape {m}x{k}x{n}");
            }
        }
    }
}

#[test]
fn packed_matmul_continues_from_its_init_row_for_every_remainder_width() {
    use st_tensor::kernels::{matmul_packed, PackedB};
    let mut rng = SmallRng::seed_from_u64(0xACC);
    for n in 1..=70 {
        for m in SWEEP_M {
            for k in SWEEP_K {
                let a = half_zero(&mut rng, m * k);
                let b = off_grid(&mut rng, k * n);
                let init = off_grid(&mut rng, n);
                let mut c = vec![f32::NAN; m * n];
                let packed = PackedB::pack(&b, k, n);
                matmul_packed(&a, &packed, Some(&init), &mut c, m, |c, acc, _, _| {
                    c.copy_from_slice(acc)
                });
                let want = sequential_product(&a, &b, &init, (m, k, n));
                assert_eq!(bits(&c), bits(&want), "shape {m}x{k}x{n}");
            }
        }
    }
}

/// What one-user scoring rests on: when every row of `a` starts with the
/// same `k1` values, multiplying those through the top of `b` once and
/// seeding the rest of the product with the result changes no bit of the
/// product over the concatenation.
#[test]
fn prefix_then_tail_equals_one_product_over_the_concatenation() {
    use st_tensor::kernels::{matmul_blocked, matmul_packed, PackedB};
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for (m, k1, k2, n) in [
        (1, 64, 64, 64),
        (33, 64, 64, 64),
        (9, 3, 5, 7),
        (8, 16, 1, 70),
        (130, 5, 11, 37),
    ] {
        let shared = off_grid(&mut rng, k1);
        let tails = half_zero(&mut rng, m * k2);
        let b = off_grid(&mut rng, (k1 + k2) * n);
        let concat: Vec<f32> = tails
            .chunks_exact(k2)
            .flat_map(|tail| shared.iter().chain(tail).copied())
            .collect();
        let mut whole = vec![0.0f32; m * n];
        matmul_blocked(&concat, &b, &mut whole, m, k1 + k2, n);

        let (top, bottom) = b.split_at(k1 * n);
        let mut prefix = vec![0.0f32; n];
        matmul_blocked(&shared, top, &mut prefix, 1, k1, n);
        let mut split = vec![f32::NAN; m * n];
        let bottom = PackedB::pack(bottom, k2, n);
        matmul_packed(
            &tails,
            &bottom,
            Some(&prefix),
            &mut split,
            m,
            |c, acc, _, _| c.copy_from_slice(acc),
        );
        assert_eq!(bits(&split), bits(&whole), "shape {m}x({k1}+{k2})x{n}");
    }
}

/// The IVF assignment rests on the same invariant: `nearest_centroids`
/// is exactly the naive arg-min of `sum_k c_jk^2 - 2 * sum_k x_k c_jk`,
/// both sums left to right, first minimum kept — for every remainder of
/// `k mod NR` (the packed side is padded past it), point counts around
/// the `TILE_ROWS` block, and centroid rows that repeat (the last third
/// copies the first, so a tie must go to the lower index).
#[test]
fn nearest_centroids_is_the_sequential_arg_min_for_every_shape() {
    use st_tensor::kernels::TILE_ROWS;
    use st_tensor::{ops, StorageEncoding, TableStorage};
    let oracle = |points: &Matrix, centroids: &Matrix| -> Vec<u32> {
        let key = |x: &[f32], c: &[f32]| {
            let (mut sq, mut dot) = (0.0f32, 0.0f32);
            for (&xv, &cv) in x.iter().zip(c) {
                sq += cv * cv;
                dot += xv * cv;
            }
            sq - 2.0 * dot
        };
        (0..points.rows())
            .map(|i| {
                let (mut best, mut best_key) = (0, key(points.row(i), centroids.row(0)));
                for j in 1..centroids.rows() {
                    let d = key(points.row(i), centroids.row(j));
                    if d < best_key {
                        (best, best_key) = (j as u32, d);
                    }
                }
                best
            })
            .collect()
    };
    let mut rng = SmallRng::seed_from_u64(0x1F5);
    let mut got = Vec::new();
    for k in (1..=70).chain([316, 320]) {
        for dim in [1, 5, 64, 65] {
            let mut centroids = Matrix::from_vec(k, dim, off_grid(&mut rng, k * dim));
            for j in 0..k / 3 {
                let first = centroids.row(j).to_vec();
                centroids.row_mut(k - k / 3 + j).copy_from_slice(&first);
            }
            for n in [0, 1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 700] {
                let points = Matrix::from_vec(n, dim, off_grid(&mut rng, n * dim));
                ops::nearest_centroids(&points, &centroids, &mut got);
                assert_eq!(got, oracle(&points, &centroids), "{n}x{dim} -> k={k}");
                assert!(
                    got.iter().all(|&j| (j as usize) < k - k / 3),
                    "tie went high"
                );
                if ![1, 33, 316].contains(&k) {
                    continue;
                }
                // Quantized points decode inside the call, block by
                // block: same answer as the matrix decoded up front.
                for enc in [StorageEncoding::F16, StorageEncoding::I8] {
                    let stored = TableStorage::encode(&points, enc);
                    ops::nearest_centroids(&stored, &centroids, &mut got);
                    let decoded = stored.to_matrix();
                    assert_eq!(
                        got,
                        oracle(&decoded, &centroids),
                        "{enc} {n}x{dim} -> k={k}"
                    );
                }
            }
        }
    }
}
