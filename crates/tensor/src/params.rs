//! Persistent parameter storage shared across training steps.
//!
//! Trainable parameters live in a [`ParamStore`], addressed by the
//! copyable [`ParamId`] newtype. Each training step builds a fresh
//! [`crate::Tape`] over the store, runs backward, and collects gradients
//! into a [`Gradients`] buffer keyed by the same ids, which an optimizer
//! then applies.
//!
//! Gradients are **row-sparse by default**: embedding-style parameters
//! touched through [`Gradients::accumulate_row`] store only the touched
//! rows ([`SparseRows`]), so per-step gradient cost and memory scale with
//! the batch, not with the table. Parameters that receive a full-matrix
//! gradient ([`Gradients::accumulate`]) are promoted to a dense slot.

use crate::{Init, Matrix};
use rand::Rng;
use std::collections::HashMap;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Named, trainable parameter matrices.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter initialized by `init`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.register_value(name, init.sample(rows, cols, rng))
    }

    /// Registers a parameter with an explicit initial value.
    pub fn register_value(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Immutable access to a parameter's current value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's current value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (v, n))| (ParamId(i), n.as_str(), v))
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// True if any parameter contains NaN or infinity.
    pub fn has_non_finite(&self) -> bool {
        self.values.iter().any(Matrix::has_non_finite)
    }
}

/// A row-sparse gradient: only the touched rows of a `rows x cols`
/// parameter are stored, packed contiguously in touch order with a
/// row-index map for O(1) lookup.
///
/// Memory and iteration cost are O(touched rows x cols) regardless of the
/// full table height, which is what makes embedding-scale training
/// O(batch) per step instead of O(table).
#[derive(Debug, Clone, Default)]
pub struct SparseRows {
    rows: usize,
    cols: usize,
    /// table row -> packed slot.
    index: HashMap<usize, usize>,
    /// packed slot -> table row (touch order).
    touched: Vec<usize>,
    /// Packed row data, `touched.len() * cols` long.
    data: Vec<f32>,
}

impl SparseRows {
    /// An empty row-sparse gradient for a `rows x cols` parameter.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            index: HashMap::new(),
            touched: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Full parameter shape this gradient is sparse over.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of distinct touched rows.
    pub fn touched_rows(&self) -> usize {
        self.touched.len()
    }

    /// Touched table-row ids in touch order.
    pub fn row_ids(&self) -> &[usize] {
        &self.touched
    }

    /// The packed data for touched row `slot` (see [`SparseRows::row_ids`]).
    pub fn packed_row(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.cols..(slot + 1) * self.cols]
    }

    /// Allocated gradient storage in scalar elements.
    pub fn allocated_elems(&self) -> usize {
        self.data.capacity()
    }

    /// The packed row for table row `row`, inserted (zeroed) on first touch.
    pub fn row_mut_or_insert(&mut self, row: usize) -> &mut [f32] {
        debug_assert!(row < self.rows, "row {row} out of {}", self.rows);
        let cols = self.cols;
        let slot = match self.index.get(&row) {
            Some(&s) => s,
            None => {
                let s = self.touched.len();
                self.index.insert(row, s);
                self.touched.push(row);
                self.data.resize((s + 1) * cols, 0.0);
                s
            }
        };
        &mut self.data[slot * cols..(slot + 1) * cols]
    }

    /// Accumulates `delta_row` into table row `row`.
    pub fn add_row(&mut self, row: usize, delta_row: &[f32]) {
        for (g, &d) in self.row_mut_or_insert(row).iter_mut().zip(delta_row) {
            *g += d;
        }
    }

    /// Iterates `(table_row, packed_row)` in touch order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.touched
            .iter()
            .enumerate()
            .map(|(slot, &row)| (row, self.packed_row(slot)))
    }

    /// Packed slots ordered by ascending table row. Consumers that must
    /// match a dense full-matrix sweep bit for bit (norms, differential
    /// tests) iterate in this order; untouched rows contribute exact
    /// zeros in the dense sweep, so the sorted fold is identical.
    pub fn sorted_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..self.touched.len()).collect();
        slots.sort_unstable_by_key(|&s| self.touched[s]);
        slots
    }

    /// Scales every stored element by `c`.
    pub fn scale(&mut self, c: f32) {
        for x in &mut self.data {
            *x *= c;
        }
    }

    /// Materializes the equivalent dense gradient matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (row, packed) in self.iter() {
            out.row_mut(row).copy_from_slice(packed);
        }
        out
    }

    /// Adds every stored row into the matching row of a dense matrix.
    pub fn add_to_dense(&self, dense: &mut Matrix) {
        debug_assert_eq!(dense.shape(), (self.rows, self.cols));
        for (row, packed) in self.iter() {
            for (g, &d) in dense.row_mut(row).iter_mut().zip(packed) {
                *g += d;
            }
        }
    }

    /// Merges another row-sparse gradient into this one (summing).
    pub fn merge(&mut self, other: &SparseRows) {
        debug_assert_eq!(self.shape(), other.shape());
        for (row, packed) in other.iter() {
            self.add_row(row, packed);
        }
    }

    /// Empties the gradient while keeping the allocated storage, so a
    /// buffer reused across training steps stops allocating once it has
    /// seen its steady-state touch pattern.
    pub fn clear(&mut self) {
        self.index.clear();
        self.touched.clear();
        self.data.clear();
    }

    /// True if any stored element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// One parameter's accumulated gradient: dense, or packed touched rows.
#[derive(Debug, Clone)]
pub enum GradSlot {
    /// Full-matrix gradient (MLP weights, or promoted sparse slots).
    Dense(Matrix),
    /// Row-sparse gradient (embedding tables touched through gathers).
    Sparse(SparseRows),
}

impl GradSlot {
    /// Allocated gradient storage in scalar elements.
    pub fn allocated_elems(&self) -> usize {
        match self {
            GradSlot::Dense(m) => m.len(),
            GradSlot::Sparse(s) => s.allocated_elems(),
        }
    }

    /// Materializes the slot as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        match self {
            GradSlot::Dense(m) => m.clone(),
            GradSlot::Sparse(s) => s.to_dense(),
        }
    }

    /// Squared Frobenius contribution, computed exactly the way the dense
    /// path computes it (`norm = sqrt(sum of squares); norm * norm`) so
    /// sparse and dense buffers agree bit for bit: a dense sweep's
    /// untouched rows add exact `+0.0` terms, which never perturb the
    /// running sum, and the sparse fold visits rows in ascending order —
    /// the same element order as the dense sweep.
    fn sq_frobenius(&self) -> f32 {
        match self {
            GradSlot::Dense(m) => {
                let n = m.frobenius_norm();
                n * n
            }
            GradSlot::Sparse(s) => {
                let mut acc = 0.0f32;
                for slot in s.sorted_slots() {
                    for &x in s.packed_row(slot) {
                        acc += x * x;
                    }
                }
                let n = acc.sqrt();
                n * n
            }
        }
    }

    fn scale(&mut self, c: f32) {
        match self {
            GradSlot::Dense(m) => m.map_inplace(|x| x * c),
            GradSlot::Sparse(s) => s.scale(c),
        }
    }

    fn clear(&mut self) {
        match self {
            GradSlot::Dense(m) => m.as_mut_slice().fill(0.0),
            GradSlot::Sparse(s) => s.clear(),
        }
    }
}

/// Per-parameter gradient accumulator produced by a backward pass.
///
/// Gradients are accumulated (summed), so several backward passes over the
/// same buffer implement loss-term addition for free. Row-touched
/// parameters (embedding rows reached through gathers) stay row-sparse:
/// per-step cost and memory scale with the touched rows, never with the
/// table height. A full-matrix [`Gradients::accumulate`] promotes the
/// slot to dense.
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    grads: Vec<Option<GradSlot>>,
    /// Slots released by [`Gradients::clear`], kept per parameter so a
    /// buffer reused across steps re-acquires warmed storage instead of
    /// allocating.
    cache: Vec<Option<GradSlot>>,
    /// When set, `accumulate_row` materializes dense slots immediately —
    /// the pre-sparse behaviour, kept as the differential/perf oracle.
    force_dense: bool,
}

impl Gradients {
    /// Creates a row-sparse buffer with a slot per parameter of `store`.
    pub fn zeros_like(store: &ParamStore) -> Self {
        Self {
            grads: vec![None; store.len()],
            cache: vec![None; store.len()],
            force_dense: false,
        }
    }

    /// Creates a buffer that materializes **dense** slots even for row
    /// touches — the representation every touched table had before the
    /// row-sparse path existed. Kept as the differential-test oracle and
    /// the benchmark baseline.
    pub fn dense_like(store: &ParamStore) -> Self {
        Self {
            grads: vec![None; store.len()],
            cache: vec![None; store.len()],
            force_dense: true,
        }
    }

    /// Number of parameter slots (the arity of the store this buffer was
    /// created for; 0 for a defaulted/taken buffer).
    pub fn arity(&self) -> usize {
        self.grads.len()
    }

    /// The accumulated slot for `id`, if any backward pass touched it.
    pub fn slot(&self, id: ParamId) -> Option<&GradSlot> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// The accumulated **dense** gradient for `id`.
    ///
    /// # Panics
    /// Panics if the slot is row-sparse — call [`Gradients::to_dense`]
    /// (or match on [`Gradients::slot`]) for representation-agnostic
    /// access.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        match self.slot(id) {
            None => None,
            Some(GradSlot::Dense(m)) => Some(m),
            Some(GradSlot::Sparse(_)) => panic!(
                "gradient slot {} is row-sparse; use Gradients::to_dense or Gradients::slot",
                id.0
            ),
        }
    }

    /// Materializes the gradient for `id` as a dense matrix, whatever the
    /// slot representation.
    pub fn to_dense(&self, id: ParamId) -> Option<Matrix> {
        self.slot(id).map(GradSlot::to_dense)
    }

    /// Total allocated gradient storage in scalar elements (live slots
    /// plus cleared slots kept for reuse). On the sparse path this scales
    /// with touched rows; on the dense path with total table size.
    pub fn allocated_elems(&self) -> usize {
        self.grads
            .iter()
            .chain(&self.cache)
            .flatten()
            .map(GradSlot::allocated_elems)
            .sum()
    }

    /// Takes a cleared slot of the right kind out of the reuse cache.
    fn cached_slot(&mut self, idx: usize, want_dense: bool) -> Option<GradSlot> {
        match self.cache.get_mut(idx).and_then(Option::take) {
            Some(GradSlot::Dense(m)) if want_dense => Some(GradSlot::Dense(m)),
            Some(GradSlot::Sparse(s)) if !want_dense => Some(GradSlot::Sparse(s)),
            // Kind changed since last step: drop the stale storage.
            _ => None,
        }
    }

    /// Accumulates `delta` into the slot for `id`, promoting a row-sparse
    /// slot to dense (full-matrix gradients touch every row anyway).
    pub fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        let slot = match self.grads[id.0].take() {
            Some(GradSlot::Dense(mut m)) => {
                m.axpy(1.0, delta);
                GradSlot::Dense(m)
            }
            Some(GradSlot::Sparse(s)) => {
                let mut m = s.to_dense();
                m.axpy(1.0, delta);
                GradSlot::Dense(m)
            }
            None => match self.cached_slot(id.0, true) {
                Some(GradSlot::Dense(mut m)) => {
                    debug_assert_eq!(m.shape(), delta.shape());
                    m.axpy(1.0, delta);
                    GradSlot::Dense(m)
                }
                _ => GradSlot::Dense(delta.clone()),
            },
        };
        self.grads[id.0] = Some(slot);
    }

    /// Accumulates a single row `delta_row` into row `row` of the slot.
    ///
    /// First touch creates a [`SparseRows`] slot (or, for a
    /// [`Gradients::dense_like`] buffer, a zero-filled dense matrix — the
    /// pre-sparse behaviour); accumulation cost is O(cols) either way.
    pub fn accumulate_row(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        row: usize,
        delta_row: &[f32],
    ) {
        for (g, &d) in self.row_mut(id, rows, cols, row).iter_mut().zip(delta_row) {
            *g += d;
        }
    }

    /// Accumulates `c * src_row` into row `row` of the slot: each element
    /// is multiplied, then added — the bits [`Gradients::accumulate_row`]
    /// leaves when handed the product row, without the product row.
    pub fn accumulate_row_scaled(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        row: usize,
        src_row: &[f32],
        c: f32,
    ) {
        for (g, &x) in self.row_mut(id, rows, cols, row).iter_mut().zip(src_row) {
            *g += x * c;
        }
    }

    /// Row `row` of the slot for `id`, the slot created on first touch
    /// and the row zeroed on its first.
    fn row_mut(&mut self, id: ParamId, rows: usize, cols: usize, row: usize) -> &mut [f32] {
        if self.grads[id.0].is_none() {
            let fresh = match self.cached_slot(id.0, self.force_dense) {
                Some(slot) => slot,
                None if self.force_dense => GradSlot::Dense(Matrix::zeros(rows, cols)),
                None => GradSlot::Sparse(SparseRows::new(rows, cols)),
            };
            self.grads[id.0] = Some(fresh);
        }
        match self.grads[id.0].as_mut().expect("slot just ensured") {
            GradSlot::Dense(m) => {
                debug_assert_eq!(m.shape(), (rows, cols));
                m.row_mut(row)
            }
            GradSlot::Sparse(s) => {
                debug_assert_eq!(s.shape(), (rows, cols));
                s.row_mut_or_insert(row)
            }
        }
    }

    /// Scales every accumulated gradient by `c` (e.g. averaging across
    /// data-parallel workers). Cost is O(stored elements): touched rows
    /// only on the sparse path.
    pub fn scale(&mut self, c: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale(c);
        }
    }

    /// Sums `other` into this buffer and leaves `other` cleared, its
    /// storage cached for its next step (as [`Gradients::clear`] would):
    /// matching slots are summed in place, rows in `other`'s touch order.
    /// A slot this buffer lacks is moved over whole (no clone, no
    /// zero-fill) — the one case where `other` gives its storage up. In
    /// steady state the two lanes of a step, and the workers of a
    /// data-parallel step, touch the same parameters, so that happens on
    /// a first step at most.
    pub fn merge_from(&mut self, other: &mut Gradients) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "gradient arity mismatch"
        );
        for i in 0..other.grads.len() {
            let Some(mut theirs) = other.grads[i].take() else {
                continue;
            };
            let Some(ours) = &mut self.grads[i] else {
                self.grads[i] = Some(theirs);
                continue;
            };
            match (ours, &theirs) {
                (GradSlot::Sparse(a), GradSlot::Sparse(b)) => a.merge(b),
                (GradSlot::Dense(a), GradSlot::Dense(b)) => a.axpy(1.0, b),
                (GradSlot::Dense(a), GradSlot::Sparse(b)) => b.add_to_dense(a),
                (GradSlot::Sparse(_), GradSlot::Dense(b)) => self.accumulate(ParamId(i), b),
            }
            theirs.clear();
            other.cache[i] = Some(theirs);
        }
    }

    /// Empties every slot while keeping its storage for the next step:
    /// dense slots are zero-filled in place, sparse slots drop their row
    /// maps but keep capacity. A buffer cleared and refilled each step
    /// reaches an allocation-free steady state.
    pub fn clear(&mut self) {
        for i in 0..self.grads.len() {
            if let Some(mut slot) = self.grads[i].take() {
                slot.clear();
                self.cache[i] = Some(slot);
            }
        }
    }

    /// Iterates over parameters that received gradient, exposing the slot
    /// representation (optimizers handle sparse slots row by row).
    pub fn iter_slots(&self) -> impl Iterator<Item = (ParamId, &GradSlot)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }

    /// Iterates over parameters that received **dense** gradient.
    ///
    /// # Panics
    /// Panics on the first row-sparse slot; use
    /// [`Gradients::iter_slots`] for representation-agnostic iteration.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.iter_slots().map(|(id, slot)| match slot {
            GradSlot::Dense(m) => (id, m),
            GradSlot::Sparse(_) => panic!(
                "gradient slot {} is row-sparse; use Gradients::iter_slots",
                id.0
            ),
        })
    }

    /// Global L2 norm over all accumulated gradients. Bit-identical
    /// between sparse and dense buffers holding the same values (see
    /// [`GradSlot`] internals).
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(GradSlot::sq_frobenius)
            .sum::<f32>()
            .sqrt()
    }

    /// Clips by global norm: rescales so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }

    /// True if any stored gradient element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.grads.iter().flatten().any(|g| match g {
            GradSlot::Dense(m) => m.has_non_finite(),
            GradSlot::Sparse(s) => s.has_non_finite(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn store() -> (ParamStore, ParamId, ParamId) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let a = s.register("a", 2, 2, Init::Constant(1.0), &mut rng);
        let b = s.register("b", 1, 3, Init::Zeros, &mut rng);
        (s, a, b)
    }

    #[test]
    fn register_and_lookup() {
        let (s, a, b) = store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_weights(), 7);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.get(b).shape(), (1, 3));
        assert_eq!(s.ids().count(), 2);
    }

    #[test]
    fn gradients_accumulate_and_merge() {
        let (s, a, b) = store();
        let mut g1 = Gradients::zeros_like(&s);
        g1.accumulate(a, &Matrix::full(2, 2, 1.0));
        g1.accumulate(a, &Matrix::full(2, 2, 2.0));
        assert!(g1.get(a).unwrap().approx_eq(&Matrix::full(2, 2, 3.0), 0.0));
        assert!(g1.get(b).is_none());

        let mut g2 = Gradients::zeros_like(&s);
        g2.accumulate(b, &Matrix::full(1, 3, 5.0));
        g1.merge_from(&mut g2);
        assert!(g1.get(b).unwrap().approx_eq(&Matrix::full(1, 3, 5.0), 0.0));
    }

    #[test]
    fn sparse_row_accumulation() {
        let (s, a, _) = store();
        let mut g = Gradients::zeros_like(&s);
        g.accumulate_row(a, 2, 2, 1, &[1.0, -1.0]);
        g.accumulate_row(a, 2, 2, 1, &[1.0, 0.0]);
        assert!(matches!(g.slot(a), Some(GradSlot::Sparse(_))));
        let m = g.to_dense(a).unwrap();
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[2.0, -1.0]);
    }

    #[test]
    fn dense_like_materializes_full_slots() {
        let (s, a, _) = store();
        let mut g = Gradients::dense_like(&s);
        g.accumulate_row(a, 2, 2, 1, &[1.0, -1.0]);
        assert!(matches!(g.slot(a), Some(GradSlot::Dense(_))));
        let m = g.get(a).unwrap();
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, -1.0]);
    }

    #[test]
    fn full_accumulate_promotes_sparse_to_dense() {
        let (s, a, _) = store();
        let mut g = Gradients::zeros_like(&s);
        g.accumulate_row(a, 2, 2, 0, &[1.0, 2.0]);
        g.accumulate(a, &Matrix::full(2, 2, 1.0));
        let m = g.get(a).unwrap();
        assert_eq!(m.row(0), &[2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn sparse_memory_scales_with_touched_rows() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let big = s.register("big", 10_000, 8, Init::Zeros, &mut rng);
        let mut sparse = Gradients::zeros_like(&s);
        let mut dense = Gradients::dense_like(&s);
        for row in [3usize, 77, 4096] {
            sparse.accumulate_row(big, 10_000, 8, row, &[1.0; 8]);
            dense.accumulate_row(big, 10_000, 8, row, &[1.0; 8]);
        }
        assert!(sparse.allocated_elems() <= 4 * 8);
        assert_eq!(dense.allocated_elems(), 10_000 * 8);
        assert!(sparse
            .to_dense(big)
            .unwrap()
            .approx_eq(&dense.to_dense(big).unwrap(), 0.0));
    }

    #[test]
    fn merge_from_moves_missing_slots_and_sums_shared_ones() {
        let (s, a, b) = store();
        let mut g1 = Gradients::zeros_like(&s);
        g1.accumulate_row(a, 2, 2, 0, &[1.0, 1.0]);
        let mut g2 = Gradients::zeros_like(&s);
        g2.accumulate_row(a, 2, 2, 1, &[2.0, 2.0]);
        g2.accumulate(b, &Matrix::full(1, 3, 4.0));
        g1.merge_from(&mut g2);
        let m = g1.to_dense(a).unwrap();
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[2.0, 2.0]);
        assert!(g1.get(b).unwrap().approx_eq(&Matrix::full(1, 3, 4.0), 0.0));
        // The merged-from buffer is empty and keeps the storage of the
        // slot that was summed (the moved one is gone): refilling it
        // starts from zero.
        assert!(g2.slot(a).is_none() && g2.slot(b).is_none());
        assert!(g2.allocated_elems() >= 2);
        g2.accumulate_row(a, 2, 2, 1, &[5.0, 0.0]);
        assert_eq!(g2.to_dense(a).unwrap().row(1), &[5.0, 0.0]);
    }

    #[test]
    fn accumulate_row_scaled_matches_the_product_row_bitwise() {
        let (s, a, _) = store();
        let (src, c) = ([0.3f32, -1.7], 0.37f32);
        for dense in [false, true] {
            let fresh = || match dense {
                true => Gradients::dense_like(&s),
                false => Gradients::zeros_like(&s),
            };
            let (mut fused, mut composed) = (fresh(), fresh());
            for _ in 0..3 {
                fused.accumulate_row_scaled(a, 2, 2, 1, &src, c);
                composed.accumulate_row(a, 2, 2, 1, &[src[0] * c, src[1] * c]);
            }
            let bits = |g: &Gradients| -> Vec<u32> {
                let m = g.to_dense(a).unwrap();
                m.row(1).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&fused), bits(&composed));
        }
    }

    #[test]
    fn clear_retains_storage_and_empties_values() {
        let (s, a, b) = store();
        let mut g = Gradients::zeros_like(&s);
        g.accumulate_row(a, 2, 2, 1, &[1.0, 1.0]);
        g.accumulate(b, &Matrix::full(1, 3, 2.0));
        g.clear();
        assert!(g.slot(a).is_none() && g.slot(b).is_none());
        // Refill: same touch pattern, no fresh zero-fill of table-sized
        // matrices, and values start from zero again.
        g.accumulate_row(a, 2, 2, 1, &[3.0, 0.0]);
        assert_eq!(g.to_dense(a).unwrap().row(1), &[3.0, 0.0]);
        g.accumulate(b, &Matrix::full(1, 3, 1.0));
        assert!(g.get(b).unwrap().approx_eq(&Matrix::full(1, 3, 1.0), 0.0));
    }

    #[test]
    fn global_norm_and_clipping() {
        let (s, a, _) = store();
        let mut g = Gradients::zeros_like(&s);
        g.accumulate(a, &Matrix::full(2, 2, 3.0));
        assert!((g.global_norm() - 6.0).abs() < 1e-6);
        g.clip_global_norm(3.0);
        assert!((g.global_norm() - 3.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        let before = g.get(a).unwrap().clone();
        g.clip_global_norm(100.0);
        assert!(g.get(a).unwrap().approx_eq(&before, 0.0));
    }

    #[test]
    fn sparse_and_dense_norms_agree_bitwise() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = ParamStore::new();
        let t = s.register("t", 50, 4, Init::Zeros, &mut rng);
        let mut sparse = Gradients::zeros_like(&s);
        let mut dense = Gradients::dense_like(&s);
        // Deliberately out-of-order touches.
        for (row, v) in [(31usize, 0.3f32), (2, -1.7), (47, 0.9), (2, 0.25)] {
            let delta = [v, v * 0.5, -v, v * 2.0];
            sparse.accumulate_row(t, 50, 4, row, &delta);
            dense.accumulate_row(t, 50, 4, row, &delta);
        }
        assert_eq!(
            sparse.global_norm().to_bits(),
            dense.global_norm().to_bits()
        );
        sparse.clip_global_norm(0.5);
        dense.clip_global_norm(0.5);
        assert!(sparse
            .to_dense(t)
            .unwrap()
            .approx_eq(&dense.to_dense(t).unwrap(), 0.0));
    }
}
