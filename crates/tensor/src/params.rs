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

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index (stable for the lifetime of the store).
    pub(crate) fn index(self) -> usize {
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
    pub(crate) fn register_value(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
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

    /// Immutable access to a parameter's current value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's current value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The name a parameter was registered under.
    pub(crate) fn name(&self, id: ParamId) -> &str {
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

/// [`SparseRows`]' index entry for a row with no slot.
const UNTOUCHED: u32 = u32::MAX;

/// A row-sparse gradient: only the touched rows of a `rows x cols`
/// parameter are stored, packed contiguously in touch order, with a
/// row → slot index for O(1) lookup.
///
/// Memory and iteration cost are O(touched rows x cols) regardless of the
/// full table height, which is what makes embedding-scale training
/// O(batch) per step instead of O(table).
#[derive(Debug, Clone, Default)]
pub struct SparseRows {
    rows: usize,
    cols: usize,
    /// Table row -> packed slot, [`UNTOUCHED`] where no slot exists: a
    /// plain array read per touch, no hashing. Sized to the table on the
    /// first touch and kept; [`SparseRows::clear`] resets only the
    /// entries `touched` names.
    index: Vec<u32>,
    /// packed slot -> table row (touch order).
    touched: Vec<usize>,
    /// Packed row data, `touched.len() * cols` long.
    data: Vec<f32>,
}

impl SparseRows {
    /// An empty row-sparse gradient for a `rows x cols` parameter.
    ///
    /// # Panics
    /// Panics if the table has `u32::MAX` rows or more (slots are `u32`).
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows < UNTOUCHED as usize,
            "{rows} rows do not fit a u32 slot"
        );
        Self {
            rows,
            cols,
            index: Vec::new(),
            touched: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Full parameter shape this gradient is sparse over.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The packed data for touched row `slot` (slots are in touch order).
    pub(crate) fn packed_row(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.cols..(slot + 1) * self.cols]
    }

    /// Allocated gradient storage in scalar elements.
    pub(crate) fn allocated_elems(&self) -> usize {
        self.data.capacity()
    }

    /// The packed row for table row `row`, inserted (zeroed) on first touch.
    pub(crate) fn row_mut_or_insert(&mut self, row: usize) -> &mut [f32] {
        debug_assert!(row < self.rows, "row {row} out of {}", self.rows);
        let cols = self.cols;
        if self.index.is_empty() {
            self.index.resize(self.rows, UNTOUCHED);
        }
        let slot = match self.index[row] {
            UNTOUCHED => {
                let s = self.touched.len();
                // `s < rows < UNTOUCHED` (checked in `new`): the cast is exact.
                self.index[row] = s as u32;
                self.touched.push(row);
                self.data.resize((s + 1) * cols, 0.0);
                s
            }
            s => s as usize,
        };
        &mut self.data[slot * cols..(slot + 1) * cols]
    }

    /// Accumulates `delta_row` into table row `row`.
    pub(crate) fn add_row(&mut self, row: usize, delta_row: &[f32]) {
        for (g, &d) in self.row_mut_or_insert(row).iter_mut().zip(delta_row) {
            *g += d;
        }
    }

    /// Iterates `(table_row, packed_row)` in touch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.touched
            .iter()
            .enumerate()
            .map(|(slot, &row)| (row, self.packed_row(slot)))
    }

    /// Scales every stored element by `c`.
    pub(crate) fn scale(&mut self, c: f32) {
        for x in &mut self.data {
            *x *= c;
        }
    }

    /// Materializes the equivalent dense gradient matrix.
    pub(crate) fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (row, packed) in self.iter() {
            out.row_mut(row).copy_from_slice(packed);
        }
        out
    }

    /// Adds every stored row into the matching row of a dense matrix.
    pub(crate) fn add_to_dense(&self, dense: &mut Matrix) {
        debug_assert_eq!(dense.shape(), (self.rows, self.cols));
        for (row, packed) in self.iter() {
            for (g, &d) in dense.row_mut(row).iter_mut().zip(packed) {
                *g += d;
            }
        }
    }

    /// Merges another row-sparse gradient into this one (summing).
    pub(crate) fn merge(&mut self, other: &SparseRows) {
        debug_assert_eq!(self.shape(), other.shape());
        for (row, packed) in other.iter() {
            self.add_row(row, packed);
        }
    }

    /// Empties the gradient while keeping the allocated storage, so a
    /// buffer reused across training steps stops allocating once it has
    /// seen its steady-state touch pattern.
    pub(crate) fn clear(&mut self) {
        for &row in &self.touched {
            self.index[row] = UNTOUCHED;
        }
        self.touched.clear();
        self.data.clear();
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
    pub(crate) fn allocated_elems(&self) -> usize {
        match self {
            GradSlot::Dense(m) => m.len(),
            GradSlot::Sparse(s) => s.allocated_elems(),
        }
    }

    /// Materializes the slot as a dense matrix.
    pub(crate) fn to_dense(&self) -> Matrix {
        match self {
            GradSlot::Dense(m) => m.clone(),
            GradSlot::Sparse(s) => s.to_dense(),
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
    pub(crate) fn accumulate_row_scaled(
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

    /// Accumulates `src_row * mask_row`, elementwise, into row `row` of
    /// the slot: the bits [`Gradients::accumulate_row`] leaves when
    /// handed the product row, without the product row.
    pub(crate) fn accumulate_row_masked(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        row: usize,
        src_row: &[f32],
        mask_row: &[f32],
    ) {
        let dst = self.row_mut(id, rows, cols, row);
        for ((g, &x), &m) in dst.iter_mut().zip(src_row).zip(mask_row) {
            *g += x * m;
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
    pub(crate) fn iter_slots(&self) -> impl Iterator<Item = (ParamId, &GradSlot)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
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

    /// [`SparseRows`] as it was with a `HashMap` row index: the reference
    /// the array index must reproduce slot for slot.
    #[derive(Default)]
    struct HashRows {
        index: std::collections::HashMap<usize, usize>,
        touched: Vec<usize>,
        data: Vec<f32>,
    }

    impl HashRows {
        fn row_mut_or_insert(&mut self, row: usize) -> &mut [f32] {
            let slot = match self.index.get(&row) {
                Some(&s) => s,
                None => {
                    let s = self.touched.len();
                    self.index.insert(row, s);
                    self.touched.push(row);
                    self.data.resize((s + 1) * S_COLS, 0.0);
                    s
                }
            };
            &mut self.data[slot * S_COLS..(slot + 1) * S_COLS]
        }

        fn add_row(&mut self, row: usize, delta: &[f32]) {
            for (g, &d) in self.row_mut_or_insert(row).iter_mut().zip(delta) {
                *g += d;
            }
        }

        fn merge(&mut self, other: &HashRows) {
            for (slot, &row) in other.touched.iter().enumerate() {
                self.add_row(row, &other.data[slot * S_COLS..(slot + 1) * S_COLS]);
            }
        }

        fn clear(&mut self) {
            self.index.clear();
            self.touched.clear();
            self.data.clear();
        }
    }

    const S_ROWS: usize = 23;
    const S_COLS: usize = 3;

    type Touches = Vec<(usize, Vec<f32>)>;

    fn filled(touches: &Touches) -> (SparseRows, HashRows) {
        let (mut sparse, mut reference) = (SparseRows::new(S_ROWS, S_COLS), HashRows::default());
        for (row, delta) in touches {
            sparse.add_row(*row, delta);
            reference.add_row(*row, delta);
        }
        (sparse, reference)
    }

    fn touches() -> impl proptest::Strategy<Value = Touches> {
        use proptest::collection::vec;
        vec((0..S_ROWS, vec(-3.0f32..3.0, S_COLS)), 0..6)
    }

    proptest::proptest! {
        /// Random touch / accumulate / merge / clear sequences: the same
        /// slots in the same touch order, the same bits in every slot,
        /// and every row's index entry where the reference map has it.
        #[test]
        fn sparse_rows_match_the_hash_map_reference(
            script in proptest::collection::vec((0u8..8, 0..S_ROWS, touches()), 1..40),
        ) {
            let (mut sparse, mut reference) = (SparseRows::new(S_ROWS, S_COLS), HashRows::default());
            for (op, row, others) in &script {
                match op {
                    0..=3 => {
                        let delta = [*row as f32 * 0.37 - 2.1, 0.5, -1.25];
                        sparse.add_row(*row, &delta);
                        reference.add_row(*row, &delta);
                    }
                    4 => {
                        sparse.row_mut_or_insert(*row);
                        reference.row_mut_or_insert(*row);
                    }
                    5 | 6 => {
                        let (other, other_reference) = filled(others);
                        sparse.merge(&other);
                        reference.merge(&other_reference);
                    }
                    _ => {
                        sparse.clear();
                        reference.clear();
                    }
                }
                proptest::prop_assert_eq!(&sparse.touched, &reference.touched);
                let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&sparse.data), bits(&reference.data));
                for r in 0..S_ROWS {
                    let slot = reference.index.get(&r).map_or(UNTOUCHED, |&s| s as u32);
                    proptest::prop_assert!(
                        sparse.index.get(r).map_or(UNTOUCHED, |&s| s) == slot,
                        "row {r}: slot {:?}, reference {slot}", sparse.index.get(r)
                    );
                }
            }
        }
    }
}
