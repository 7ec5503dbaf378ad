//! A frozen, self-contained copy of the trained parameters for serving.
//!
//! [`ModelSnapshot`] captures exactly what Eq. 12 inference needs — the
//! user and POI embedding tables plus the interaction tower's affine
//! layers — out of the live [`st_tensor::ParamStore`], detached from the
//! training state (optimizer moments, samplers, RNG, tape pool). It is
//! cheap to share across threads, scores pairs through the tape-free
//! [`InferCtx`] executor, and its outputs are bit-identical to the tape
//! path: capture copies parameters verbatim and both executors run the
//! same arithmetic in the same order, so a hot-swapped snapshot answers
//! byte-for-byte like the model it was captured from.
//!
//! Every entry point scores the shape ranking asks for — one user
//! against many POIs — rather than unrelated pairs: each is one
//! [`InferCtx::score_run`] per run of equal user, which computes the
//! user's half of the first layer once and takes the POIs through the
//! tower in cache-resident row tiles. A call that mixes users
//! ([`ModelSnapshot::try_score_pairs_with`]) is a sequence of short runs
//! through the same code.
//!
//! Since the v2 snapshot container, the embedding tables are held as
//! [`TableStorage`] rather than owned matrices: a snapshot may gather
//! straight out of f16/int8 quantized rows or a memory-mapped checkpoint
//! ([`ModelSnapshot::from_mapped`]) with dequantization fused into the
//! gather. Live-capture snapshots keep owned f32 tables and the exact
//! bit-identity guarantee; quantized snapshots trade bounded per-row
//! error for 2–4x fewer resident bytes, policed by the top-k overlap
//! differential gates in this module's tests.

use crate::STTransRec;
use st_data::{PoiId, UserId};
use st_eval::Scorer;
use st_tensor::checkpoint::MappedParams;
use st_tensor::{
    Activation, InferCtx, Matrix, PairTower, RowSource, StorageEncoding, TableStorage,
};

/// Why a pair-scoring request was rejected before any compute ran.
///
/// Produced by the `try_*` scoring entry points, which validate request
/// shape up front so malformed input surfaces as a typed error at the
/// serving boundary (an HTTP 400) instead of a worker panic deep inside
/// the gather kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The user and POI slices differ in length.
    LengthMismatch {
        /// Number of user indices supplied.
        users: usize,
        /// Number of POI indices supplied.
        pois: usize,
    },
    /// A user index exceeds the snapshot's user table.
    UserOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of users the snapshot can score.
        limit: usize,
    },
    /// A POI index exceeds the snapshot's POI table.
    PoiOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of POIs the snapshot can score.
        limit: usize,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch { users, pois } => {
                write!(
                    f,
                    "pair slices must be parallel: {users} users vs {pois} pois"
                )
            }
            Self::UserOutOfRange { index, limit } => {
                write!(
                    f,
                    "user index {index} out of range (snapshot has {limit} users)"
                )
            }
            Self::PoiOutOfRange { index, limit } => {
                write!(
                    f,
                    "poi index {index} out of range (snapshot has {limit} pois)"
                )
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Frozen embeddings + tower weights, scored tape-free by one validated
/// entry per request shape.
///
/// Capture one with [`STTransRec::snapshot`] (or
/// `ModelSnapshot::capture`) after training or a checkpoint restore;
/// the snapshot stays valid — and unchanged — however the live model
/// trains on.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    user_table: TableStorage,
    poi_table: TableStorage,
    /// The interaction tower, packed for scoring when the snapshot is
    /// built.
    tower: PairTower,
}

impl ModelSnapshot {
    /// Copies the current parameters of `model` into a frozen snapshot
    /// (owned f32 tables — the lossless live-capture path).
    pub(crate) fn capture(model: &STTransRec) -> Self {
        let store = model.params();
        Self {
            user_table: TableStorage::F32(store.get(model.user_emb().table()).clone()),
            poi_table: TableStorage::F32(store.get(model.poi_emb().table()).clone()),
            tower: model.pair_tower(),
        }
    }

    /// Assembles a snapshot from already-validated pieces: embedding
    /// tables in any [`TableStorage`] representation plus the tower's
    /// `(weight, bias)` pairs. Shape coherence is checked here so a
    /// malformed checkpoint cannot produce a snapshot that panics later
    /// inside a gather.
    pub fn from_parts(
        user_table: TableStorage,
        poi_table: TableStorage,
        layers: Vec<(Matrix, Matrix)>,
        activation: Activation,
    ) -> std::io::Result<Self> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        if layers.is_empty() {
            return Err(bad("snapshot needs at least one tower layer".into()));
        }
        if poi_table.cols() == 0 {
            return Err(bad("poi table has no columns".into()));
        }
        let mut width = user_table.cols() + poi_table.cols();
        for (i, (w, b)) in layers.iter().enumerate() {
            if w.rows() != width {
                return Err(bad(format!(
                    "tower layer {i}: weight expects {} inputs, got {width}",
                    w.rows()
                )));
            }
            if b.rows() != 1 || b.cols() != w.cols() {
                return Err(bad(format!(
                    "tower layer {i}: bias shape {:?} does not match width {}",
                    b.shape(),
                    w.cols()
                )));
            }
            width = w.cols();
        }
        if width != 1 {
            return Err(bad(format!(
                "tower must end in a single logit, ends in {width}"
            )));
        }
        let tower = PairTower::new(
            user_table.cols(),
            layers.iter().map(|(w, b)| (w, b)),
            activation,
        );
        Ok(Self {
            user_table,
            poi_table,
            tower,
        })
    }

    /// Reconstructs a serving snapshot straight from a mapped (or
    /// owned-parse) v2 checkpoint — no [`STTransRec`], no training
    /// state, no table decode. Embedding tables stay in whatever
    /// representation the checkpoint stores (quantized rows gather
    /// fused-dequantized; mapped f32 gathers zero-copy); the small dense
    /// tower layers are decoded to owned matrices. The tower activation
    /// is ReLU, the only activation the model constructor emits.
    pub fn from_mapped(params: &MappedParams) -> std::io::Result<Self> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let user_table = params
            .get("user_emb")
            .ok_or_else(|| bad("checkpoint has no user_emb table"))?
            .clone();
        let poi_table = params
            .get("poi_emb")
            .ok_or_else(|| bad("checkpoint has no poi_emb table"))?
            .clone();
        let mut layers = Vec::new();
        for i in 0.. {
            let (Some(w), Some(b)) = (
                params.matrix(&format!("tower.{i}.w")),
                params.matrix(&format!("tower.{i}.b")),
            ) else {
                break;
            };
            layers.push((w, b));
        }
        Self::from_parts(user_table, poi_table, layers, Activation::Relu)
    }

    /// Re-encodes the embedding tables into `encoding` (the tower stays
    /// f32), e.g. to serve int8 from a snapshot captured live.
    pub fn quantized(&self, encoding: StorageEncoding) -> Self {
        let requant = |t: &TableStorage| TableStorage::encode(&t.to_matrix(), encoding);
        Self {
            user_table: requant(&self.user_table),
            poi_table: requant(&self.poi_table),
            tower: self.tower.clone(),
        }
    }

    /// The storage encoding of the embedding tables.
    pub fn encoding(&self) -> StorageEncoding {
        self.poi_table.encoding()
    }

    /// Bytes of embedding-table storage this snapshot holds (or maps).
    pub fn table_bytes(&self) -> usize {
        self.user_table.stored_bytes() + self.poi_table.stored_bytes()
    }

    /// True when the tables are served out of a memory-mapped
    /// checkpoint rather than owned buffers.
    pub fn is_mapped(&self) -> bool {
        self.user_table.is_mapped() || self.poi_table.is_mapped()
    }

    /// Number of users the snapshot can score.
    pub fn num_users(&self) -> usize {
        self.user_table.rows()
    }

    /// Number of POIs the snapshot can score.
    pub fn num_pois(&self) -> usize {
        self.poi_table.rows()
    }

    /// The frozen city-independent POI embedding table (one row per
    /// POI) in its storage representation — the vectors the IVF coarse
    /// index quantizes, gathered via [`st_tensor::RowSource`] so index
    /// build works unchanged over quantized or mapped tables.
    pub fn poi_table(&self) -> &TableStorage {
        &self.poi_table
    }

    /// Rejects ids the tables do not hold, before any compute runs.
    fn check_rows(&self, users: &[UserId], pois: &[PoiId]) -> Result<(), PredictError> {
        if let Some(u) = users.iter().find(|u| u.idx() >= self.num_users()) {
            return Err(PredictError::UserOutOfRange {
                index: u.idx(),
                limit: self.num_users(),
            });
        }
        if let Some(p) = pois.iter().find(|p| p.idx() >= self.num_pois()) {
            return Err(PredictError::PoiOutOfRange {
                index: p.idx(),
                limit: self.num_pois(),
            });
        }
        Ok(())
    }

    /// Predicted interaction probabilities for `(users[i], pois[i])`
    /// pairs — Eq. 12 over the frozen parameters, one
    /// [`InferCtx::score_run`] per maximal run of one user. Malformed
    /// input (mismatched slice lengths, out-of-range ids) returns a
    /// [`PredictError`] before any compute runs, instead of panicking a
    /// worker thread.
    pub fn try_score_pairs_with(
        &self,
        ctx: &mut InferCtx,
        users: &[UserId],
        pois: &[PoiId],
    ) -> Result<Vec<f32>, PredictError> {
        if users.len() != pois.len() {
            return Err(PredictError::LengthMismatch {
                users: users.len(),
                pois: pois.len(),
            });
        }
        self.check_rows(users, pois)?;
        let mut scores = Vec::with_capacity(pois.len());
        let mut start = 0;
        for run in users.chunk_by(|a, b| a == b) {
            let rows = pois[start..start + run.len()].iter().map(|p| p.idx());
            ctx.score_run(
                &self.tower,
                &self.user_table,
                run[0].idx(),
                &self.poi_table,
                rows,
                &mut scores,
            );
            start += run.len();
        }
        Ok(scores)
    }

    /// One user against many POIs without spelling the user out per
    /// pair — a request as the serve batcher holds it. Validates like
    /// [`ModelSnapshot::try_score_pairs_with`] and scores the same bits.
    pub fn try_score_user_with(
        &self,
        ctx: &mut InferCtx,
        user: UserId,
        pois: &[PoiId],
    ) -> Result<Vec<f32>, PredictError> {
        self.check_user(user, pois)?;
        let mut scores = Vec::with_capacity(pois.len());
        self.score_user_into(ctx, user, pois, &mut scores);
        Ok(scores)
    }

    /// The validation [`ModelSnapshot::try_score_user_with`] runs before
    /// any compute: `user` and every one of `pois` must be rows of this
    /// snapshot.
    pub fn check_user(&self, user: UserId, pois: &[PoiId]) -> Result<(), PredictError> {
        self.check_rows(&[user], pois)
    }

    /// Appends `user`'s scores against `pois` to `out`, unvalidated: the
    /// arithmetic of [`ModelSnapshot::try_score_user_with`] for a caller
    /// that checked the whole request with [`ModelSnapshot::check_user`]
    /// and scores it one row range at a time. A row's bits do not depend
    /// on the range it is scored in.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn score_user_into(
        &self,
        ctx: &mut InferCtx,
        user: UserId,
        pois: &[PoiId],
        out: &mut Vec<f32>,
    ) {
        let rows = pois.iter().map(|p| p.idx());
        ctx.score_run(
            &self.tower,
            &self.user_table,
            user.idx(),
            &self.poi_table,
            rows,
            out,
        );
    }

    /// User row `user_row` against `items[rows]`: a single run.
    fn score_run(
        &self,
        ctx: &mut InferCtx,
        user_row: usize,
        items: &(impl RowSource + ?Sized),
        rows: impl ExactSizeIterator<Item = usize>,
    ) -> Vec<f32> {
        let mut scores = Vec::with_capacity(rows.len());
        ctx.score_run(
            &self.tower,
            &self.user_table,
            user_row,
            items,
            rows,
            &mut scores,
        );
        scores
    }

    /// Scores user row `user_row` against every row of `items`, an
    /// arbitrary matrix in POI-embedding space (IVF centroids, say),
    /// through the same tower as real POIs. This is how probe selection
    /// ranks coarse-index lists with the *re-ranker's own* scoring
    /// function rather than a separate metric.
    ///
    /// # Panics
    /// Panics if `user_row` is out of range or `items` has the wrong
    /// width.
    pub fn score_rows_with(&self, ctx: &mut InferCtx, user_row: usize, items: &Matrix) -> Vec<f32> {
        self.score_run(ctx, user_row, items, 0..items.rows())
    }
}

impl Scorer for ModelSnapshot {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        let rows = pois.iter().map(|p| p.idx());
        self.score_run(&mut InferCtx::new(), user.idx(), &self.poi_table, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, Variant};
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit, Dataset};

    fn setup() -> (Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    #[test]
    fn capture_scores_bitwise_like_the_live_model_across_variants() {
        let (d, split) = setup();
        for variant in [Variant::Full, Variant::NoMmd, Variant::NoText] {
            let mut m =
                STTransRec::new(&d, &split, ModelConfig::test_small().with_variant(variant));
            m.train_epoch(&d);
            let snap = m.snapshot();
            let pois = d.pois_in_city(split.target_city);
            let users = vec![UserId(1); pois.len()];
            assert_eq!(
                snap.try_score_pairs_with(&mut InferCtx::new(), &users, pois)
                    .unwrap(),
                m.predict_tape(&users, pois),
                "snapshot diverged from the tape oracle for {variant:?}"
            );
        }
    }

    #[test]
    fn snapshot_is_frozen_while_the_model_trains_on() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let snap = m.snapshot();
        let pois = d.pois_in_city(split.target_city);
        let before = snap.score_batch(UserId(0), pois);
        m.train_epoch(&d); // live parameters move
        assert_eq!(snap.score_batch(UserId(0), pois), before);
        assert_ne!(m.score_batch(UserId(0), pois), before);
    }

    #[test]
    fn scorer_round_trip_matches_model_scorer() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let snap = m.snapshot();
        let pois = d.pois_in_city(split.target_city);
        assert_eq!(
            snap.score_batch(UserId(2), pois),
            m.score_batch(UserId(2), pois)
        );
        assert_eq!(
            (snap.num_users(), snap.num_pois()),
            (d.num_users(), d.num_pois())
        );
    }

    #[test]
    fn evaluation_through_the_snapshot_matches_the_live_model() {
        use st_eval::{evaluate, EvalConfig};
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let snap = m.snapshot();
        let cfg = EvalConfig::default();
        assert_eq!(
            evaluate(&snap, &d, &split, &cfg),
            evaluate(&m, &d, &split, &cfg)
        );
    }

    #[test]
    fn pair_entry_rejects_malformed_input_and_matches_one_user_scoring() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let snap = m.snapshot();
        let mut ctx = InferCtx::new();
        // Well-formed mixed pairs: each the one-user score of its pair.
        let users = [UserId(0), UserId(1), UserId(2)];
        let pois = [PoiId(3), PoiId(4), PoiId(5)];
        let one_by_one: Vec<f32> = users
            .iter()
            .zip(&pois)
            .map(|(&u, &p)| snap.score_batch(u, &[p])[0])
            .collect();
        assert_eq!(
            snap.try_score_pairs_with(&mut ctx, &users, &pois).unwrap(),
            one_by_one
        );
        // Mismatched lengths.
        assert_eq!(
            snap.try_score_pairs_with(&mut ctx, &users, &pois[..2]),
            Err(PredictError::LengthMismatch { users: 3, pois: 2 })
        );
        assert_eq!(
            snap.try_score_pairs_with(&mut ctx, &[UserId(0)], &[PoiId(0), PoiId(1)]),
            Err(PredictError::LengthMismatch { users: 1, pois: 2 })
        );
        // Out-of-range ids, through both validating entries.
        let nu = snap.num_users();
        let np = snap.num_pois();
        let user_out = Err(PredictError::UserOutOfRange {
            index: nu,
            limit: nu,
        });
        let poi_out = Err(PredictError::PoiOutOfRange {
            index: np,
            limit: np,
        });
        let (bad_user, bad_poi) = (UserId(nu as u32), PoiId(np as u32));
        assert_eq!(
            snap.try_score_pairs_with(&mut ctx, &[bad_user], &[PoiId(0)]),
            user_out
        );
        assert_eq!(
            snap.try_score_pairs_with(&mut ctx, &[UserId(0)], &[bad_poi]),
            poi_out
        );
        assert_eq!(
            snap.try_score_user_with(&mut ctx, bad_user, &[PoiId(0)]),
            user_out
        );
        assert_eq!(
            snap.try_score_user_with(&mut ctx, UserId(0), &[bad_poi]),
            poi_out
        );
    }

    #[test]
    fn score_rows_against_real_poi_rows_matches_one_user_scoring() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let snap = m.snapshot();
        let mut ctx = InferCtx::new();
        let n = snap.num_pois().min(7);
        let pois: Vec<PoiId> = (0..n as u32).map(PoiId).collect();
        // Scoring the full POI table as an "arbitrary matrix" must be
        // bit-identical to the indexed path over the same rows.
        let via_rows = {
            let table = snap.poi_table().to_matrix();
            let sub = st_tensor::Matrix::from_vec(
                n,
                table.cols(),
                pois.iter()
                    .flat_map(|p| table.row(p.idx()).to_vec())
                    .collect(),
            );
            snap.score_rows_with(&mut ctx, 2, &sub)
        };
        assert_eq!(
            via_rows,
            snap.try_score_user_with(&mut ctx, UserId(2), &pois)
                .unwrap()
        );
    }

    #[test]
    fn scratch_reuse_reaches_zero_allocation_steady_state() {
        let (d, split) = setup();
        let m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let snap = m.snapshot();
        let pois = d.pois_in_city(split.target_city);
        let users = vec![UserId(0); pois.len()];
        let mut ctx = InferCtx::new();
        for _ in 0..3 {
            snap.try_score_pairs_with(&mut ctx, &users, pois).unwrap();
        }
        let settled = ctx.grow_events();
        for _ in 0..10 {
            snap.try_score_pairs_with(&mut ctx, &users, pois).unwrap();
        }
        assert_eq!(ctx.grow_events(), settled, "scoring kept reallocating");
    }
}
