//! Arc-swapped model snapshots and checkpoint hot-reload.
//!
//! The serving model lives behind a [`ModelCell`]: readers clone an
//! `Arc<ServingGeneration>` under a briefly held read lock and then score
//! against an immutable model with no lock held, so a reload never
//! blocks or drops in-flight requests — batches that grabbed the old
//! snapshot finish on it, later batches see the new one. Each swap bumps
//! a monotone `epoch`, which the result cache folds into its key: after
//! a reload every cached entry is unreachable immediately (invalidation
//! is free) and LRU pressure reclaims the slots.
//!
//! [`Reloader`] memory-maps the checkpoint container on disk into a
//! [`ModelSnapshot`] directly — no training model is built, and table
//! bytes are paged in lazily as they are gathered. That is the one way
//! parameters enter a server, at start-up and on every reload. A
//! corrupt, truncated or wrong-version checkpoint surfaces as
//! `io::Error` *before* any swap happens, so the old model keeps
//! serving. Because the serving generation maps the file, a checkpoint
//! is only ever replaced by rename, never rewritten in place.

use crate::batcher::recover;
use st_data::{CrossingCitySplit, Dataset};
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, ModelSnapshot, RetrievalConfig, RetrievalIndex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable generation of the serving model.
pub struct ServingGeneration {
    /// The frozen parameters all of this generation's scoring runs
    /// through: the tape-free [`ModelSnapshot`] mapped straight from the
    /// checkpoint, so the hot path never touches the autodiff tape.
    pub frozen: ModelSnapshot,
    /// Monotone generation number, starting at 1.
    pub(crate) epoch: u64,
    /// This generation's two-stage retrieval index, built from the
    /// frozen embeddings at capture time. `None` when the cell was
    /// created without retrieval — every query then falls back to the
    /// exact sharded scan.
    pub retrieval: Option<Arc<RetrievalIndex>>,
    /// Bytes backing this generation's parameters: the container size
    /// when loaded from a checkpoint, else the resident table bytes of
    /// an in-memory snapshot. Exported as `st_serve_snapshot_bytes`.
    pub(crate) snapshot_bytes: u64,
    /// True when the tables are served zero-copy out of a mapped file.
    pub(crate) mapped: bool,
}

impl ServingGeneration {
    /// The embedding tables' storage encoding (f32 / f16 / int8),
    /// exported as the `st_serve_snapshot_format` gauge label.
    pub(crate) fn format(&self) -> StorageEncoding {
        self.frozen.encoding()
    }
}

/// What a verified reload actually put into service. Carries the
/// snapshot gauges alongside the epoch so callers that gate on a reload
/// — the `/admin/reload` endpoint, an online publisher, the router's
/// rolling-rollout driver — can assert the *expected format* landed,
/// not just that some epoch bump happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Serving epoch after the swap.
    pub epoch: u64,
    /// Storage encoding of the generation now serving (f32 / f16 / int8).
    pub format: StorageEncoding,
    /// Bytes backing the new generation (the container's size).
    pub(crate) snapshot_bytes: u64,
    /// True when the new generation serves zero-copy out of a mapped file.
    pub(crate) mapped: bool,
}

impl ReloadOutcome {
    /// Renders the outcome as the `/admin/reload` success body.
    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"reloaded\":true,\"model_epoch\":{},\"snapshot_format\":\"{}\",\"snapshot_bytes\":{},\"snapshot_mapped\":{}}}",
            self.epoch, self.format, self.snapshot_bytes, self.mapped
        )
    }

    /// Reads an outcome back out of the body `ReloadOutcome::to_json`
    /// wrote; `None` when any field is missing or unparsable.
    pub fn parse(body: &str) -> Option<Self> {
        // The value right after `"key":`, up to the next `,` or `}`.
        let field = |key: &str| {
            let rest = body.split_once(&format!("\"{key}\":"))?.1;
            Some(rest[..rest.find([',', '}'])?].trim_matches('"'))
        };
        Some(Self {
            epoch: field("model_epoch")?.parse().ok()?,
            format: field("snapshot_format")?.parse().ok()?,
            snapshot_bytes: field("snapshot_bytes")?.parse().ok()?,
            mapped: field("snapshot_mapped")?.parse().ok()?,
        })
    }
}

/// The atomically swappable current snapshot.
pub struct ModelCell {
    /// One `Arc` pointer, replaced by a single assignment, so it is
    /// consistent wherever a holder unwinds: a poisoned lock is
    /// [`recover`]ed, not propagated to every reader.
    current: RwLock<Arc<ServingGeneration>>,
    epoch: AtomicU64,
    /// Dataset + knobs needed to rebuild the retrieval index for each
    /// new generation; `None` disables retrieval for the cell's life.
    retrieval_ctx: Option<(Arc<Dataset>, RetrievalConfig)>,
}

impl ModelCell {
    /// Wraps `frozen` as generation `epoch`, building its retrieval
    /// index when the cell has one. `snapshot_bytes` overrides the byte
    /// gauge (the container file size for mapped loads); `None` reports
    /// the frozen tables' own storage bytes.
    fn wrap(
        frozen: ModelSnapshot,
        epoch: u64,
        snapshot_bytes: Option<u64>,
        retrieval_ctx: &Option<(Arc<Dataset>, RetrievalConfig)>,
    ) -> ServingGeneration {
        let retrieval = retrieval_ctx
            .as_ref()
            .map(|(d, cfg)| Arc::new(RetrievalIndex::build(&frozen, d, cfg.clone())));
        ServingGeneration {
            snapshot_bytes: snapshot_bytes.unwrap_or(frozen.table_bytes() as u64),
            mapped: frozen.is_mapped(),
            frozen,
            epoch,
            retrieval,
        }
    }

    /// Wraps a frozen model as epoch 1. `snapshot_bytes` overrides the
    /// byte gauge as in [`ModelCell::swap_frozen`]; `retrieval` enables
    /// index builds for this and every future generation (`None`: every
    /// query scans the full catalog).
    pub(crate) fn from_frozen(
        frozen: ModelSnapshot,
        snapshot_bytes: Option<u64>,
        retrieval: Option<(Arc<Dataset>, RetrievalConfig)>,
    ) -> Self {
        Self {
            current: RwLock::new(Arc::new(Self::wrap(frozen, 1, snapshot_bytes, &retrieval))),
            epoch: AtomicU64::new(1),
            retrieval_ctx: retrieval,
        }
    }

    /// The current snapshot. Cheap: one read-lock acquisition and an
    /// `Arc` clone; scoring happens after the lock is released.
    pub fn current(&self) -> Arc<ServingGeneration> {
        recover(self.current.read()).clone()
    }

    /// Current epoch without taking the snapshot lock.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically publishes a frozen generation, returning the new
    /// epoch; in-flight holders of the old `Arc` keep scoring against
    /// the old weights. `snapshot_bytes` overrides the reported byte
    /// gauge (the container file size for mapped loads); `None` reports
    /// the frozen tables' own storage bytes. The new generation's
    /// retrieval index (when the cell has one) is built *before* the
    /// write lock is taken, so readers are never blocked behind an
    /// index build.
    pub(crate) fn swap_frozen(&self, frozen: ModelSnapshot, snapshot_bytes: Option<u64>) -> u64 {
        let mut next = Self::wrap(frozen, 0, snapshot_bytes, &self.retrieval_ctx);
        let mut guard = recover(self.current.write());
        next.epoch = guard.epoch + 1;
        let epoch = next.epoch;
        *guard = Arc::new(next);
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

/// Maps the checkpoint file into frozen serving models on demand.
pub struct Reloader {
    dataset: Arc<Dataset>,
    path: PathBuf,
}

impl Reloader {
    /// Creates a reloader for `path`, serving `dataset`.
    // ROADMAP 7(d): `_split` and `_config` are unread, kept for benchmark/.
    pub fn new(
        dataset: Arc<Dataset>,
        _split: Arc<CrossingCitySplit>,
        _config: ModelConfig,
        path: impl Into<PathBuf>,
    ) -> Self {
        Self {
            dataset,
            path: path.into(),
        }
    }

    /// Loads the checkpoint as a frozen serving model, returning it with
    /// the container's byte count for the snapshot gauge. The file is
    /// memory-mapped and becomes a [`ModelSnapshot`] directly —
    /// O(header) validation, no training state, tables paged in on
    /// demand. A bad checkpoint (or one for another dataset) errors out
    /// before anything is swapped.
    pub fn load_frozen(&self) -> std::io::Result<(ModelSnapshot, u64)> {
        let mapped = st_tensor::map_params(&self.path)?;
        let frozen = ModelSnapshot::from_mapped(&mapped)?;
        // The checkpoint must describe the dataset this server was
        // launched with; a mismatched table would panic on the first
        // out-of-range gather (or silently truncate the catalog).
        if frozen.num_users() != self.dataset.num_users()
            || frozen.num_pois() != self.dataset.num_pois()
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "checkpoint tables ({} users, {} pois) do not match the dataset ({}, {})",
                    frozen.num_users(),
                    frozen.num_pois(),
                    self.dataset.num_users(),
                    self.dataset.num_pois()
                ),
            ));
        }
        Ok((frozen, mapped.file_bytes() as u64))
    }

    /// Loads and swaps in one step, returning the verified outcome: the
    /// new epoch plus the snapshot-format gauges of what is now serving.
    pub(crate) fn reload_into(&self, cell: &ModelCell) -> std::io::Result<ReloadOutcome> {
        let (frozen, bytes) = self.load_frozen()?;
        let format = frozen.encoding();
        let mapped = frozen.is_mapped();
        let epoch = cell.swap_frozen(frozen, Some(bytes));
        Ok(ReloadOutcome {
            epoch,
            format,
            snapshot_bytes: bytes,
            mapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CityId;
    use st_data::UserId;
    use st_eval::Scorer;
    use st_transrec_core::STTransRec;

    fn setup() -> (Arc<Dataset>, Arc<CrossingCitySplit>) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (Arc::new(d), Arc::new(split))
    }

    /// An untrained model's frozen tables.
    fn fresh(d: &Dataset, s: &CrossingCitySplit) -> ModelSnapshot {
        STTransRec::new(d, s, ModelConfig::test_small()).snapshot()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Puts `bytes` at `path` the way a publish does — temp file, then
    /// rename — because a generation may be mapping the file there now,
    /// and writing in place would truncate the inode under it.
    fn publish(path: &std::path::Path, bytes: &[u8]) {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).unwrap();
        std::fs::rename(&tmp, path).unwrap();
    }

    #[test]
    fn reload_outcome_reads_back_what_it_writes() {
        let outcome = ReloadOutcome {
            epoch: 42,
            format: StorageEncoding::F16,
            snapshot_bytes: 4096,
            mapped: true,
        };
        let json = outcome.to_json();
        assert_eq!(
            json,
            "{\"reloaded\":true,\"model_epoch\":42,\"snapshot_format\":\"f16\",\
             \"snapshot_bytes\":4096,\"snapshot_mapped\":true}"
        );
        assert_eq!(ReloadOutcome::parse(&json), Some(outcome));
        assert_eq!(ReloadOutcome::parse("{}"), None);
        assert_eq!(
            ReloadOutcome::parse("{\"reloaded\":true,\"model_epoch\":42}"),
            None,
            "every field is required"
        );
        assert_eq!(ReloadOutcome::parse(&json.replace("f16", "f64")), None);
    }

    #[test]
    fn swap_bumps_epoch_and_old_arcs_survive() {
        let (d, s) = setup();
        let cell = ModelCell::from_frozen(fresh(&d, &s), None, None);
        assert_eq!(cell.epoch(), 1);
        let old = cell.current();
        let epoch = cell.swap_frozen(fresh(&d, &s), None);
        assert_eq!(epoch, 2);
        assert_eq!(cell.epoch(), 2);
        assert_eq!(old.epoch, 1);
        // The old snapshot still scores after the swap.
        let pois = d.pois_in_city(s.target_city);
        let _ = old.frozen.score_batch(UserId(0), pois);
    }

    #[test]
    fn frozen_snapshot_scores_bitwise_like_its_model() {
        let (d, s) = setup();
        let mut model = STTransRec::new(&d, &s, ModelConfig::test_small());
        model.train_epoch(&d);
        let pois = d.pois_in_city(s.target_city);
        let want = model.score_batch(UserId(0), pois);
        let cell = ModelCell::from_frozen(model.snapshot(), None, None);
        let snap = cell.current();
        assert_eq!(snap.frozen.score_batch(UserId(0), pois), want);
        assert_eq!(snap.format(), st_tensor::StorageEncoding::F32);
        assert!(!snap.mapped);
        assert!(snap.snapshot_bytes > 0);
    }

    #[test]
    fn a_cell_with_retrieval_builds_an_index_per_generation() {
        let (d, s) = setup();
        let cfg = RetrievalConfig {
            min_catalog: 1,
            ..RetrievalConfig::default()
        };
        let cell = ModelCell::from_frozen(fresh(&d, &s), None, Some((d.clone(), cfg)));
        let first = cell.current();
        let idx1 = first.retrieval.as_ref().expect("index built at epoch 1");
        assert!(idx1.covers(s.target_city));
        cell.swap_frozen(fresh(&d, &s), None);
        let second = cell.current();
        let idx2 = second.retrieval.as_ref().expect("index rebuilt on swap");
        assert!(!Arc::ptr_eq(idx1, idx2), "swap must rebuild the index");
        // Cells created without retrieval stay index-free.
        let plain = ModelCell::from_frozen(fresh(&d, &s), None, None);
        assert!(plain.current().retrieval.is_none());
    }

    /// The images `crates/core/tests/checkpoint_fuzz.rs` feeds the owned
    /// loader, fed to the mapped one the server uses — except flips in
    /// tensor data, which the mapped path leaves to the publish protocol
    /// (it validates header + index only, by design). Each arrives by
    /// rename over the file generation 2 is mapping.
    #[test]
    fn reloader_rejects_mangled_checkpoints_without_swapping() {
        let (d, s) = setup();
        let dir = scratch_dir("mangled");
        let path = dir.join("ckpt.bin");

        let mut trained = STTransRec::new(&d, &s, ModelConfig::test_small());
        trained.train_epoch(&d);
        let mut good = Vec::new();
        trained.save(&mut good).unwrap();
        publish(&path, &good);

        let cell = ModelCell::from_frozen(fresh(&d, &s), None, None);
        let reloader = Reloader::new(d.clone(), s.clone(), ModelConfig::test_small(), &path);
        let outcome = reloader.reload_into(&cell).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert!(outcome.mapped);
        let pois = d.pois_in_city(s.target_city);
        let want = trained.score_batch(UserId(0), pois);

        let index_end = 32 + u64::from_le_bytes(good[16..24].try_into().unwrap()) as usize;
        let mut images: Vec<(String, Vec<u8>)> = (0..64)
            .chain((64..good.len()).step_by(97))
            .map(|cut| (format!("cut at {cut}"), good[..cut].to_vec()))
            .collect();
        for pos in (0..32).chain((32..index_end).step_by(7)) {
            let mut flipped = good.clone();
            flipped[pos] ^= 1 << (pos % 8);
            images.push((format!("bit flip at byte {pos}"), flipped));
        }
        images.push(("garbage".into(), vec![0xA5; 4096]));
        for (what, image) in &images {
            publish(&path, image);
            let err = reloader.reload_into(&cell).expect_err(what);
            let _ = err.to_string(); // clean, displayable io::Error
            assert_eq!(cell.epoch(), 2, "{what}: a failed reload must not swap");
        }

        // The retired streaming format's version number is refused by
        // name, like any unknown version.
        let mut v1 = good.clone();
        v1[4] = 1;
        publish(&path, &v1);
        let err = reloader.load_frozen().unwrap_err().to_string();
        assert!(err.contains("unsupported checkpoint version 1"), "{err}");

        // Generation 2 still serves out of its unlinked inode.
        assert_eq!(cell.epoch(), 2);
        assert_eq!(cell.current().frozen.score_batch(UserId(0), pois), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_poisoned_lock_does_not_stop_reads_or_reloads() {
        let (d, s) = setup();
        let dir = scratch_dir("poison");
        let path = dir.join("ckpt.bin");
        st_tensor::save_params_atomic(
            STTransRec::new(&d, &s, ModelConfig::test_small()).params(),
            &path,
        )
        .unwrap();
        let cell = ModelCell::from_frozen(fresh(&d, &s), None, None);
        let reloader = Reloader::new(d.clone(), s.clone(), ModelConfig::test_small(), &path);

        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _cell = cell.current.write().unwrap();
                    panic!("poisoning the cell lock (expected)");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cell.current.is_poisoned());

        assert_eq!(cell.current().epoch, 1);
        assert_eq!(reloader.reload_into(&cell).unwrap().epoch, 2);
        assert_eq!(cell.current().epoch, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_reload_mapped_and_score_like_the_source_model() {
        let (d, s) = setup();
        let dir = scratch_dir("v2");
        let path = dir.join("ckpt.bin");

        let mut trained = STTransRec::new(&d, &s, ModelConfig::test_small());
        trained.train_epoch(&d);
        let pois = d.pois_in_city(s.target_city);
        let want = trained.score_batch(UserId(0), pois);

        let cell = ModelCell::from_frozen(fresh(&d, &s), None, None);
        let reloader = Reloader::new(d.clone(), s.clone(), ModelConfig::test_small(), &path);

        // f32: mapped zero-copy reload, bit-identical scores.
        st_tensor::save_params_atomic(trained.params(), &path).unwrap();
        let outcome = reloader.reload_into(&cell).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.format, StorageEncoding::F32);
        assert!(outcome.mapped, "outcome must report the mapped load");
        let snap = cell.current();
        assert!(snap.mapped, "a reload must map, not parse");
        assert_eq!(snap.format(), StorageEncoding::F32);
        assert_eq!(snap.frozen.score_batch(UserId(0), pois), want);
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(snap.snapshot_bytes, file_len);

        // int8: mapped, quantized format surfaced, scores close.
        st_tensor::save_params_atomic_as(trained.params(), &path, StorageEncoding::I8).unwrap();
        let outcome = reloader.reload_into(&cell).unwrap();
        assert_eq!(outcome.epoch, 3);
        assert_eq!(
            outcome.format,
            StorageEncoding::I8,
            "reload-verify must surface the quantized format"
        );
        let snap = cell.current();
        assert_eq!(snap.format(), StorageEncoding::I8);
        assert!(snap.mapped);
        assert!(snap.snapshot_bytes < file_len, "int8 container must shrink");
        for (a, b) in snap.frozen.score_batch(UserId(0), pois).iter().zip(&want) {
            assert!((a - b).abs() < 0.05, "int8 scores drifted: {a} vs {b}");
        }

        // A checkpoint for a different dataset shape is rejected cleanly.
        let cfg2 = SynthConfig {
            users: SynthConfig::tiny().users + 3,
            ..SynthConfig::tiny()
        };
        let (d2, _) = generate(&cfg2);
        let s2 = CrossingCitySplit::build(&d2, CityId(cfg2.target_city as u16));
        let other = STTransRec::new(&d2, &s2, ModelConfig::test_small());
        st_tensor::save_params_atomic(other.params(), &path).unwrap();
        assert!(reloader.reload_into(&cell).is_err());
        assert_eq!(cell.epoch(), 3, "failed reload must not swap");

        std::fs::remove_dir_all(&dir).ok();
    }
}
