//! Incremental sparse training over streamed check-in events.
//!
//! Each micro-batch of events becomes an [`InteractionBatch`]: every
//! event is a positive example, paired with seeded same-city negatives
//! the user has not visited *as of this point in the stream*. The batch
//! then runs one row-sparse optimizer step
//! ([`STTransRec::train_on_interactions`]): with sparse gradients and
//! the lazy sharded Adam enabled, only the embedding rows actually
//! touched by the batch pay any optimizer work — the update cost scales
//! with the micro-batch, not the model.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, Dataset, PoiId};
use st_transrec_core::{InteractionBatch, STTransRec};

/// What one [`IncrementalTrainer::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MicroBatchStats {
    /// Streamed events consumed (positives).
    pub(crate) events: usize,
    /// Training examples after negative expansion.
    pub(crate) examples: usize,
    /// Mean BCE loss of the step.
    pub(crate) loss: f32,
}

/// Turns streamed events into incremental sparse training steps.
///
/// The trainer owns the *online* view of each user's visit history: it
/// starts from the dataset the model was trained on and absorbs every
/// ingested event, so negative sampling ("a same-city POI this user has
/// not visited") stays truthful as the stream moves past the snapshot
/// the dataset froze.
pub(crate) struct IncrementalTrainer {
    negatives: usize,
    /// Per-user visited POIs, sorted for binary-search membership.
    visited: Vec<Vec<PoiId>>,
    rng: SmallRng,
    /// The current micro-batch; refilled in place by every
    /// [`IncrementalTrainer::build_batch`], so an always-on trainer does
    /// not allocate three index vectors per micro-batch.
    batch: InteractionBatch,
}

impl IncrementalTrainer {
    /// Builds a trainer seeded for reproducible negative sampling, with
    /// visit history initialized from `dataset`.
    pub(crate) fn new(dataset: &Dataset, negatives: usize, seed: u64) -> Self {
        assert!(negatives > 0, "need at least one negative per positive");
        let mut visited: Vec<Vec<PoiId>> = (0..dataset.num_users())
            .map(|u| {
                dataset
                    .user_checkins(st_data::UserId(u as u32))
                    .map(|c| c.poi)
                    .collect()
            })
            .collect();
        for pois in &mut visited {
            pois.sort_unstable();
            pois.dedup();
        }
        Self {
            negatives,
            visited,
            rng: SmallRng::seed_from_u64(seed),
            batch: InteractionBatch {
                users: Vec::new(),
                pois: Vec::new(),
                labels: Vec::new(),
            },
        }
    }

    /// Whether `user` has visited `poi` from the trainer's point of view
    /// (dataset history plus every ingested event). A test oracle.
    #[cfg(test)]
    pub(crate) fn has_visited(&self, user: st_data::UserId, poi: PoiId) -> bool {
        self.visited[user.idx()].binary_search(&poi).is_ok()
    }

    /// Expands events into positives + unvisited same-city negatives and
    /// folds the events into the visit history. The batch lives in the
    /// trainer and is overwritten by the next call. Public mainly so tests
    /// and tools can audit exactly what a step would train on.
    pub(crate) fn build_batch(
        &mut self,
        dataset: &Dataset,
        events: &[Checkin],
    ) -> &InteractionBatch {
        let batch = &mut self.batch;
        batch.users.clear();
        batch.pois.clear();
        batch.labels.clear();
        for event in events {
            let user = event.user.idx();
            batch.users.push(user);
            batch.pois.push(event.poi.idx());
            batch.labels.push(1.0);

            let city_pois = dataset.pois_in_city(dataset.poi(event.poi).city);
            let visited = &self.visited[user];
            let mut drawn = 0;
            // Uniform same-city negatives; bounded attempts so a user who
            // has visited (almost) the whole city cannot spin forever.
            for _ in 0..self.negatives * 8 {
                if drawn == self.negatives {
                    break;
                }
                let poi = city_pois[self.rng.gen_range(0..city_pois.len())];
                if poi == event.poi || visited.binary_search(&poi).is_ok() {
                    continue;
                }
                batch.users.push(user);
                batch.pois.push(poi.idx());
                batch.labels.push(0.0);
                drawn += 1;
            }
        }
        for event in events {
            let visited = &mut self.visited[event.user.idx()];
            if let Err(pos) = visited.binary_search(&event.poi) {
                visited.insert(pos, event.poi);
            }
        }
        &self.batch
    }

    /// Trains `model` on one micro-batch of streamed events.
    pub(crate) fn ingest(
        &mut self,
        model: &mut STTransRec,
        dataset: &Dataset,
        events: &[Checkin],
    ) -> MicroBatchStats {
        assert!(!events.is_empty(), "empty micro-batch");
        let batch = self.build_batch(dataset, events);
        let examples = batch.len();
        let loss = model.train_on_interactions(batch);
        MicroBatchStats {
            events: events.len(),
            examples,
            loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, CheckinStream, SynthConfig};
    use st_data::{CityId, CrossingCitySplit, PoiId, UserId};
    use st_transrec_core::ModelConfig;

    fn setup() -> (Dataset, CrossingCitySplit) {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        (d, split)
    }

    #[test]
    fn ingest_descends_and_history_absorbs_streamed_pois() {
        let (d, split) = setup();
        let mut model = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = IncrementalTrainer::new(&d, 4, 5);

        let probe = CheckinStream::new(&d, 5).next_batch(64);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..12 {
            let stats = trainer.ingest(&mut model, &d, &probe);
            assert_eq!(stats.events, 64);
            assert!(stats.examples > 64, "negatives expanded the batch");
            assert!(stats.loss.is_finite());
            if step == 0 {
                first = stats.loss;
            }
            last = stats.loss;
        }
        assert!(
            last < first,
            "repeated steps on one batch must descend: {first} -> {last}"
        );
        for e in &probe {
            assert!(trainer.has_visited(e.user, e.poi));
        }
    }

    /// The always-on path must not grow: from the second micro-batch on
    /// the model's tape pool takes no miss and holds the same buffers and
    /// bytes, however long the stream runs. (48 events x 5 examples keeps
    /// every tape shape well inside one capacity class.)
    #[test]
    fn pool_stays_flat_over_300_micro_batches() {
        let (d, split) = setup();
        let mut model = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut trainer = IncrementalTrainer::new(&d, 4, 5);
        let mut stream = CheckinStream::new(&d, 5);

        let mut settled = st_tensor::PoolStats::default();
        for batch in 1..=300 {
            let stats = trainer.ingest(&mut model, &d, &stream.next_batch(48));
            assert!(stats.loss.is_finite());
            assert!(
                (129..=256).contains(&stats.examples),
                "batch {batch}: {} examples left the capacity class the test relies on",
                stats.examples
            );
            let pool = model.pool_stats();
            assert_eq!(pool.regrown, 0);
            if batch == 2 {
                settled = pool;
            } else if batch > 2 {
                assert_eq!(pool.misses, settled.misses, "batch {batch} missed");
                assert_eq!(pool.pooled, settled.pooled, "batch {batch} moved len()");
                assert_eq!(pool.pooled_bytes, settled.pooled_bytes);
            }
        }
        assert!(model.pool_stats().hits > 300);
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let (d, split) = setup();
        let events = CheckinStream::new(&d, 6).next_batch(128);
        let run = |seed| {
            let mut model = STTransRec::new(&d, &split, ModelConfig::test_small());
            let mut trainer = IncrementalTrainer::new(&d, 4, seed);
            (0..4)
                .map(|i| {
                    trainer
                        .ingest(&mut model, &d, &events[i * 32..(i + 1) * 32])
                        .loss
                })
                .collect::<Vec<f32>>()
        };
        assert_eq!(run(9), run(9), "bitwise-identical loss trajectory");
        assert_ne!(run(9), run(10), "trainer seed matters");
    }

    #[test]
    fn negatives_are_unvisited_same_city_and_labels_line_up() {
        let (d, _) = setup();
        let mut trainer = IncrementalTrainer::new(&d, 6, 21);
        let events = CheckinStream::new(&d, 7).next_batch(50);

        // Pre-ingest history, to audit against: build_batch must only
        // draw negatives unvisited *before* this batch.
        let before = IncrementalTrainer::new(&d, 6, 0);
        let batch = trainer.build_batch(&d, &events);

        let mut i = 0;
        for event in &events {
            assert_eq!(batch.users[i], event.user.idx());
            assert_eq!(batch.pois[i], event.poi.idx());
            assert_eq!(batch.labels[i], 1.0);
            let city = d.poi(event.poi).city;
            i += 1;
            while i < batch.len() && batch.labels[i] == 0.0 {
                let poi = PoiId(batch.pois[i] as u32);
                let user = UserId(batch.users[i] as u32);
                assert_eq!(user, event.user, "negative belongs to its event's user");
                assert_eq!(d.poi(poi).city, city, "negative from another city");
                assert_ne!(poi, event.poi);
                assert!(
                    !before.has_visited(user, poi),
                    "negative {poi:?} was already visited by {user:?}"
                );
                i += 1;
            }
        }
        assert_eq!(i, batch.len(), "every example accounted for");
    }
}
