//! User-POI interaction sampling for `L_I` (Eq. 13).
//!
//! Positives are observed training check-ins; for each positive, the
//! paper uniformly samples `K = 4` negatives from the unobserved
//! interactions. Negatives are drawn from the *same city* as the positive
//! POI — the crossing-city task scores cities separately, and letting a
//! source positive push down target POIs would leak the wrong signal.

use rand::Rng;
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};

/// A mini-batch of labelled (user, POI) pairs, flattened for embedding
/// lookups: row `i` pairs `users[i]` with `pois[i]` under `labels[i]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InteractionBatch {
    /// User table row per pair.
    pub users: Vec<usize>,
    /// POI table row per pair.
    pub pois: Vec<usize>,
    /// 1.0 for observed check-ins, 0.0 for sampled negatives.
    pub labels: Vec<f32>,
}

impl InteractionBatch {
    /// Number of labelled pairs.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Samples interaction batches from one side's training check-ins
/// (source cities or the target city).
#[derive(Debug)]
pub struct InteractionSampler {
    /// Positive pairs (deduplicated user-POI, keeping multiplicity would
    /// overweight repeat visitors — the paper models implicit feedback).
    positives: Vec<(UserId, PoiId)>,
    /// Sorted visited-POI list per user (for negative rejection).
    visited: Vec<Vec<PoiId>>,
    /// Negative candidate pool per city.
    city_pools: Vec<Vec<PoiId>>,
}

impl InteractionSampler {
    /// Builds a sampler over the check-ins of `train` whose POI lies in
    /// one of `cities`.
    pub fn new(dataset: &Dataset, train: &[Checkin], cities: &[CityId]) -> Self {
        let in_side = |c: CityId| cities.contains(&c);
        let mut positives: Vec<(UserId, PoiId)> = train
            .iter()
            .filter(|c| in_side(dataset.poi(c.poi).city))
            .map(|c| (c.user, c.poi))
            .collect();
        positives.sort_unstable();
        positives.dedup();

        let mut visited: Vec<Vec<PoiId>> = vec![Vec::new(); dataset.num_users()];
        for &(u, p) in &positives {
            visited[u.idx()].push(p);
        }
        for v in &mut visited {
            v.sort_unstable();
        }

        let city_pools = dataset
            .cities()
            .iter()
            .map(|c| {
                if in_side(c.id) {
                    dataset.pois_in_city(c.id).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();

        Self {
            positives,
            visited,
            city_pools,
        }
    }

    /// True when the side has no training data (e.g. no target locals).
    pub(crate) fn is_empty(&self) -> bool {
        self.positives.is_empty()
    }

    /// Whether `user` has an observed interaction with `poi` on this side.
    pub(crate) fn is_positive(&self, user: UserId, poi: PoiId) -> bool {
        self.visited[user.idx()].binary_search(&poi).is_ok()
    }

    /// Samples `batch` positives, each with `negatives` same-city
    /// negatives the user never visited.
    ///
    /// # Panics
    /// Panics if the sampler is empty.
    pub fn sample_batch(
        &self,
        dataset: &Dataset,
        batch: usize,
        negatives: usize,
        rng: &mut impl Rng,
    ) -> InteractionBatch {
        let mut out = InteractionBatch::default();
        self.sample_batch_into(dataset, batch, negatives, rng, &mut out);
        out
    }

    /// [`InteractionSampler::sample_batch`] into `out`, replacing what it
    /// held: the same draws, with `out`'s storage reused, so a caller
    /// that keeps one batch across steps allocates once.
    ///
    /// # Panics
    /// Panics if the sampler is empty.
    pub(crate) fn sample_batch_into(
        &self,
        dataset: &Dataset,
        batch: usize,
        negatives: usize,
        rng: &mut impl Rng,
        out: &mut InteractionBatch,
    ) {
        assert!(!self.is_empty(), "no positives to sample");
        let pairs = batch * (1 + negatives);
        out.users.clear();
        out.pois.clear();
        out.labels.clear();
        out.users.reserve_exact(pairs);
        out.pois.reserve_exact(pairs);
        out.labels.reserve_exact(pairs);
        for _ in 0..batch {
            let (user, poi) = self.positives[rng.gen_range(0..self.positives.len())];
            out.users.push(user.idx());
            out.pois.push(poi.idx());
            out.labels.push(1.0);
            let pool = &self.city_pools[dataset.poi(poi).city.idx()];
            for _ in 0..negatives {
                let neg = self.sample_negative(user, pool, rng);
                out.users.push(user.idx());
                out.pois.push(neg.idx());
                out.labels.push(0.0);
            }
        }
    }

    /// Uniform unobserved negative; falls back to any pool POI when the
    /// user has visited nearly everything (bounded retries).
    fn sample_negative(&self, user: UserId, pool: &[PoiId], rng: &mut impl Rng) -> PoiId {
        debug_assert!(!pool.is_empty(), "negative pool empty");
        for _ in 0..32 {
            let cand = pool[rng.gen_range(0..pool.len())];
            if !self.is_positive(user, cand) {
                return cand;
            }
        }
        pool[rng.gen_range(0..pool.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;

    fn setup() -> (st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    #[test]
    fn splits_sides_correctly() {
        let (d, split) = setup();
        let src = InteractionSampler::new(&d, &split.train, &[CityId(0)]);
        let tgt = InteractionSampler::new(&d, &split.train, &[CityId(1)]);
        assert!(!src.is_empty());
        assert!(!tgt.is_empty());
        // Sides are disjoint by city.
        let mut rng = SmallRng::seed_from_u64(0);
        let b = src.sample_batch(&d, 32, 2, &mut rng);
        for &p in &b.pois {
            assert_eq!(d.poi(PoiId(p as u32)).city, CityId(0));
        }
    }

    #[test]
    fn batch_layout_and_labels() {
        let (d, split) = setup();
        let s = InteractionSampler::new(&d, &split.train, &[CityId(0)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let b = s.sample_batch(&d, 10, 4, &mut rng);
        assert_eq!(b.len(), 50);
        for chunk in b.labels.chunks(5) {
            assert_eq!(chunk[0], 1.0);
            assert!(chunk[1..].iter().all(|&l| l == 0.0));
        }
        // Positive rows really are observed interactions.
        for i in (0..b.len()).step_by(5) {
            assert!(s.is_positive(UserId(b.users[i] as u32), PoiId(b.pois[i] as u32)));
        }
    }

    #[test]
    fn negatives_are_unvisited_same_city() {
        let (d, split) = setup();
        let s = InteractionSampler::new(&d, &split.train, &[CityId(0), CityId(1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let b = s.sample_batch(&d, 50, 4, &mut rng);
        for i in (0..b.len()).step_by(5) {
            let pos_city = d.poi(PoiId(b.pois[i] as u32)).city;
            for j in 1..5 {
                let (u, p) = (UserId(b.users[i + j] as u32), PoiId(b.pois[i + j] as u32));
                assert!(!s.is_positive(u, p), "negative was actually visited");
                assert_eq!(d.poi(p).city, pos_city, "negative from wrong city");
            }
        }
    }

    #[test]
    fn held_out_target_interactions_are_not_positives() {
        let (d, split) = setup();
        let tgt = InteractionSampler::new(&d, &split.train, &[split.target_city]);
        for (i, &u) in split.test_users.iter().enumerate() {
            for &p in split.ground_truth_for(i) {
                assert!(
                    !tgt.is_positive(u, p),
                    "test ground truth leaked into training positives"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no positives")]
    fn empty_side_panics_on_sampling() {
        let (d, _) = setup();
        let s = InteractionSampler::new(&d, &[], &[CityId(0)]);
        let mut rng = SmallRng::seed_from_u64(3);
        s.sample_batch(&d, 1, 1, &mut rng);
    }
}
