//! The paper's evaluation protocol (Sec. 4.1, "Evaluation Metrics"):
//! for each crossing-city test user, sample 100 target-city POIs the user
//! never visited, rank them together with the ground truth, and compute
//! top-k metrics.

use crate::{rank_metrics, MetricAccumulator, MetricReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{CrossingCitySplit, Dataset, PoiId, UserId};

/// Anything that can score (user, POI) pairs for ranking: one user
/// against a batch of POIs, the shape neural scorers are cheap on.
///
/// `Sync` is a supertrait so full-catalog scoring can shard one batch
/// across scoped threads ([`score_sharded`]); every scorer here is a
/// read-only view over trained parameters, so this costs nothing.
pub trait Scorer: Sync {
    /// Scores every POI in `pois` for `user`; higher ranks earlier.
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32>;
}

/// Minimum per-shard batch below which threading overhead dominates and
/// [`score_sharded`] falls back to a single batched call.
const MIN_SHARD: usize = 256;

/// Scores `pois` for `user`, sharding the batch across up to `threads`
/// scoped worker threads. Results are returned in `pois` order and are
/// bit-identical to a single `score_batch` call: the scorer sees each
/// shard as an independent batch, and row-level kernels do not change
/// their per-row operation order with batch size.
///
/// With `threads == 1`, or when the batch is too small to amortize
/// thread spawning, this is exactly one `score_batch` call.
pub fn score_sharded(
    scorer: &dyn Scorer,
    user: UserId,
    pois: &[PoiId],
    threads: usize,
) -> Vec<f32> {
    assert!(threads >= 1, "need at least one scoring thread");
    if threads == 1 || pois.len() < 2 * MIN_SHARD {
        return scorer.score_batch(user, pois);
    }
    let chunk = pois.len().div_ceil(threads).max(MIN_SHARD);
    let shards: Vec<&[PoiId]> = pois.chunks(chunk).collect();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| scope.spawn(move || scorer.score_batch(user, shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoring worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(pois.len());
    for shard_scores in results {
        out.extend(shard_scores);
    }
    debug_assert_eq!(out.len(), pois.len());
    out
}

impl<S: Scorer + ?Sized> Scorer for &S {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        (**self).score_batch(user, pois)
    }
}

impl<S: Scorer + ?Sized> Scorer for Box<S> {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        (**self).score_batch(user, pois)
    }
}

/// Protocol configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Negatives sampled per user (paper: 100).
    pub(crate) negatives: usize,
    /// Cutoffs (paper: 2, 4, 6, 8, 10).
    pub(crate) ks: Vec<usize>,
    /// Seed for negative sampling: fixed seed = identical candidate sets
    /// across methods, which is what makes the comparison figures fair.
    pub(crate) seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            negatives: 100,
            ks: vec![2, 4, 6, 8, 10],
            seed: 0xE7A1,
        }
    }
}

/// Evaluates `scorer` on a crossing-city split under the paper's
/// 100-negative ranking protocol.
///
/// Users with empty ground truth are skipped (cannot occur for splits
/// built from [`CrossingCitySplit::build`], which defines test users by
/// their target-city visits).
pub fn evaluate(
    scorer: &dyn Scorer,
    dataset: &Dataset,
    split: &CrossingCitySplit,
    config: &EvalConfig,
) -> MetricReport {
    assert!(config.negatives > 0, "need at least one negative");
    assert!(!config.ks.is_empty(), "need at least one cutoff");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let target_pois = dataset.pois_in_city(split.target_city);
    let mut acc = MetricAccumulator::new(&config.ks);

    for (i, &user) in split.test_users.iter().enumerate() {
        let truth = split.ground_truth_for(i);
        if truth.is_empty() {
            continue;
        }
        let candidates = sample_candidates(target_pois, truth, config.negatives, &mut rng);
        let scores = scorer.score_batch(user, &candidates);
        let relevant: Vec<bool> = candidates.iter().map(|p| truth.contains(p)).collect();
        acc.add(&rank_metrics(&scores, &relevant, &config.ks));
    }
    acc.finish()
}

/// Candidate set: all ground-truth POIs plus `negatives` distinct POIs of
/// `target_pois` outside the truth (fewer if the city is too small), drawn
/// by a partial Fisher-Yates.
pub(crate) fn sample_candidates(
    target_pois: &[PoiId],
    truth: &[PoiId],
    negatives: usize,
    rng: &mut SmallRng,
) -> Vec<PoiId> {
    let mut candidates: Vec<PoiId> = truth.to_vec();
    let pool: Vec<PoiId> = target_pois
        .iter()
        .copied()
        .filter(|p| !truth.contains(p))
        .collect();
    let k = negatives.min(pool.len());
    // Partial Fisher-Yates over a scratch index vector.
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
        candidates.push(pool[idx[i]]);
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CityId;

    /// Oracle scorer: knows the ground truth, scores it highest.
    struct Oracle<'a> {
        split: &'a CrossingCitySplit,
    }

    impl Scorer for Oracle<'_> {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            let idx = self
                .split
                .test_users
                .iter()
                .position(|&u| u == user)
                .expect("test user");
            let truth = self.split.ground_truth_for(idx);
            pois.iter()
                .map(|p| if truth.contains(p) { 1.0 } else { 0.0 })
                .collect()
        }
    }

    /// Anti-oracle: ranks ground truth last.
    struct AntiOracle<'a> {
        split: &'a CrossingCitySplit,
    }

    impl Scorer for AntiOracle<'_> {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            Oracle { split: self.split }
                .score_batch(user, pois)
                .into_iter()
                .map(|s| -s)
                .collect()
        }
    }

    fn setup() -> (st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    #[test]
    fn oracle_achieves_perfect_topk_metrics() {
        let (d, split) = setup();
        let report = evaluate(
            &Oracle { split: &split },
            &d,
            &split,
            &EvalConfig::default(),
        );
        assert_eq!(report.users, split.test_users.len());
        // Every user's ground truth ranks first: precision@2 is |GT∩top2|/2,
        // recall@10 should be 1.0 for users with |GT| <= 10.
        let r10 = report.get(crate::Metric::Recall, 10);
        assert!(r10 > 0.95, "oracle recall@10 = {r10}");
        let ndcg10 = report.get(crate::Metric::Ndcg, 10);
        assert!(ndcg10 > 0.95, "oracle ndcg@10 = {ndcg10}");
    }

    #[test]
    fn anti_oracle_scores_zero() {
        let (d, split) = setup();
        let report = evaluate(
            &AntiOracle { split: &split },
            &d,
            &split,
            &EvalConfig::default(),
        );
        let r10 = report.get(crate::Metric::Recall, 10);
        assert!(r10 < 0.05, "anti-oracle recall@10 = {r10}");
    }

    #[test]
    fn fixed_seed_gives_identical_candidates_across_methods() {
        let (d, split) = setup();
        let cfg = EvalConfig::default();
        let a = evaluate(&Oracle { split: &split }, &d, &split, &cfg);
        let b = evaluate(&Oracle { split: &split }, &d, &split, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn random_scorer_lands_near_chance() {
        struct Rand;
        impl Scorer for Rand {
            fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
                // Deterministic pseudo-random hash scores.
                pois.iter()
                    .map(|p| {
                        let h = (p.0 ^ user.0).wrapping_mul(2654435761);
                        (h % 1000) as f32 / 1000.0
                    })
                    .collect()
            }
        }
        let (d, split) = setup();
        let report = evaluate(&Rand, &d, &split, &EvalConfig::default());
        // With ~100 negatives + small GT, random recall@10 ~ 10/(100+|GT|).
        let r10 = report.get(crate::Metric::Recall, 10);
        assert!((0.0..0.4).contains(&r10), "random recall@10 = {r10}");
    }

    /// Records how many `score_batch` calls it receives and how many of
    /// them ran off the constructing thread, for asserting the sharding
    /// policy.
    struct Recording {
        caller: std::thread::ThreadId,
        calls: std::sync::atomic::AtomicUsize,
        off_thread: std::sync::atomic::AtomicUsize,
    }

    impl Recording {
        fn new() -> Self {
            Self {
                caller: std::thread::current().id(),
                calls: std::sync::atomic::AtomicUsize::new(0),
                off_thread: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl Scorer for Recording {
        fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
            use std::sync::atomic::Ordering::Relaxed;
            self.calls.fetch_add(1, Relaxed);
            if std::thread::current().id() != self.caller {
                self.off_thread.fetch_add(1, Relaxed);
            }
            vec![0.0; pois.len()]
        }
    }

    #[test]
    fn small_catalog_scores_in_one_call_on_the_calling_thread() {
        use std::sync::atomic::Ordering::Relaxed;
        // Just under the 2*MIN_SHARD threshold: threading overhead would
        // dominate, so the catalog must score as one batch, inline.
        let pois: Vec<PoiId> = (0..(2 * MIN_SHARD as u32 - 1)).map(PoiId).collect();
        let rec = Recording::new();
        let scores = score_sharded(&rec, UserId(0), &pois, 8);
        assert_eq!(scores.len(), pois.len());
        assert_eq!(rec.calls.load(Relaxed), 1, "small catalog must not shard");
        assert_eq!(rec.off_thread.load(Relaxed), 0, "must stay on the caller");
    }

    #[test]
    fn large_catalog_shards_with_min_shard_sized_chunks() {
        use std::sync::atomic::Ordering::Relaxed;
        // Large enough to shard, small enough that MIN_SHARD (not the
        // thread count) bounds the shard count: 3*MIN_SHARD pairs across
        // 8 requested threads must become exactly 3 shards.
        let pois: Vec<PoiId> = (0..(3 * MIN_SHARD as u32)).map(PoiId).collect();
        let rec = Recording::new();
        let scores = score_sharded(&rec, UserId(0), &pois, 8);
        assert_eq!(scores.len(), pois.len());
        assert_eq!(rec.calls.load(Relaxed), 3, "shards must hold >= MIN_SHARD");
    }

    #[test]
    fn candidate_sampler_excludes_truth_and_dedupes() {
        let pois: Vec<PoiId> = (0..50).map(PoiId).collect();
        let truth = vec![PoiId(3), PoiId(7)];
        let mut rng = SmallRng::seed_from_u64(0);
        let cands = sample_candidates(&pois, &truth, 20, &mut rng);
        assert_eq!(cands.len(), 22);
        let negs = &cands[2..];
        assert!(!negs.contains(&PoiId(3)));
        assert!(!negs.contains(&PoiId(7)));
        let mut sorted = negs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "negatives must be distinct");
    }

    #[test]
    fn small_city_clamps_negative_count() {
        let pois: Vec<PoiId> = (0..5).map(PoiId).collect();
        let truth = vec![PoiId(0)];
        let mut rng = SmallRng::seed_from_u64(0);
        let cands = sample_candidates(&pois, &truth, 100, &mut rng);
        assert_eq!(cands.len(), 5); // 1 truth + 4 available negatives
    }
}
