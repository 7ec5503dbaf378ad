//! The paper's evaluation protocol (Sec. 4.1, "Evaluation Metrics"):
//! rank each query's ground truth among negatives sampled from its
//! city outside the truth, and compute top-k metrics. A query is a
//! user, its truth POIs and the city its negatives come from. [`evaluate`]
//! asks it of a split's crossing-city test users (the paper's record:
//! 100 negatives, k ∈ {2, 4, 6, 8, 10}); [`evaluate_events`] of a window
//! of check-ins, one query per event (the online publish gate: 50
//! same-city negatives, k = 10). Both run one loop: the same sampler,
//! the same [`rank_metrics`], the same tie and NaN rules.
//!
//! Negative sets depend only on the queries and the seed, never on the
//! scorer, so two scorers evaluated with one config are compared on
//! identical candidate lists.

use crate::{rank_metrics, MetricAccumulator, MetricReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, CrossingCitySplit, Dataset, PoiId, UserId};

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

/// Evaluation settings; the default is the paper's protocol.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Negatives sampled per query (paper: 100).
    pub negatives: usize,
    /// Cutoffs (paper: 2, 4, 6, 8, 10).
    pub ks: Vec<usize>,
    /// Seed for negative sampling: fixed seed = identical candidate sets
    /// across methods, which is what makes the comparison figures fair.
    pub seed: u64,
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

/// Evaluates `scorer` on a crossing-city split: one query per test user,
/// its target-city visits the truth, its negatives from the target city.
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
    let target_pois = dataset.pois_in_city(split.target_city);
    let queries = (split.test_users.iter().enumerate())
        .map(|(i, &user)| (user, split.ground_truth_for(i), target_pois));
    rank_queries(scorer, queries, config)
}

/// Evaluates `scorer` on a window of check-ins: one query per event, its
/// POI the truth, its negatives from that POI's city. An empty window
/// reports zero users and zero metrics — callers gate on `users` before
/// trusting it.
pub fn evaluate_events(
    scorer: &dyn Scorer,
    dataset: &Dataset,
    events: &[Checkin],
    config: &EvalConfig,
) -> MetricReport {
    let queries = events.iter().map(|e| {
        let city_pois = dataset.pois_in_city(dataset.poi(e.poi).city);
        (e.user, std::slice::from_ref(&e.poi), city_pois)
    });
    rank_queries(scorer, queries, config)
}

/// The one evaluation loop: for each `(user, truth, city_pois)` query,
/// draw its candidates, score them and rank them, and average the
/// metrics over the queries.
fn rank_queries<'a>(
    scorer: &dyn Scorer,
    queries: impl Iterator<Item = (UserId, &'a [PoiId], &'a [PoiId])>,
    config: &EvalConfig,
) -> MetricReport {
    assert!(config.negatives > 0, "need at least one negative");
    assert!(!config.ks.is_empty(), "need at least one cutoff");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut acc = MetricAccumulator::new(&config.ks);
    for (user, truth, city_pois) in queries {
        if truth.is_empty() {
            continue;
        }
        let candidates = sample_candidates(city_pois, truth, config.negatives, &mut rng);
        let scores = scorer.score_batch(user, &candidates);
        let relevant: Vec<bool> = candidates.iter().map(|p| truth.contains(p)).collect();
        acc.add(&rank_metrics(&scores, &relevant, &config.ks));
    }
    acc.finish()
}

/// Candidate set: all ground-truth POIs plus `negatives` distinct POIs of
/// `target_pois` outside the truth (fewer if the city is too small), drawn
/// by a partial Fisher-Yates.
fn sample_candidates(
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
    use crate::Metric;
    use st_data::synth::{generate, CheckinStream, SynthConfig};
    use st_data::CityId;
    use std::collections::HashMap;

    /// Scores each user's truth `sign` and every other POI 0.0: an
    /// oracle at 1.0, an anti-oracle that ranks the truth last at -1.0.
    struct Oracle {
        truth: HashMap<UserId, Vec<PoiId>>,
        sign: f32,
    }

    impl Oracle {
        fn of_split(split: &CrossingCitySplit, sign: f32) -> Self {
            let truth = (split.test_users.iter().enumerate())
                .map(|(i, &u)| (u, split.ground_truth_for(i).to_vec()))
                .collect();
            Self { truth, sign }
        }

        /// Only valid for windows where each user appears once.
        fn of_events(events: &[Checkin], sign: f32) -> Self {
            let truth = events.iter().map(|e| (e.user, vec![e.poi])).collect();
            Self { truth, sign }
        }
    }

    impl Scorer for Oracle {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            let truth = &self.truth[&user];
            pois.iter()
                .map(|p| if truth.contains(p) { self.sign } else { 0.0 })
                .collect()
        }
    }

    /// Deterministic pseudo-random hash scores.
    struct Hash;

    impl Scorer for Hash {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            pois.iter()
                .map(|p| ((p.0 ^ user.0).wrapping_mul(2654435761) % 1000) as f32 / 1000.0)
                .collect()
        }
    }

    struct Constant(f32);

    impl Scorer for Constant {
        fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
            vec![self.0; pois.len()]
        }
    }

    fn setup() -> (st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    /// The fixture's dataset and a window of 60 streamed check-ins.
    fn window() -> (st_data::Dataset, Vec<Checkin>) {
        let (d, _) = generate(&SynthConfig::tiny());
        let events = CheckinStream::new(&d, 11).next_batch(60);
        (d, events)
    }

    /// The publish gate's shape of protocol: `negatives` same-city
    /// negatives, cutoff 10.
    fn window_config(negatives: usize) -> EvalConfig {
        EvalConfig {
            negatives,
            ks: vec![10],
            seed: 0x5EAD,
        }
    }

    #[test]
    fn oracle_achieves_perfect_topk_metrics() {
        let (d, split) = setup();
        let oracle = Oracle::of_split(&split, 1.0);
        let report = evaluate(&oracle, &d, &split, &EvalConfig::default());
        assert_eq!(report.users, split.test_users.len());
        // Every user's ground truth ranks first: precision@2 is |GT∩top2|/2,
        // recall@10 should be 1.0 for users with |GT| <= 10.
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.95, "oracle recall@10 = {r10}");
        let ndcg10 = report.get(Metric::Ndcg, 10);
        assert!(ndcg10 > 0.95, "oracle ndcg@10 = {ndcg10}");
    }

    #[test]
    fn anti_oracle_scores_zero() {
        let (d, split) = setup();
        let anti = Oracle::of_split(&split, -1.0);
        let report = evaluate(&anti, &d, &split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 < 0.05, "anti-oracle recall@10 = {r10}");
    }

    #[test]
    fn fixed_seed_gives_identical_candidates_across_methods() {
        let (d, split) = setup();
        let cfg = EvalConfig::default();
        let a = evaluate(&Oracle::of_split(&split, 1.0), &d, &split, &cfg);
        let b = evaluate(&Oracle::of_split(&split, 1.0), &d, &split, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn random_scorer_lands_near_chance() {
        let (d, split) = setup();
        let report = evaluate(&Hash, &d, &split, &EvalConfig::default());
        // With ~100 negatives + small GT, random recall@10 ~ 10/(100+|GT|).
        let r10 = report.get(Metric::Recall, 10);
        assert!((0.0..0.4).contains(&r10), "random recall@10 = {r10}");
    }

    /// One query per event: each user once, the oracle ranks every
    /// event's POI first and the anti-oracle ranks it last.
    #[test]
    fn oracle_scores_perfectly_and_anti_oracle_misses() {
        let (d, events) = window();
        let mut seen = std::collections::HashSet::new();
        let events: Vec<Checkin> = events.into_iter().filter(|e| seen.insert(e.user)).collect();
        let cfg = window_config(50);
        let report = evaluate_events(&Oracle::of_events(&events, 1.0), &d, &events, &cfg);
        assert_eq!(report.users, events.len());
        assert_eq!(report.get(Metric::Recall, 10), 1.0);
        let anti = evaluate_events(&Oracle::of_events(&events, -1.0), &d, &events, &cfg);
        assert_eq!(anti.get(Metric::Recall, 10), 0.0);
    }

    #[test]
    fn same_seed_same_window_is_deterministic() {
        let (d, events) = window();
        let cfg = window_config(50);
        let a = evaluate_events(&Hash, &d, &events, &cfg);
        assert_eq!(a, evaluate_events(&Hash, &d, &events, &cfg));
        let c = evaluate_events(&Hash, &d, &events, &EvalConfig { seed: 1, ..cfg });
        assert_eq!(a.users, c.users); // same window, different negatives
    }

    #[test]
    fn candidates_are_same_city_distinct_and_truth_first() {
        struct Lists<'a> {
            dataset: &'a st_data::Dataset,
            lists: std::sync::Mutex<Vec<Vec<PoiId>>>,
        }
        impl Scorer for Lists<'_> {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                let city = self.dataset.poi(pois[0]).city;
                for &p in pois {
                    assert_eq!(self.dataset.poi(p).city, city, "negative from another city");
                }
                let mut sorted = pois.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), pois.len(), "duplicate candidate");
                self.lists.lock().unwrap().push(pois.to_vec());
                vec![0.0; pois.len()]
            }
        }
        let (d, events) = window();
        let rec = Lists {
            dataset: &d,
            lists: Default::default(),
        };
        evaluate_events(&rec, &d, &events, &window_config(20));
        let lists = rec.lists.into_inner().unwrap();
        assert_eq!(lists.len(), events.len());
        for (list, e) in lists.iter().zip(&events) {
            assert_eq!(list[0], e.poi, "truth must lead the candidate list");
            assert_eq!(list.len(), 21);
        }
    }

    /// A constant scorer reads the random expectation, `k` of the
    /// `negatives + 1` positions, and one whose scores all saturate at
    /// 1.0 does no better.
    #[test]
    fn a_constant_scorer_hits_at_the_random_rate() {
        let (d, events) = window();
        // Every city of the fixture has 20 POIs besides the truth.
        let cfg = window_config(20);
        let constant = evaluate_events(&Constant(0.25), &d, &events, &cfg);
        let recall = constant.get(Metric::Recall, 10);
        assert!((recall - 10.0 / 21.0).abs() < 1e-12, "{constant:?}");
        assert_eq!(evaluate_events(&Constant(1.0), &d, &events, &cfg), constant);
    }

    #[test]
    fn empty_window_reports_zero_events() {
        let (d, _) = window();
        let r = evaluate_events(&Constant(0.0), &d, &[], &window_config(50));
        assert_eq!(r.users, 0);
        assert_eq!(r.get(Metric::Recall, 10), 0.0);
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
