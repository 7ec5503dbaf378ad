//! Top-k recommendation and the explainability views of Table 3.
//!
//! [`recommend_top_k`] works over any [`Scorer`], so the same machinery
//! serves ST-TransRec, its ablations and every baseline. The case-study
//! helpers surface the word-level evidence the paper prints: a user's
//! top profile words from their source-city check-ins, and each
//! recommended POI's top descriptive words.

use st_data::{Checkin, CityId, Dataset, PoiId, UserId, WordId};
use st_eval::{score_sharded, Scorer};
use std::collections::{HashMap, HashSet};

/// One ranked recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended POI.
    pub poi: PoiId,
    /// Its predicted score (higher = better).
    pub score: f32,
}

/// Scores every POI of `city` for `user` (excluding `exclude`) and
/// returns the top `k` by score, ties broken by POI id for determinism.
///
/// The full catalog is scored as one batch — a single forward pass
/// through the interaction tower — sharded across all available cores
/// via [`score_sharded`]. Exclusion is a hash-set probe (catalogs are
/// thousands of POIs; a linear scan per candidate is quadratic), and the
/// ranking is [`rank_top_k`]'s, so a scorer emitting NaN degrades to a
/// deterministic order instead of panicking mid-ranking.
///
/// `k == 0` yields an empty ranking: this function sits on the serving
/// path, where request input must never panic the process.
pub fn recommend_top_k(
    scorer: &dyn Scorer,
    dataset: &Dataset,
    user: UserId,
    city: CityId,
    k: usize,
    exclude: &[PoiId],
) -> Vec<Recommendation> {
    if k == 0 {
        return Vec::new();
    }
    let excluded: HashSet<PoiId> = exclude.iter().copied().collect();
    let candidates: Vec<PoiId> = dataset
        .pois_in_city(city)
        .iter()
        .copied()
        .filter(|p| !excluded.contains(p))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scores = score_sharded(scorer, user, &candidates, threads);
    rank_top_k(&candidates, &scores, k)
}

/// The ranking rule every recommendation path shares: the `k` best of
/// `candidates` by their parallel `scores`, descending under
/// [`f32::total_cmp`] (NaN sorts above every number — visibly wrong
/// output, never a panic), ties broken by ascending POI id.
///
/// The comparator is a total order, so partitioning out the best `k`
/// and sorting only those returns exactly what sorting everything and
/// truncating would, for a fraction of the work when `k` is a page and
/// `candidates` a city.
pub fn rank_top_k(candidates: &[PoiId], scores: &[f32], k: usize) -> Vec<Recommendation> {
    let mut ranked: Vec<Recommendation> = candidates
        .iter()
        .zip(scores)
        .map(|(&poi, &score)| Recommendation { poi, score })
        .collect();
    let by_rank = |a: &Recommendation, b: &Recommendation| {
        b.score.total_cmp(&a.score).then(a.poi.cmp(&b.poi))
    };
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, by_rank);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(by_rank);
    ranked
}

/// The user's top-n profile words: word frequencies aggregated over the
/// POIs of their training check-ins (Table 3's "Training Data" column).
pub(crate) fn user_profile_words(
    dataset: &Dataset,
    train: &[Checkin],
    user: UserId,
    n: usize,
) -> Vec<String> {
    let mut counts: HashMap<WordId, usize> = HashMap::new();
    for c in train.iter().filter(|c| c.user == user) {
        for &w in &dataset.poi(c.poi).words {
            *counts.entry(w).or_default() += 1;
        }
    }
    let mut ranked: Vec<(WordId, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(n)
        .map(|(w, _)| dataset.vocab().word(w).to_owned())
        .collect()
}

/// A POI's first `n` descriptive words (Table 3's "Textual Descriptions").
pub(crate) fn poi_top_words(dataset: &Dataset, poi: PoiId, n: usize) -> Vec<String> {
    dataset
        .poi(poi)
        .words
        .iter()
        .take(n)
        .map(|&w| dataset.vocab().word(w).to_owned())
        .collect()
}

/// Everything Table 3 prints for one user under one model.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Top profile words from source-city training check-ins.
    pub profile_words: Vec<String>,
    /// Top-k recommendations with name, words, and ground-truth marks.
    pub entries: Vec<CaseStudyEntry>,
}

/// One row of the case study.
#[derive(Debug, Clone)]
pub struct CaseStudyEntry {
    /// Its display name.
    pub name: String,
    /// Its top descriptive words.
    pub words: Vec<String>,
    /// Whether the POI is in the user's held-out ground truth.
    pub is_ground_truth: bool,
}

/// Builds the case study for `user` under `scorer`.
#[allow(clippy::too_many_arguments)] // mirrors Table 3's column structure
pub fn case_study(
    scorer: &dyn Scorer,
    dataset: &Dataset,
    train: &[Checkin],
    user: UserId,
    target: CityId,
    ground_truth: &[PoiId],
    k: usize,
    words_per_poi: usize,
) -> CaseStudy {
    let recs = recommend_top_k(scorer, dataset, user, target, k, &[]);
    let entries = recs
        .into_iter()
        .map(|r| CaseStudyEntry {
            name: dataset.poi(r.poi).name.clone(),
            words: poi_top_words(dataset, r.poi, words_per_poi),
            is_ground_truth: ground_truth.contains(&r.poi),
        })
        .collect();
    CaseStudy {
        profile_words: user_profile_words(dataset, train, user, 10),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;

    /// Scorer preferring low POI ids.
    struct ByIdDesc;
    impl Scorer for ByIdDesc {
        fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
            pois.iter().map(|p| -(p.0 as f32)).collect()
        }
    }

    fn setup() -> (Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    #[test]
    fn top_k_is_sorted_and_excludes() {
        let (d, split) = setup();
        let city = split.target_city;
        let first_poi = d.pois_in_city(city)[0];
        let recs = recommend_top_k(&ByIdDesc, &d, UserId(0), city, 5, &[first_poi]);
        assert_eq!(recs.len(), 5);
        assert!(recs.iter().all(|r| r.poi != first_poi));
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // All recommendations live in the target city.
        assert!(recs.iter().all(|r| d.poi(r.poi).city == city));
    }

    #[test]
    fn k_zero_returns_empty_instead_of_panicking() {
        let (d, split) = setup();
        let recs = recommend_top_k(&ByIdDesc, &d, UserId(0), split.target_city, 0, &[]);
        assert!(recs.is_empty());
    }

    #[test]
    fn nan_scores_degrade_to_deterministic_order_instead_of_panicking() {
        struct NanScorer;
        impl Scorer for NanScorer {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                pois.iter()
                    .map(|p| if p.0 % 3 == 0 { f32::NAN } else { p.0 as f32 })
                    .collect()
            }
        }
        let (d, split) = setup();
        let a = recommend_top_k(&NanScorer, &d, UserId(0), split.target_city, 5, &[]);
        let b = recommend_top_k(&NanScorer, &d, UserId(0), split.target_city, 5, &[]);
        // NaN != NaN, so compare ids and score bit patterns.
        let key = |r: &[Recommendation]| -> Vec<(PoiId, u32)> {
            r.iter().map(|x| (x.poi, x.score.to_bits())).collect()
        };
        assert_eq!(key(&a), key(&b), "NaN ordering must be deterministic");
        assert_eq!(a.len(), 5);
        // total_cmp ranks NaN above every finite value, so NaN-scored POIs
        // surface first — visibly wrong output rather than a crash.
        assert!(a[0].score.is_nan());
    }

    #[test]
    fn rank_top_k_equals_sorting_everything_and_truncating() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 7, 64, 500] {
            // A handful of distinct scores over many POIs, so ties (and
            // NaN, -NaN, ±0 ties) are everywhere; POI ids repeat too.
            let palette = [
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                0.75,
                0.5,
                0.0,
                -0.0,
                -1.5,
                f32::NEG_INFINITY,
            ];
            let candidates: Vec<PoiId> = (0..n).map(|_| PoiId((next() % 40) as u32)).collect();
            let scores: Vec<f32> = (0..n)
                .map(|_| palette[(next() % palette.len() as u64) as usize])
                .collect();
            let mut sorted: Vec<Recommendation> = candidates
                .iter()
                .zip(&scores)
                .map(|(&poi, &score)| Recommendation { poi, score })
                .collect();
            sorted.sort_by(|x, y| y.score.total_cmp(&x.score).then(x.poi.cmp(&y.poi)));
            let key = |r: &[Recommendation]| -> Vec<(PoiId, u32)> {
                r.iter().map(|x| (x.poi, x.score.to_bits())).collect()
            };
            for k in [0, 1, n.saturating_sub(1), n, n + 5] {
                let got = rank_top_k(&candidates, &scores, k);
                assert_eq!(key(&got), key(&sorted[..k.min(n)]), "n {n}, k {k}");
            }
        }
    }

    /// Wraps a scorer so every POI is scored through its own single-item
    /// batch — the slow per-POI path the batched ranking must match.
    struct PerPoi<S>(S);
    impl<S: Scorer> Scorer for PerPoi<S> {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            pois.iter()
                .map(|&p| self.0.score_batch(user, &[p])[0])
                .collect()
        }
    }

    #[test]
    fn batched_ranking_is_bit_identical_to_per_poi_scoring() {
        use crate::{ModelConfig, STTransRec};
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let city = split.target_city;
        let k = d.pois_in_city(city).len(); // full catalog, no truncation slack
        for user in split.test_users.iter().take(3) {
            let batched = recommend_top_k(&m, &d, *user, city, k, &[]);
            let per_poi = recommend_top_k(&PerPoi(&m), &d, *user, city, k, &[]);
            assert_eq!(batched, per_poi, "user {user:?}: rankings diverge");
        }
    }

    #[test]
    fn sharded_scoring_matches_single_batch() {
        use crate::{ModelConfig, STTransRec};
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let user = split.test_users[0];
        let pois = d.pois_in_city(split.target_city);
        let single = m.score_batch(user, pois);
        for threads in [2, 3, 8] {
            let sharded = st_eval::score_sharded(&m, user, pois, threads);
            assert_eq!(single, sharded, "{threads} threads");
        }
    }

    #[test]
    fn profile_words_reflect_training_checkins() {
        let (d, split) = setup();
        let user = split.test_users[0];
        let words = user_profile_words(&d, &split.train, user, 10);
        assert!(!words.is_empty());
        // Every profile word must come from a POI the user visited.
        let visited_words: Vec<String> = split
            .train
            .iter()
            .filter(|c| c.user == user)
            .flat_map(|c| d.poi(c.poi).words.iter())
            .map(|&w| d.vocab().word(w).to_owned())
            .collect();
        for w in &words {
            assert!(visited_words.contains(w), "{w} not in visited words");
        }
    }

    #[test]
    fn case_study_marks_ground_truth() {
        let (d, split) = setup();
        let user = split.test_users[0];
        let truth = split.ground_truth_for(0);
        struct Oracle<'a>(&'a [PoiId]);
        impl Scorer for Oracle<'_> {
            fn score_batch(&self, _u: UserId, pois: &[PoiId]) -> Vec<f32> {
                pois.iter()
                    .map(|p| if self.0.contains(p) { 1.0 } else { 0.0 })
                    .collect()
            }
        }
        let cs = case_study(
            &Oracle(truth),
            &d,
            &split.train,
            user,
            split.target_city,
            truth,
            5,
            5,
        );
        assert_eq!(cs.entries.len(), 5);
        let marked = cs.entries.iter().filter(|e| e.is_ground_truth).count();
        assert_eq!(marked, truth.len().min(5), "oracle surfaces all truth");
        assert!(cs.entries.iter().all(|e| !e.name.is_empty()));
    }
}
