//! Topic-model baselines: a collapsed-Gibbs LDA engine with optional
//! city-partitioned topics, powering
//!
//! - **ST-LDA** (Yin et al., TKDE'16): plain LDA over user documents
//!   (the words of their visited POIs) mixed with a crowd-preference
//!   (popularity) prior — region-dependent interests collapse onto the
//!   target city's aggregate behaviour in our single-target setting.
//! - **CTLM** (Li, Gong & Zhang, TCYB'19): LDA whose topics split into
//!   *common* topics shared by all cities and *city-specific* topics only
//!   assignable to tokens generated in that city. Transfer scores use the
//!   common topics only, which is precisely the model's contribution.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;

/// Topics shared by all cities.
const COMMON_TOPICS: usize = 16;
/// Dirichlet prior on document-topic distributions.
const ALPHA: f64 = 0.5;
/// Dirichlet prior on topic-word distributions.
const BETA: f64 = 0.05;
/// Gibbs sweeps.
const SWEEPS: usize = 40;
/// Max tokens per user document (subsampled beyond this).
const MAX_TOKENS_PER_USER: usize = 400;
/// Crowd/popularity mixing weight in the final score.
const CROWD_WEIGHT: f32 = 0.3;
/// RNG seed.
const SEED: u64 = 17;

/// A fitted topic-model recommender (ST-LDA or CTLM).
#[derive(Debug)]
pub(crate) struct TopicModel {
    /// `theta[user][topic]`, renormalized over common topics for scoring.
    theta_common: Vec<Vec<f32>>,
    /// Per-POI common-topic affinity: mean of `phi_t[w]` over the POI's
    /// words, for each common topic.
    poi_topic_score: Vec<Vec<f32>>,
    /// Normalized target-city popularity (the crowd preference).
    crowd: Vec<f32>,
}

impl TopicModel {
    /// Fits the model on training check-ins with Gibbs sampling, with
    /// `city_topics` specific topics per city beside the common ones:
    /// 0 is ST-LDA, 4 is CTLM.
    pub(crate) fn fit(
        dataset: &Dataset,
        train: &[Checkin],
        target: CityId,
        city_topics: usize,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let num_cities = dataset.cities().len();
        let num_topics = COMMON_TOPICS + num_cities * city_topics;
        let vocab = dataset.vocab().len().max(1);

        // Build user documents: (word, city-of-POI) tokens.
        let mut docs: Vec<Vec<(u32, u16)>> = vec![Vec::new(); dataset.num_users()];
        for c in train {
            let poi = dataset.poi(c.poi);
            for &w in &poi.words {
                docs[c.user.idx()].push((w.0, poi.city.0));
            }
        }
        // Subsample oversized documents (bounded Gibbs cost).
        for doc in &mut docs {
            if doc.len() > MAX_TOKENS_PER_USER {
                for i in 0..MAX_TOKENS_PER_USER {
                    let j = rng.gen_range(i..doc.len());
                    doc.swap(i, j);
                }
                doc.truncate(MAX_TOKENS_PER_USER);
            }
        }

        // Collapsed Gibbs state.
        let mut n_dk = vec![0u32; dataset.num_users() * num_topics];
        let mut n_kw = vec![0u32; num_topics * vocab];
        let mut n_k = vec![0u32; num_topics];
        let mut assign: Vec<Vec<u16>> = docs
            .iter()
            .map(|doc| doc.iter().map(|_| 0u16).collect())
            .collect();

        let allowed = |city: u16| -> (std::ops::Range<usize>, std::ops::Range<usize>) {
            let specific_start = COMMON_TOPICS + city as usize * city_topics;
            (
                0..COMMON_TOPICS,
                specific_start..specific_start + city_topics,
            )
        };

        // Random init restricted to allowed topics.
        for (d, doc) in docs.iter().enumerate() {
            for (i, &(w, city)) in doc.iter().enumerate() {
                let (common, specific) = allowed(city);
                let span = common.len() + specific.len();
                let pick = rng.gen_range(0..span);
                let t = if pick < common.len() {
                    common.start + pick
                } else {
                    specific.start + (pick - common.len())
                };
                assign[d][i] = t as u16;
                n_dk[d * num_topics + t] += 1;
                n_kw[t * vocab + w as usize] += 1;
                n_k[t] += 1;
            }
        }

        // Gibbs sweeps.
        let vbeta = vocab as f64 * BETA;
        let mut weights: Vec<f64> = Vec::with_capacity(num_topics);
        for _ in 0..SWEEPS {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &(w, city)) in doc.iter().enumerate() {
                    let old = assign[d][i] as usize;
                    n_dk[d * num_topics + old] -= 1;
                    n_kw[old * vocab + w as usize] -= 1;
                    n_k[old] -= 1;

                    let (common, specific) = allowed(city);
                    weights.clear();
                    let mut push = |t: usize| {
                        let p = (n_dk[d * num_topics + t] as f64 + ALPHA)
                            * (n_kw[t * vocab + w as usize] as f64 + BETA)
                            / (n_k[t] as f64 + vbeta);
                        weights.push(p);
                    };
                    for t in common.clone() {
                        push(t);
                    }
                    for t in specific.clone() {
                        push(t);
                    }
                    let total: f64 = weights.iter().sum();
                    let mut x = rng.gen::<f64>() * total;
                    let mut pick = weights.len() - 1;
                    for (j, &p) in weights.iter().enumerate() {
                        x -= p;
                        if x <= 0.0 {
                            pick = j;
                            break;
                        }
                    }
                    let t = if pick < common.len() {
                        common.start + pick
                    } else {
                        specific.start + (pick - common.len())
                    };
                    assign[d][i] = t as u16;
                    n_dk[d * num_topics + t] += 1;
                    n_kw[t * vocab + w as usize] += 1;
                    n_k[t] += 1;
                }
            }
        }

        // Posterior point estimates restricted to common topics.
        let c = COMMON_TOPICS;
        let theta_common: Vec<Vec<f32>> = (0..dataset.num_users())
            .map(|d| {
                let row = &n_dk[d * num_topics..d * num_topics + c];
                let total: f64 = row.iter().map(|&x| x as f64 + ALPHA).sum();
                row.iter()
                    .map(|&x| ((x as f64 + ALPHA) / total) as f32)
                    .collect()
            })
            .collect();
        let phi: Vec<Vec<f64>> = (0..c)
            .map(|t| {
                let row = &n_kw[t * vocab..(t + 1) * vocab];
                let denom = n_k[t] as f64 + vbeta;
                row.iter().map(|&x| (x as f64 + BETA) / denom).collect()
            })
            .collect();

        // Per-POI topic affinity: mean phi over the POI's words,
        // normalized to a distribution over common topics. The
        // normalization is what lets CTLM profit from its topic split:
        // city-dependent words lose almost all their common-topic mass
        // to the city blocks, so after normalization a POI's *direction*
        // over common topics is driven by its transferable words, while
        // ST-LDA's direction stays polluted by city words.
        let poi_topic_score: Vec<Vec<f32>> = dataset
            .pois()
            .iter()
            .map(|p| {
                let raw: Vec<f64> = (0..c)
                    .map(|t| {
                        if p.words.is_empty() {
                            return 0.0;
                        }
                        p.words.iter().map(|w| phi[t][w.idx()]).sum::<f64>() / p.words.len() as f64
                    })
                    .collect();
                let total: f64 = raw.iter().sum();
                if total <= 0.0 {
                    return vec![0.0; c];
                }
                raw.into_iter().map(|x| (x / total) as f32).collect()
            })
            .collect();

        // Crowd preference: normalized target-city popularity in training.
        let mut crowd = vec![0f32; dataset.num_pois()];
        for ck in train {
            if dataset.poi(ck.poi).city == target {
                crowd[ck.poi.idx()] += 1.0;
            }
        }
        let max = crowd.iter().cloned().fold(1f32, f32::max);
        for v in &mut crowd {
            *v /= max;
        }

        Self {
            theta_common,
            poi_topic_score,
            crowd,
        }
    }
}

impl Scorer for TopicModel {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        let theta = &self.theta_common[user.idx()];
        pois.iter()
            .map(|p| {
                let affinity: f32 = theta
                    .iter()
                    .zip(&self.poi_topic_score[p.idx()])
                    .map(|(&t, &s)| t * s)
                    .sum();
                (1.0 - CROWD_WEIGHT) * affinity + CROWD_WEIGHT * self.crowd[p.idx()]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fitted, tiny};
    use crate::Method;
    use st_eval::{evaluate, EvalConfig, Metric};
    use std::sync::OnceLock;

    /// ST-LDA as `fit_method` fits it on `tiny`, once per test binary.
    fn st_lda() -> &'static TopicModel {
        static FIT: OnceLock<TopicModel> = OnceLock::new();
        let (d, split) = tiny();
        FIT.get_or_init(|| TopicModel::fit(d, &split.train, CityId(1), 0))
    }

    #[test]
    fn st_lda_has_no_city_topics() {
        let m = st_lda();
        assert!(m.theta_common.iter().all(|t| t.len() == COMMON_TOPICS));
    }

    #[test]
    fn ctlm_partitions_topics_per_city() {
        let (d, split) = tiny();
        let m = TopicModel::fit(d, &split.train, CityId(1), 4);
        // Scoring reads only the common block, split off the city blocks.
        assert!(m.theta_common.iter().all(|t| t.len() == COMMON_TOPICS));
        assert!(m.poi_topic_score.iter().all(|t| t.len() == COMMON_TOPICS));
    }

    #[test]
    fn user_topic_posteriors_are_distributions() {
        let (d, _) = tiny();
        for u in 0..d.num_users() {
            let theta = &st_lda().theta_common[u];
            let sum: f32 = theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "theta sums to {sum}");
            assert!(theta.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn both_presets_beat_chance() {
        let (d, split) = tiny();
        for method in [Method::StLda, Method::Ctlm] {
            let report = evaluate(fitted(method), d, split, &EvalConfig::default());
            let r10 = report.get(Metric::Recall, 10);
            assert!(r10 > 0.1, "{} recall@10 = {r10}", method.name());
        }
    }

    #[test]
    fn gibbs_is_seed_deterministic() {
        // Two fits: this module's and `fit_method`'s.
        let (d, split) = tiny();
        let pois = d.pois_in_city(CityId(1));
        for &u in &split.test_users {
            let scores = fitted(Method::StLda).score_batch(u, pois);
            assert_eq!(st_lda().score_batch(u, pois), scores);
        }
    }
}
