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

use crate::mf::seeded;
use rand::Rng;
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;

/// Configuration of the Gibbs-sampled topic models.
#[derive(Debug, Clone)]
pub(crate) struct TopicConfig {
    /// Number of *common* topics.
    pub(crate) common_topics: usize,
    /// City-specific topics per city (0 = plain LDA, i.e. ST-LDA).
    pub(crate) city_topics: usize,
    /// Dirichlet prior on document-topic distributions.
    pub(crate) alpha: f64,
    /// Dirichlet prior on topic-word distributions.
    pub(crate) beta: f64,
    /// Gibbs sweeps.
    pub(crate) iterations: usize,
    /// Max tokens per user document (subsampled beyond this).
    pub(crate) max_tokens_per_user: usize,
    /// Crowd/popularity mixing weight in the final score.
    pub(crate) crowd_weight: f32,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for TopicConfig {
    fn default() -> Self {
        Self {
            common_topics: 16,
            city_topics: 0,
            alpha: 0.5,
            beta: 0.05,
            iterations: 30,
            max_tokens_per_user: 400,
            crowd_weight: 0.3,
            seed: 17,
        }
    }
}

impl TopicConfig {
    /// ST-LDA preset: all topics common.
    pub(crate) fn st_lda() -> Self {
        Self::default()
    }

    /// CTLM preset: common topics plus per-city specific topics that
    /// absorb city-dependent words.
    pub(crate) fn ctlm() -> Self {
        Self {
            common_topics: 16,
            city_topics: 4,
            ..Self::default()
        }
    }
}

/// A fitted topic-model recommender (either preset).
#[derive(Debug)]
pub(crate) struct TopicModel {
    /// `theta[user][topic]`, renormalized over common topics for scoring.
    theta_common: Vec<Vec<f32>>,
    /// Per-POI common-topic affinity: mean of `phi_t[w]` over the POI's
    /// words, for each common topic.
    poi_topic_score: Vec<Vec<f32>>,
    /// Normalized target-city popularity (the crowd preference).
    crowd: Vec<f32>,
    crowd_weight: f32,
}

impl TopicModel {
    /// Fits the model on training check-ins with Gibbs sampling.
    pub(crate) fn fit(
        dataset: &Dataset,
        train: &[Checkin],
        target: CityId,
        config: &TopicConfig,
    ) -> Self {
        assert!(config.common_topics >= 1, "need at least one common topic");
        assert!(config.iterations >= 1);
        let mut rng = seeded(config.seed);
        let num_cities = dataset.cities().len();
        let num_topics = config.common_topics + num_cities * config.city_topics;
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
            if doc.len() > config.max_tokens_per_user {
                for i in 0..config.max_tokens_per_user {
                    let j = rng.gen_range(i..doc.len());
                    doc.swap(i, j);
                }
                doc.truncate(config.max_tokens_per_user);
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
            let specific_start = config.common_topics + city as usize * config.city_topics;
            (
                0..config.common_topics,
                specific_start..specific_start + config.city_topics,
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
        let alpha = config.alpha;
        let beta = config.beta;
        let vbeta = vocab as f64 * beta;
        let mut weights: Vec<f64> = Vec::with_capacity(num_topics);
        for _ in 0..config.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &(w, city)) in doc.iter().enumerate() {
                    let old = assign[d][i] as usize;
                    n_dk[d * num_topics + old] -= 1;
                    n_kw[old * vocab + w as usize] -= 1;
                    n_k[old] -= 1;

                    let (common, specific) = allowed(city);
                    weights.clear();
                    let mut push = |t: usize| {
                        let p = (n_dk[d * num_topics + t] as f64 + alpha)
                            * (n_kw[t * vocab + w as usize] as f64 + beta)
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
        let c = config.common_topics;
        let theta_common: Vec<Vec<f32>> = (0..dataset.num_users())
            .map(|d| {
                let row = &n_dk[d * num_topics..d * num_topics + c];
                let total: f64 = row.iter().map(|&x| x as f64 + alpha).sum();
                row.iter()
                    .map(|&x| ((x as f64 + alpha) / total) as f32)
                    .collect()
            })
            .collect();
        let phi: Vec<Vec<f64>> = (0..c)
            .map(|t| {
                let row = &n_kw[t * vocab..(t + 1) * vocab];
                let denom = n_k[t] as f64 + vbeta;
                row.iter().map(|&x| (x as f64 + beta) / denom).collect()
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
            crowd_weight: config.crowd_weight,
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
                (1.0 - self.crowd_weight) * affinity + self.crowd_weight * self.crowd[p.idx()]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;
    use st_eval::{evaluate, EvalConfig, Metric};

    fn setup() -> (Dataset, CrossingCitySplit) {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        (d, split)
    }

    fn quick(mut cfg: TopicConfig) -> TopicConfig {
        cfg.iterations = 15;
        cfg
    }

    #[test]
    fn st_lda_has_no_city_topics() {
        let (d, split) = setup();
        let cfg = quick(TopicConfig::st_lda());
        assert_eq!(cfg.city_topics, 0);
        let m = TopicModel::fit(&d, &split.train, CityId(1), &cfg);
        assert!(m.theta_common.iter().all(|t| t.len() == cfg.common_topics));
    }

    #[test]
    fn ctlm_partitions_topics_per_city() {
        let (d, split) = setup();
        let cfg = quick(TopicConfig::ctlm());
        assert!(cfg.city_topics > 0);
        let m = TopicModel::fit(&d, &split.train, CityId(1), &cfg);
        // Scoring reads only the common block, split off the city blocks.
        assert!(m.theta_common.iter().all(|t| t.len() == cfg.common_topics));
        assert!(m
            .poi_topic_score
            .iter()
            .all(|t| t.len() == cfg.common_topics));
    }

    #[test]
    fn user_topic_posteriors_are_distributions() {
        let (d, split) = setup();
        let m = TopicModel::fit(&d, &split.train, CityId(1), &quick(TopicConfig::st_lda()));
        for u in 0..d.num_users() as u32 {
            let theta = &m.theta_common[u as usize];
            let sum: f32 = theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "theta sums to {sum}");
            assert!(theta.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn both_presets_beat_chance() {
        let (d, split) = setup();
        for cfg in [TopicConfig::st_lda(), TopicConfig::ctlm()] {
            let m = TopicModel::fit(&d, &split.train, CityId(1), &quick(cfg));
            let report = evaluate(&m, &d, &split, &EvalConfig::default());
            let r10 = report.get(Metric::Recall, 10);
            assert!(r10 > 0.1, "topic model recall@10 = {r10}");
        }
    }

    #[test]
    fn gibbs_is_seed_deterministic() {
        let (d, split) = setup();
        let cfg = quick(TopicConfig::st_lda());
        let a = TopicModel::fit(&d, &split.train, CityId(1), &cfg);
        let b = TopicModel::fit(&d, &split.train, CityId(1), &cfg);
        assert_eq!(a.theta_common[0], b.theta_common[0]);
    }
}
