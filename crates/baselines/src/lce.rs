//! LCE — Local Collective Embeddings (Saveski & Mantrach, RecSys'14).
//!
//! Joint factorization of the user-POI interaction matrix and the
//! POI-word content matrix with *shared POI factors*: interactions teach
//! `U V^T`, content teaches `V W^T`. The shared `V` lets content carry
//! cold-start POIs (here: all target-city POIs are cold for test users).

use crate::mf::{bce, seeded, sigmoid, Factors, MfCore};
use rand::Rng;
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_transrec_core::InteractionSampler;

/// LCE hyperparameters.
#[derive(Debug, Clone)]
pub(crate) struct LceConfig {
    /// Latent dimensionality.
    pub(crate) dim: usize,
    /// SGD epochs.
    pub(crate) epochs: usize,
    /// Interaction samples per epoch.
    pub(crate) samples_per_epoch: usize,
    /// Negatives per positive (both matrices).
    pub(crate) negatives: usize,
    /// Learning rate.
    pub(crate) lr: f32,
    /// L2 regularization.
    pub(crate) reg: f32,
    /// Weight of the content factorization term.
    pub(crate) content_weight: f32,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for LceConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            epochs: 6,
            samples_per_epoch: 20_000,
            negatives: 4,
            lr: 0.05,
            reg: 1e-4,
            content_weight: 0.5,
            seed: 11,
        }
    }
}

/// The trained LCE model.
#[derive(Debug)]
pub(crate) struct Lce {
    mf: MfCore,
    /// The word factors of the content factorization; scoring reads
    /// only `mf`, so they are kept for this module's tests.
    #[cfg(test)]
    words: Factors,
}

impl Lce {
    /// Fits LCE on the training split (all cities jointly; the shared POI
    /// factors tie target POIs to source preferences through words).
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], config: &LceConfig) -> Self {
        let mut rng = seeded(config.seed);
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        let mut mf = MfCore::new(
            dataset.num_users(),
            dataset.num_pois(),
            config.dim,
            &mut rng,
        );
        let mut words = Factors::new(dataset.vocab().len().max(1), config.dim, 0.1, &mut rng);

        // Flat (poi, word) edge list for content sampling.
        let edges: Vec<(u32, u32)> = dataset
            .pois()
            .iter()
            .flat_map(|p| p.words.iter().map(move |w| (p.id.0, w.0)))
            .collect();
        assert!(!edges.is_empty(), "dataset has no POI words");

        for _ in 0..config.epochs {
            // Interaction term.
            let batch = sampler.sample_batch(
                dataset,
                config.samples_per_epoch / (1 + config.negatives),
                config.negatives,
                &mut rng,
            );
            for i in 0..batch.len() {
                mf.sgd_update(
                    batch.users[i],
                    batch.pois[i],
                    batch.labels[i],
                    config.lr,
                    config.reg,
                );
            }
            // Content term: positive edges + uniform negative words.
            for _ in 0..config.samples_per_epoch / (1 + config.negatives) {
                let &(poi, word) = &edges[rng.gen_range(0..edges.len())];
                content_update(
                    &mut mf,
                    &mut words,
                    poi as usize,
                    word as usize,
                    1.0,
                    config,
                );
                for _ in 0..config.negatives {
                    let neg = rng.gen_range(0..words.count());
                    content_update(&mut mf, &mut words, poi as usize, neg, 0.0, config);
                }
            }
        }
        Self {
            mf,
            #[cfg(test)]
            words,
        }
    }
}

fn content_update(
    mf: &mut MfCore,
    words: &mut Factors,
    poi: usize,
    word: usize,
    label: f32,
    config: &LceConfig,
) -> f32 {
    let z = mf.pois.dot(poi, words, word);
    let p = sigmoid(z);
    let err = config.content_weight * (p - label);
    let lr = config.lr;
    let reg = config.reg;
    for k in 0..words.dim() {
        let v = mf.pois.row(poi)[k];
        let w = words.row(word)[k];
        mf.pois.row_mut(poi)[k] -= lr * (err * w + reg * v);
        words.row_mut(word)[k] -= lr * (err * v + reg * w);
    }
    bce(p, label)
}

impl Scorer for Lce {
    /// The logit: it ranks like the sigmoid of the loss, without the
    /// exact ties the sigmoid saturates into at 1.0.
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        pois.iter()
            .map(|p| self.mf.logit(user.idx(), p.idx()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;
    use st_eval::{evaluate, EvalConfig, Metric};

    fn quick_config() -> LceConfig {
        LceConfig {
            epochs: 3,
            samples_per_epoch: 4_000,
            ..LceConfig::default()
        }
    }

    #[test]
    fn content_factorization_learns_poi_word_structure() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let m = Lce::fit(&d, &split.train, &quick_config());
        // A POI's own words should score higher than random words, on
        // average over many POIs.
        let mut own = 0.0;
        let mut other = 0.0;
        let mut n = 0;
        for poi in d.pois().iter().take(40) {
            for &w in poi.words.iter().take(2) {
                let logit = |word| m.mf.pois.dot(poi.id.idx(), &m.words, word);
                own += logit(w.idx());
                other += logit((w.idx() + 13) % d.vocab().len());
                n += 1;
            }
        }
        assert!(
            own / n as f32 > other / n as f32,
            "content structure not learned: own {own}, other {other}"
        );
    }

    #[test]
    fn beats_chance_on_crossing_city_eval() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let m = Lce::fit(&d, &split.train, &quick_config());
        let report = evaluate(&m, &d, &split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        // ~100 negatives + small GT: chance recall@10 ~ 0.1.
        assert!(r10 > 0.1, "LCE recall@10 = {r10}");
    }
}
