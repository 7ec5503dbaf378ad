//! LCE — Local Collective Embeddings (Saveski & Mantrach, RecSys'14).
//!
//! Joint factorization of the user-POI interaction matrix and the
//! POI-word content matrix with *shared POI factors*: interactions teach
//! `U V^T`, content teaches `V W^T`. The shared `V` lets content carry
//! cold-start POIs (here: all target-city POIs are cold for test users).

use crate::mf::{
    dot, gaussian_factors, sigmoid, MfCore, EPOCHS, LR, NEGATIVES, POSITIVES_PER_EPOCH, REG,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_tensor::Matrix;
use st_transrec_core::InteractionSampler;

/// RNG seed.
const SEED: u64 = 11;
/// Weight of the content factorization term against the interaction term.
const CONTENT_WEIGHT: f32 = 0.5;

/// The trained LCE model.
#[derive(Debug)]
pub(crate) struct Lce {
    mf: MfCore,
    /// The word factors of the content factorization; scoring reads
    /// only `mf`, so they are kept for this module's tests.
    #[cfg(test)]
    words: Matrix,
}

impl Lce {
    /// Fits LCE with `dim`-wide factors on the training split (all cities
    /// jointly; the shared POI factors tie target POIs to source
    /// preferences through words).
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], dim: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        let mut mf = MfCore::new(dataset.num_users(), dataset.num_pois(), dim, &mut rng);
        let mut words = gaussian_factors(dataset.vocab().len().max(1), dim, 0.1, &mut rng);

        // Flat (poi, word) edge list for content sampling.
        let edges: Vec<(u32, u32)> = dataset
            .pois()
            .iter()
            .flat_map(|p| p.words.iter().map(move |w| (p.id.0, w.0)))
            .collect();
        assert!(!edges.is_empty(), "dataset has no POI words");

        for _ in 0..EPOCHS {
            // Interaction term.
            let batch = sampler.sample_batch(dataset, POSITIVES_PER_EPOCH, NEGATIVES, &mut rng);
            for i in 0..batch.len() {
                mf.sgd_update(batch.users[i], batch.pois[i], batch.labels[i]);
            }
            // Content term: positive edges + uniform negative words.
            for _ in 0..POSITIVES_PER_EPOCH {
                let &(poi, word) = &edges[rng.gen_range(0..edges.len())];
                content_update(&mut mf, &mut words, poi as usize, word as usize, 1.0);
                for _ in 0..NEGATIVES {
                    let neg = rng.gen_range(0..words.rows());
                    content_update(&mut mf, &mut words, poi as usize, neg, 0.0);
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

/// One logistic SGD step of the content factorization on (poi, word).
fn content_update(mf: &mut MfCore, words: &mut Matrix, poi: usize, word: usize, label: f32) {
    let v_row = mf.pois.row_mut(poi);
    let w_row = words.row_mut(word);
    let err = CONTENT_WEIGHT * (sigmoid(dot(v_row, w_row)) - label);
    for (v, w) in v_row.iter_mut().zip(w_row) {
        let (vk, wk) = (*v, *w);
        *v -= LR * (err * wk + REG * vk);
        *w -= LR * (err * vk + REG * wk);
    }
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
    use crate::tests::{dim, fitted, tiny};
    use crate::Method;
    use st_eval::{evaluate, EvalConfig, Metric};

    #[test]
    fn content_factorization_learns_poi_word_structure() {
        let (d, split) = tiny();
        let m = Lce::fit(d, &split.train, dim());
        // A POI's own words should score higher than random words, on
        // average over many POIs.
        let mut own = 0.0;
        let mut other = 0.0;
        let mut n = 0;
        for poi in d.pois().iter().take(40) {
            for &w in poi.words.iter().take(2) {
                let logit = |word| dot(m.mf.pois.row(poi.id.idx()), m.words.row(word));
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
        let (d, split) = tiny();
        let report = evaluate(fitted(Method::Lce), d, split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        // ~100 negatives + small GT: chance recall@10 ~ 0.1.
        assert!(r10 > 0.1, "LCE recall@10 = {r10}");
    }
}
