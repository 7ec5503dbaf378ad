//! PR-UIDT — cross-city MF with interest drift and transfer
//! (Ding et al., IMWUT'19).
//!
//! Each user has a *shared* factor (the transferable interest) plus a
//! *city-specific drift* factor; an interaction in city `c` is scored by
//! `(u_shared + u_drift[c]) . q_v`. Following the paper's adaptation for
//! our zero-overlap scenario ("this model makes users' preferences
//! learned from the source city directly match POIs in the target
//! city"), target-city scoring uses only the shared factor.

use crate::mf::{dot, gaussian_factors, sigmoid, EPOCHS, LR, NEGATIVES, POSITIVES_PER_EPOCH, REG};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_tensor::Matrix;
use st_transrec_core::InteractionSampler;

/// RNG seed.
const SEED: u64 = 13;

/// The trained PR-UIDT model.
#[derive(Debug)]
pub(crate) struct PrUidt {
    shared: Matrix,
    /// One drift block per city, laid out `[city][user]`.
    drift: Vec<Matrix>,
    pois: Matrix,
    poi_bias: Vec<f32>,
}

impl PrUidt {
    /// Fits `dim`-wide factors on all training interactions, learning
    /// per-city drift.
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], dim: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut model = Self {
            shared: gaussian_factors(dataset.num_users(), dim, 0.1, &mut rng),
            drift: (0..dataset.cities().len())
                .map(|_| gaussian_factors(dataset.num_users(), dim, 0.01, &mut rng))
                .collect(),
            pois: gaussian_factors(dataset.num_pois(), dim, 0.1, &mut rng),
            poi_bias: vec![0.0; dataset.num_pois()],
        };
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        for _ in 0..EPOCHS {
            let batch = sampler.sample_batch(dataset, POSITIVES_PER_EPOCH, NEGATIVES, &mut rng);
            for i in 0..batch.len() {
                let city = dataset.poi(PoiId(batch.pois[i] as u32)).city;
                model.sgd_update(batch.users[i], batch.pois[i], city, batch.labels[i]);
            }
        }
        model
    }

    fn train_logit(&self, user: usize, poi: usize, city: CityId) -> f32 {
        let s = dot(self.shared.row(user), self.pois.row(poi));
        let d = dot(self.drift[city.idx()].row(user), self.pois.row(poi));
        s + d + self.poi_bias[poi]
    }

    /// One logistic SGD step. The drift factor is regularized `10x`
    /// harder than the shared one: it must stay small relative to the
    /// shared interest (the paper's drift prior).
    fn sgd_update(&mut self, user: usize, poi: usize, city: CityId, label: f32) {
        let err = sigmoid(self.train_logit(user, poi, city)) - label;
        let shared = self.shared.row_mut(user);
        let drift = self.drift[city.idx()].row_mut(user);
        for ((s, d), q) in shared.iter_mut().zip(drift).zip(self.pois.row_mut(poi)) {
            let (su, du, qv) = (*s, *d, *q);
            *s -= LR * (err * qv + REG * su);
            *d -= LR * (err * qv + 10.0 * REG * du);
            *q -= LR * (err * (su + du) + REG * qv);
        }
        self.poi_bias[poi] -= LR * (err + REG * self.poi_bias[poi]);
    }
}

impl Scorer for PrUidt {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        // Evaluation ranks target-city POIs, where no drift was ever
        // observed: score with the shared (transferable) factor only. The
        // logit ranks like the loss's sigmoid, without its saturated ties.
        pois.iter()
            .map(|p| {
                dot(self.shared.row(user.idx()), self.pois.row(p.idx())) + self.poi_bias[p.idx()]
            })
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
    fn drift_stays_smaller_than_shared_interest() {
        let (d, split) = tiny();
        let m = PrUidt::fit(d, &split.train, dim());
        let norm = |row: &[f32]| row.iter().map(|x| x * x).sum::<f32>().sqrt();
        let mut shared_sum = 0.0;
        let mut drift_sum = 0.0;
        for u in 0..d.num_users() {
            shared_sum += norm(m.shared.row(u));
            drift_sum += norm(m.drift[0].row(u));
        }
        assert!(
            drift_sum < shared_sum,
            "drift ({drift_sum}) should stay below shared ({shared_sum})"
        );
    }

    #[test]
    fn transfers_above_chance() {
        let (d, split) = tiny();
        let report = evaluate(fitted(Method::PrUidt), d, split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.1, "PR-UIDT recall@10 = {r10}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let (d, _) = tiny();
        let m = fitted(Method::PrUidt);
        let pois = d.pois_in_city(CityId(1));
        assert_eq!(
            m.score_batch(UserId(1), pois),
            m.score_batch(UserId(1), pois)
        );
    }
}
