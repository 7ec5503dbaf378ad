//! PR-UIDT — cross-city MF with interest drift and transfer
//! (Ding et al., IMWUT'19).
//!
//! Each user has a *shared* factor (the transferable interest) plus a
//! *city-specific drift* factor; an interaction in city `c` is scored by
//! `(u_shared + u_drift[c]) . q_v`. Following the paper's adaptation for
//! our zero-overlap scenario ("this model makes users' preferences
//! learned from the source city directly match POIs in the target
//! city"), target-city scoring uses only the shared factor.

use crate::mf::{bce, seeded, sigmoid, Factors};
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_transrec_core::InteractionSampler;

/// PR-UIDT hyperparameters.
#[derive(Debug, Clone)]
pub(crate) struct PrUidtConfig {
    /// Latent dimensionality.
    pub(crate) dim: usize,
    /// SGD epochs.
    pub(crate) epochs: usize,
    /// Interaction samples per epoch (positives + negatives).
    pub(crate) samples_per_epoch: usize,
    /// Negatives per positive.
    pub(crate) negatives: usize,
    /// Learning rate.
    pub(crate) lr: f32,
    /// L2 regularization; the drift factor gets `10x` this (it must stay
    /// small relative to the shared interest — the paper's drift prior).
    pub(crate) reg: f32,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for PrUidtConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            epochs: 6,
            samples_per_epoch: 20_000,
            negatives: 4,
            lr: 0.05,
            reg: 1e-4,
            seed: 13,
        }
    }
}

/// The trained PR-UIDT model.
#[derive(Debug)]
pub(crate) struct PrUidt {
    shared: Factors,
    /// One drift block per city, laid out `[city][user]`.
    drift: Vec<Factors>,
    pois: Factors,
    poi_bias: Vec<f32>,
}

impl PrUidt {
    /// Fits on all training interactions, learning per-city drift.
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], config: &PrUidtConfig) -> Self {
        let mut rng = seeded(config.seed);
        let mut model = Self {
            shared: Factors::new(dataset.num_users(), config.dim, 0.1, &mut rng),
            drift: (0..dataset.cities().len())
                .map(|_| Factors::new(dataset.num_users(), config.dim, 0.01, &mut rng))
                .collect(),
            pois: Factors::new(dataset.num_pois(), config.dim, 0.1, &mut rng),
            poi_bias: vec![0.0; dataset.num_pois()],
        };
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        let per_epoch = config.samples_per_epoch / (1 + config.negatives);
        for _ in 0..config.epochs {
            let batch = sampler.sample_batch(dataset, per_epoch, config.negatives, &mut rng);
            for i in 0..batch.len() {
                let city = dataset.poi(PoiId(batch.pois[i] as u32)).city;
                model.sgd_update(batch.users[i], batch.pois[i], city, batch.labels[i], config);
            }
        }
        model
    }

    fn train_logit(&self, user: usize, poi: usize, city: CityId) -> f32 {
        let s = self.shared.dot(user, &self.pois, poi);
        let d = self.drift[city.idx()].dot(user, &self.pois, poi);
        s + d + self.poi_bias[poi]
    }

    fn sgd_update(
        &mut self,
        user: usize,
        poi: usize,
        city: CityId,
        label: f32,
        config: &PrUidtConfig,
    ) -> f32 {
        let z = self.train_logit(user, poi, city);
        let p = sigmoid(z);
        let err = p - label;
        let (lr, reg) = (config.lr, config.reg);
        let drift = &mut self.drift[city.idx()];
        for k in 0..config.dim {
            let su = self.shared.row(user)[k];
            let du = drift.row(user)[k];
            let qv = self.pois.row(poi)[k];
            self.shared.row_mut(user)[k] -= lr * (err * qv + reg * su);
            drift.row_mut(user)[k] -= lr * (err * qv + 10.0 * reg * du);
            self.pois.row_mut(poi)[k] -= lr * (err * (su + du) + reg * qv);
        }
        self.poi_bias[poi] -= lr * (err + reg * self.poi_bias[poi]);
        bce(p, label)
    }
}

impl Scorer for PrUidt {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        // Evaluation ranks target-city POIs, where no drift was ever
        // observed: score with the shared (transferable) factor only. The
        // logit ranks like the loss's sigmoid, without its saturated ties.
        pois.iter()
            .map(|p| self.shared.dot(user.idx(), &self.pois, p.idx()) + self.poi_bias[p.idx()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;
    use st_eval::{evaluate, EvalConfig, Metric};

    fn quick() -> PrUidtConfig {
        PrUidtConfig {
            epochs: 4,
            samples_per_epoch: 6_000,
            ..PrUidtConfig::default()
        }
    }

    fn setup() -> (Dataset, CrossingCitySplit) {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        (d, split)
    }

    #[test]
    fn drift_stays_smaller_than_shared_interest() {
        let (d, split) = setup();
        let m = PrUidt::fit(&d, &split.train, &quick());
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
        let (d, split) = setup();
        let m = PrUidt::fit(&d, &split.train, &quick());
        let report = evaluate(&m, &d, &split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.1, "PR-UIDT recall@10 = {r10}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let (d, split) = setup();
        let m = PrUidt::fit(&d, &split.train, &quick());
        let pois = d.pois_in_city(CityId(1));
        assert_eq!(
            m.score_batch(UserId(1), pois),
            m.score_batch(UserId(1), pois)
        );
    }
}
