//! Shared logistic matrix-factorization machinery.
//!
//! Three baselines (LCE, PR-UIDT, SH-CDL) are MF variants: latent user
//! and POI factors trained pointwise with sampled negatives under a
//! logistic loss, at the one budget below. [`MfCore`] holds the factors
//! and the SGD update; each baseline composes it, or the same
//! [`gaussian_factors`] and [`dot`], with its own extra structure.

use rand::rngs::SmallRng;
use rand::Rng;
use st_data::{Checkin, Dataset};
use st_tensor::Matrix;

/// SGD learning rate of the MF baselines.
pub(crate) const LR: f32 = 0.05;
/// L2 regularization of the MF baselines.
pub(crate) const REG: f32 = 1e-4;
/// Sampled negatives per positive.
pub(crate) const NEGATIVES: usize = 4;
/// SGD epochs.
pub(crate) const EPOCHS: usize = 8;
/// Samples (positives and negatives) per epoch.
pub(crate) const SAMPLES_PER_EPOCH: usize = 60_000;
/// Positives drawn per epoch.
pub(crate) const POSITIVES_PER_EPOCH: usize = SAMPLES_PER_EPOCH / (1 + NEGATIVES);

/// `count` factor rows of width `dim`, each entry `std` times a
/// standard normal draw, in row-major order.
pub(crate) fn gaussian_factors(count: usize, dim: usize, std: f32, rng: &mut SmallRng) -> Matrix {
    let data = (0..count * dim).map(|_| std * gaussian(rng)).collect();
    Matrix::from_vec(count, dim, data)
}

/// Dot product of two factor rows, summed left to right.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&a, &b)| a * b).sum()
}

/// Logistic MF: `P(y=1 | u, v) = sigma(p_u . q_v + b_v)`.
#[derive(Debug, Clone)]
pub(crate) struct MfCore {
    /// User factors.
    pub(crate) users: Matrix,
    /// POI factors.
    pub(crate) pois: Matrix,
    /// POI popularity biases.
    pub(crate) poi_bias: Vec<f32>,
}

impl MfCore {
    /// Allocates factors for the dataset.
    pub(crate) fn new(num_users: usize, num_pois: usize, dim: usize, rng: &mut SmallRng) -> Self {
        Self {
            users: gaussian_factors(num_users, dim, 0.1, rng),
            pois: gaussian_factors(num_pois, dim, 0.1, rng),
            poi_bias: vec![0.0; num_pois],
        }
    }

    /// Prediction logit for a (user, POI) pair.
    #[inline]
    pub(crate) fn logit(&self, user: usize, poi: usize) -> f32 {
        dot(self.users.row(user), self.pois.row(poi)) + self.poi_bias[poi]
    }

    /// One pointwise logistic SGD update at [`LR`] and [`REG`].
    pub(crate) fn sgd_update(&mut self, user: usize, poi: usize, label: f32) {
        let err = sigmoid(self.logit(user, poi)) - label; // d loss / d z
        let (p_u, q_v) = (self.users.row_mut(user), self.pois.row_mut(poi));
        for (pu, qv) in p_u.iter_mut().zip(q_v) {
            let (u, q) = (*pu, *qv);
            *pu -= LR * (err * q + REG * u);
            *qv -= LR * (err * u + REG * q);
        }
        self.poi_bias[poi] -= LR * (err + REG * self.poi_bias[poi]);
    }
}

/// Overflow-safe sigmoid (shared by the classic-ML baselines).
#[inline]
pub(crate) fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Standard normal via Box-Muller.
pub(crate) fn gaussian(rng: &mut SmallRng) -> f32 {
    loop {
        let u1: f32 = rng.gen();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    }
}

/// Builds a per-user word-frequency profile from training check-ins,
/// L2-normalized (shared by the content-based baselines).
pub(crate) fn user_word_profiles(dataset: &Dataset, train: &[Checkin]) -> Vec<Vec<(u32, f32)>> {
    use std::collections::HashMap;
    let mut raw: Vec<HashMap<u32, f32>> = vec![HashMap::new(); dataset.num_users()];
    for c in train {
        for &w in &dataset.poi(c.poi).words {
            *raw[c.user.idx()].entry(w.0).or_default() += 1.0;
        }
    }
    raw.into_iter()
        .map(|m| {
            let norm: f32 = m.values().map(|v| v * v).sum::<f32>().sqrt().max(1e-9);
            let mut v: Vec<(u32, f32)> = m.into_iter().map(|(w, c)| (w, c / norm)).collect();
            v.sort_unstable_by_key(|&(w, _)| w);
            v
        })
        .collect()
}

/// Cosine similarity between a sparse profile and a POI's word set
/// (each POI word weighted 1/sqrt(|words|)).
pub(crate) fn profile_poi_cosine(profile: &[(u32, f32)], poi_words: &[st_data::WordId]) -> f32 {
    if poi_words.is_empty() {
        return 0.0;
    }
    let w = 1.0 / (poi_words.len() as f32).sqrt();
    let mut score = 0.0;
    for word in poi_words {
        if let Ok(pos) = profile.binary_search_by_key(&word.0, |&(w, _)| w) {
            score += profile[pos].1 * w;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny;
    use rand::SeedableRng;
    use st_data::CityId;
    use st_transrec_core::InteractionSampler;

    /// Binary cross-entropy of probability `p`, clamped away from 0 and 1.
    fn bce(p: f32, label: f32) -> f32 {
        let p = p.clamp(1e-7, 1.0 - 1e-7);
        -(label * p.ln() + (1.0 - label) * (1.0 - p).ln())
    }

    /// `epochs` passes of 2 000 sampled positives (4 negatives each)
    /// through [`MfCore::sgd_update`]; the mean loss of the last pass,
    /// each example's taken just before its update.
    fn train(
        mf: &mut MfCore,
        d: &Dataset,
        s: &InteractionSampler,
        epochs: usize,
        rng: &mut SmallRng,
    ) -> f32 {
        let mut last = 0.0;
        for _ in 0..epochs {
            let (mut total, mut n) = (0.0, 0usize);
            for _ in 0..4 {
                let batch = s.sample_batch(d, 500, 4, rng);
                for i in 0..batch.len() {
                    let (u, p, label) = (batch.users[i], batch.pois[i], batch.labels[i]);
                    total += bce(sigmoid(mf.logit(u, p)), label);
                    mf.sgd_update(u, p, label);
                    n += 1;
                }
            }
            last = total / n as f32;
        }
        last
    }

    #[test]
    fn sgd_moves_logit_toward_label() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut mf = MfCore::new(2, 2, 8, &mut rng);
        let before = mf.logit(0, 1);
        for _ in 0..100 {
            mf.sgd_update(0, 1, 1.0);
        }
        assert!(mf.logit(0, 1) > before + 1.0);
        for _ in 0..200 {
            mf.sgd_update(0, 1, 0.0);
        }
        assert!(sigmoid(mf.logit(0, 1)) < 0.3);
    }

    #[test]
    fn regularization_shrinks_factors() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut mf = MfCore::new(1, 1, 4, &mut rng);
        let norm_before: f32 = mf.users.row(0).iter().map(|x| x * x).sum();
        for _ in 0..200 {
            // label == prediction makes err exactly 0: only reg moves.
            let p = sigmoid(mf.logit(0, 0));
            mf.sgd_update(0, 0, p);
        }
        let norm_after: f32 = mf.users.row(0).iter().map(|x| x * x).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    fn training_reduces_loss_on_real_sampler() {
        let (d, split) = tiny();
        let sampler = InteractionSampler::new(d, &split.train, &[CityId(0), CityId(1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut mf = MfCore::new(d.num_users(), d.num_pois(), 16, &mut rng);
        let first = train(&mut mf, d, &sampler, 1, &mut rng);
        let mut rng2 = SmallRng::seed_from_u64(3);
        let last = train(&mut mf, d, &sampler, 4, &mut rng2);
        assert!(last < first, "MF loss did not drop: {first} -> {last}");
    }

    #[test]
    fn word_profiles_are_normalized_and_sparse() {
        let (d, split) = tiny();
        let profiles = user_word_profiles(d, &split.train);
        assert_eq!(profiles.len(), d.num_users());
        for p in &profiles {
            if p.is_empty() {
                continue;
            }
            let norm: f32 = p.iter().map(|&(_, v)| v * v).sum();
            assert!((norm - 1.0).abs() < 1e-4, "profile norm {norm}");
            // Sorted by word id for binary search.
            assert!(p.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn cosine_favours_matching_words() {
        let profile = vec![(1u32, 0.8f32), (5, 0.6)];
        let hit = profile_poi_cosine(&profile, &[st_data::WordId(1)]);
        let miss = profile_poi_cosine(&profile, &[st_data::WordId(9)]);
        assert!(hit > 0.0);
        assert_eq!(miss, 0.0);
        assert_eq!(profile_poi_cosine(&profile, &[]), 0.0);
    }
}
