//! Shared logistic matrix-factorization machinery.
//!
//! Several baselines (LCE, PR-UIDT) are MF variants: latent user and POI
//! factors trained pointwise with sampled negatives under a logistic
//! loss. [`MfCore`] provides the factor storage and the SGD update; each
//! baseline composes it with its own extra structure.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, Dataset};

/// Dense latent factors with per-row SGD updates.
#[derive(Debug, Clone)]
pub(crate) struct Factors {
    data: Vec<f32>,
    dim: usize,
}

impl Factors {
    /// `count` rows of dimension `dim`, Gaussian-initialized.
    pub(crate) fn new(count: usize, dim: usize, std: f32, rng: &mut SmallRng) -> Self {
        let data = (0..count * dim).map(|_| std * gaussian(rng)).collect();
        Self { data, dim }
    }

    /// Factor dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub(crate) fn count(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Dot product of rows from two factor matrices.
    #[inline]
    pub(crate) fn dot(&self, i: usize, other: &Factors, j: usize) -> f32 {
        self.row(i)
            .iter()
            .zip(other.row(j))
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

/// Logistic MF: `P(y=1 | u, v) = sigma(p_u . q_v + b_v)`.
#[derive(Debug, Clone)]
pub(crate) struct MfCore {
    /// User factors.
    pub(crate) users: Factors,
    /// POI factors.
    pub(crate) pois: Factors,
    /// POI popularity biases.
    pub(crate) poi_bias: Vec<f32>,
}

impl MfCore {
    /// Allocates factors for the dataset.
    pub(crate) fn new(num_users: usize, num_pois: usize, dim: usize, rng: &mut SmallRng) -> Self {
        Self {
            users: Factors::new(num_users, dim, 0.1, rng),
            pois: Factors::new(num_pois, dim, 0.1, rng),
            poi_bias: vec![0.0; num_pois],
        }
    }

    /// Prediction logit for a (user, POI) pair.
    #[inline]
    pub(crate) fn logit(&self, user: usize, poi: usize) -> f32 {
        self.users.dot(user, &self.pois, poi) + self.poi_bias[poi]
    }

    /// One pointwise logistic SGD update; returns the example loss.
    pub(crate) fn sgd_update(
        &mut self,
        user: usize,
        poi: usize,
        label: f32,
        lr: f32,
        reg: f32,
    ) -> f32 {
        let z = self.logit(user, poi);
        let p = sigmoid(z);
        let err = p - label; // d loss / d z
        let dim = self.users.dim();
        // Update rows in lockstep without aliasing.
        for k in 0..dim {
            let pu = self.users.row(user)[k];
            let qv = self.pois.row(poi)[k];
            self.users.row_mut(user)[k] -= lr * (err * qv + reg * pu);
            self.pois.row_mut(poi)[k] -= lr * (err * pu + reg * qv);
        }
        self.poi_bias[poi] -= lr * (err + reg * self.poi_bias[poi]);
        bce(p, label)
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

/// Pointwise binary cross-entropy with probability clamping.
#[inline]
pub(crate) fn bce(p: f32, label: f32) -> f32 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    -(label * p.ln() + (1.0 - label) * (1.0 - p).ln())
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

/// Deterministic RNG for a baseline run.
pub(crate) fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
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
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit};
    use st_transrec_core::InteractionSampler;

    /// `epochs` passes of 2 000 sampled positives (4 negatives each)
    /// through [`MfCore::sgd_update`]; the mean loss of the last pass.
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
                    total +=
                        mf.sgd_update(batch.users[i], batch.pois[i], batch.labels[i], 0.05, 1e-4);
                    n += 1;
                }
            }
            last = total / n as f32;
        }
        last
    }

    #[test]
    fn sgd_moves_logit_toward_label() {
        let mut rng = seeded(0);
        let mut mf = MfCore::new(2, 2, 8, &mut rng);
        let before = mf.logit(0, 1);
        for _ in 0..50 {
            mf.sgd_update(0, 1, 1.0, 0.1, 0.0);
        }
        assert!(mf.logit(0, 1) > before + 1.0);
        for _ in 0..100 {
            mf.sgd_update(0, 1, 0.0, 0.1, 0.0);
        }
        assert!(sigmoid(mf.logit(0, 1)) < 0.3);
    }

    #[test]
    fn regularization_shrinks_factors() {
        let mut rng = seeded(1);
        let mut mf = MfCore::new(1, 1, 4, &mut rng);
        let norm_before: f32 = mf.users.row(0).iter().map(|x| x * x).sum();
        for _ in 0..200 {
            // label == prediction ~ 0.5 at z=0 keeps err small; reg dominates.
            let p = sigmoid(mf.logit(0, 0));
            mf.sgd_update(0, 0, p, 0.05, 0.1);
        }
        let norm_after: f32 = mf.users.row(0).iter().map(|x| x * x).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    fn training_reduces_loss_on_real_sampler() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let sampler = InteractionSampler::new(&d, &split.train, &[CityId(0), CityId(1)]);
        let mut rng = seeded(2);
        let mut mf = MfCore::new(d.num_users(), d.num_pois(), 16, &mut rng);
        let first = train(&mut mf, &d, &sampler, 1, &mut rng);
        let mut rng2 = seeded(3);
        let last = train(&mut mf, &d, &sampler, 4, &mut rng2);
        assert!(last < first, "MF loss did not drop: {first} -> {last}");
    }

    #[test]
    fn word_profiles_are_normalized_and_sparse() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let profiles = user_word_profiles(&d, &split.train);
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
