//! SH-CDL — spatial-aware hierarchical collaborative deep learning
//! (Yin et al., TKDE'17).
//!
//! The original unifies a deep belief network over heterogeneous POI
//! features with matrix factorization. We reproduce its essential
//! mechanism at the fidelity the comparison needs: a deep autoencoder
//! (trained with `st-tensor`) compresses each POI's bag-of-words content
//! into a latent code, and user factors are learned against those codes
//! (plus a learned per-POI offset) by logistic SGD. Deep content
//! representations transfer across cities; the *user-preference* side —
//! unlike ST-TransRec — gets no distribution alignment, which is exactly
//! the gap the paper's comparison highlights.

use crate::mf::{bce, seeded, sigmoid, Factors};
use rand::rngs::SmallRng;
use rand::Rng;
use st_data::{Checkin, CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_tensor::{Activation, Adam, Gradients, Matrix, Mlp, Optimizer, ParamStore, Tape};
use st_transrec_core::InteractionSampler;

/// SH-CDL hyperparameters.
#[derive(Debug, Clone)]
pub struct ShCdlConfig {
    /// Latent code width (also the user-factor width).
    pub dim: usize,
    /// Autoencoder epochs over POI content.
    pub ae_epochs: usize,
    /// Autoencoder batch size.
    pub ae_batch: usize,
    /// MF epochs.
    pub mf_epochs: usize,
    /// Interaction samples per MF epoch.
    pub samples_per_epoch: usize,
    /// Negatives per positive.
    pub negatives: usize,
    /// Autoencoder learning rate.
    pub ae_lr: f32,
    /// MF learning rate.
    pub mf_lr: f32,
    /// MF L2 regularization.
    pub reg: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShCdlConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            ae_epochs: 8,
            ae_batch: 64,
            mf_epochs: 6,
            samples_per_epoch: 20_000,
            negatives: 4,
            ae_lr: 1e-2,
            mf_lr: 0.05,
            reg: 1e-4,
            seed: 19,
        }
    }
}

/// The trained SH-CDL model.
#[derive(Debug)]
pub struct ShCdl {
    /// Frozen deep POI codes, one row per POI.
    codes: Vec<Vec<f32>>,
    users: Factors,
    poi_offset: Factors,
    poi_bias: Vec<f32>,
    dim: usize,
}

impl ShCdl {
    /// Fits the two stages: autoencoder on POI content, then MF on codes.
    pub fn fit(dataset: &Dataset, train: &[Checkin], config: &ShCdlConfig) -> Self {
        let mut rng = seeded(config.seed);
        let codes = train_autoencoder(dataset, config, &mut rng);

        let mut users = Factors::new(dataset.num_users(), config.dim, 0.1, &mut rng);
        let mut poi_offset = Factors::new(dataset.num_pois(), config.dim, 0.01, &mut rng);
        let mut poi_bias = vec![0.0f32; dataset.num_pois()];
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        let per_epoch = config.samples_per_epoch / (1 + config.negatives);
        for _ in 0..config.mf_epochs {
            let batch = sampler.sample_batch(dataset, per_epoch, config.negatives, &mut rng);
            for i in 0..batch.len() {
                let (u, p, label) = (batch.users[i], batch.pois[i], batch.labels[i]);
                // Item representation: frozen deep code + learned offset.
                let z: f32 = users
                    .row(u)
                    .iter()
                    .zip(codes[p].iter().zip(poi_offset.row(p)))
                    .map(|(&uk, (&ck, &ok))| uk * (ck + ok))
                    .sum::<f32>()
                    + poi_bias[p];
                let prob = sigmoid(z);
                let err = prob - label;
                for (k, &ck) in codes[p].iter().enumerate() {
                    let uk = users.row(u)[k];
                    let item_k = ck + poi_offset.row(p)[k];
                    users.row_mut(u)[k] -= config.mf_lr * (err * item_k + config.reg * uk);
                    poi_offset.row_mut(p)[k] -=
                        config.mf_lr * (err * uk + config.reg * poi_offset.row(p)[k]);
                }
                poi_bias[p] -= config.mf_lr * (err + config.reg * poi_bias[p]);
                let _ = bce(prob, label);
            }
        }

        Self {
            codes,
            users,
            poi_offset,
            poi_bias,
            dim: config.dim,
        }
    }

    /// The deep content code of a POI.
    pub fn poi_code(&self, poi: PoiId) -> &[f32] {
        &self.codes[poi.idx()]
    }
}

/// Trains a `V -> 2*dim -> dim -> 2*dim -> V` tied-free autoencoder on
/// binary POI bag-of-words rows; returns the bottleneck codes.
fn train_autoencoder(dataset: &Dataset, config: &ShCdlConfig, rng: &mut SmallRng) -> Vec<Vec<f32>> {
    let vocab = dataset.vocab().len().max(1);
    let mut store = ParamStore::new();
    let encoder = Mlp::new(
        &mut store,
        "enc",
        &[vocab, 2 * config.dim, config.dim],
        Activation::Tanh,
        0.0,
        rng,
    );
    let decoder = Mlp::new(
        &mut store,
        "dec",
        &[config.dim, 2 * config.dim, vocab],
        Activation::Tanh,
        0.0,
        rng,
    );
    let mut opt = Adam::new(config.ae_lr);

    let content_row = |poi: &st_data::Poi| -> Vec<f32> {
        let mut row = vec![0.0f32; vocab];
        for w in &poi.words {
            row[w.idx()] = 1.0;
        }
        row
    };

    let n = dataset.num_pois();
    for _ in 0..config.ae_epochs {
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.ae_batch) {
            let mut data = Vec::with_capacity(chunk.len() * vocab);
            for &p in chunk {
                data.extend(content_row(&dataset.pois()[p]));
            }
            let x = Matrix::from_vec(chunk.len(), vocab, data);
            let mut tape = Tape::new(&store);
            let xv = tape.input(x.clone());
            let code = encoder.forward_train(&mut tape, xv, rng);
            let logits = decoder.forward_train(&mut tape, code, rng);
            let loss = tape.bce_with_logits(logits, x.as_slice());
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
    }

    // Encode every POI with the trained encoder (inference mode).
    let mut codes = Vec::with_capacity(n);
    for chunk in (0..n).collect::<Vec<_>>().chunks(256) {
        let mut data = Vec::with_capacity(chunk.len() * vocab);
        for &p in chunk {
            data.extend(content_row(&dataset.pois()[p]));
        }
        let x = Matrix::from_vec(chunk.len(), vocab, data);
        let mut tape = Tape::new(&store);
        let xv = tape.input(x);
        let code = encoder.forward_inference(&mut tape, xv);
        let values = tape.value(code);
        for r in 0..chunk.len() {
            codes.push(values.row(r).to_vec());
        }
    }
    codes
}

impl Scorer for ShCdl {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        let u = self.users.row(user.idx());
        pois.iter()
            .map(|p| {
                let z: f32 = (0..self.dim)
                    .map(|k| u[k] * (self.codes[p.idx()][k] + self.poi_offset.row(p.idx())[k]))
                    .sum::<f32>()
                    + self.poi_bias[p.idx()];
                sigmoid(z)
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

    fn quick() -> ShCdlConfig {
        ShCdlConfig {
            dim: 16,
            ae_epochs: 4,
            mf_epochs: 3,
            samples_per_epoch: 6_000,
            ..ShCdlConfig::default()
        }
    }

    fn setup() -> (Dataset, CrossingCitySplit) {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        (d, split)
    }

    #[test]
    fn codes_cluster_by_shared_words() {
        let (d, split) = setup();
        let m = ShCdl::fit(&d, &split.train, &quick());
        let cosine = |a: &[f32], b: &[f32]| -> f32 {
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let share = |a: usize, b: usize| {
            d.pois()[a]
                .words
                .iter()
                .any(|w| d.pois()[b].words.contains(w))
        };
        let (mut s_sim, mut s_n, mut o_sim, mut o_n) = (0.0, 0, 0.0, 0);
        for a in 0..d.num_pois() {
            for b in (a + 1)..d.num_pois() {
                let c = cosine(m.poi_code(PoiId(a as u32)), m.poi_code(PoiId(b as u32)));
                if share(a, b) {
                    s_sim += c;
                    s_n += 1;
                } else {
                    o_sim += c;
                    o_n += 1;
                }
            }
        }
        let avg_s = s_sim / s_n.max(1) as f32;
        let avg_o = o_sim / o_n.max(1) as f32;
        assert!(
            avg_s > avg_o,
            "autoencoder codes ignore content: {avg_s} vs {avg_o}"
        );
    }

    #[test]
    fn beats_chance_on_crossing_city_eval() {
        let (d, split) = setup();
        let m = ShCdl::fit(&d, &split.train, &quick());
        let report = evaluate(&m, &d, &split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.1, "SH-CDL recall@10 = {r10}");
    }
}
