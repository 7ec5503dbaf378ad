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

use crate::mf::{gaussian_factors, sigmoid, EPOCHS, LR, NEGATIVES, POSITIVES_PER_EPOCH, REG};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{Checkin, CityId, Dataset, Poi, PoiId, UserId};
use st_eval::Scorer;
use st_tensor::{Activation, Adam, Gradients, Matrix, Mlp, Optimizer, ParamStore, Tape};
use st_transrec_core::InteractionSampler;

/// RNG seed.
const SEED: u64 = 19;
/// Autoencoder epochs over POI content.
const AE_EPOCHS: usize = 10;
/// Autoencoder batch size.
const AE_BATCH: usize = 64;
/// Autoencoder (Adam) learning rate.
const AE_LR: f32 = 1e-2;

/// The trained SH-CDL model.
#[derive(Debug)]
pub(crate) struct ShCdl {
    /// Frozen deep POI codes, one row per POI.
    codes: Matrix,
    users: Matrix,
    poi_offset: Matrix,
    poi_bias: Vec<f32>,
}

impl ShCdl {
    /// Fits the two stages with `dim`-wide codes and factors: the
    /// autoencoder on POI content, then MF on the codes.
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], dim: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let codes = train_autoencoder(dataset, dim, &mut rng);
        let mut model = Self {
            codes,
            users: gaussian_factors(dataset.num_users(), dim, 0.1, &mut rng),
            poi_offset: gaussian_factors(dataset.num_pois(), dim, 0.01, &mut rng),
            poi_bias: vec![0.0; dataset.num_pois()],
        };
        let cities: Vec<CityId> = dataset.cities().iter().map(|c| c.id).collect();
        let sampler = InteractionSampler::new(dataset, train, &cities);
        for _ in 0..EPOCHS {
            let batch = sampler.sample_batch(dataset, POSITIVES_PER_EPOCH, NEGATIVES, &mut rng);
            for i in 0..batch.len() {
                model.sgd_update(batch.users[i], batch.pois[i], batch.labels[i]);
            }
        }
        model
    }

    /// The logit of (user, POI); the item is its frozen deep code plus
    /// its learned offset.
    fn logit(&self, user: usize, poi: usize) -> f32 {
        let items = self.codes.row(poi).iter().zip(self.poi_offset.row(poi));
        let dot: f32 = (self.users.row(user).iter().zip(items))
            .map(|(&uk, (&ck, &ok))| uk * (ck + ok))
            .sum();
        dot + self.poi_bias[poi]
    }

    /// One logistic SGD step on the user factor, the POI offset and bias.
    fn sgd_update(&mut self, user: usize, poi: usize, label: f32) {
        let err = sigmoid(self.logit(user, poi)) - label;
        let (users, offsets) = (self.users.row_mut(user), self.poi_offset.row_mut(poi));
        for ((u, o), &ck) in users.iter_mut().zip(offsets).zip(self.codes.row(poi)) {
            let (uk, ok) = (*u, *o);
            *u -= LR * (err * (ck + ok) + REG * uk);
            *o -= LR * (err * uk + REG * ok);
        }
        self.poi_bias[poi] -= LR * (err + REG * self.poi_bias[poi]);
    }
}

/// Binary bag-of-words rows over a `vocab`-word vocabulary, one per POI.
fn content_rows<'a>(pois: impl ExactSizeIterator<Item = &'a Poi>, vocab: usize) -> Matrix {
    let mut x = Matrix::zeros(pois.len(), vocab);
    for (r, poi) in pois.enumerate() {
        for w in &poi.words {
            x.row_mut(r)[w.idx()] = 1.0;
        }
    }
    x
}

/// Trains a `V -> 2*dim -> dim -> 2*dim -> V` tied-free autoencoder on
/// binary POI bag-of-words rows; returns the bottleneck codes of every
/// POI, one row each.
fn train_autoencoder(dataset: &Dataset, dim: usize, rng: &mut SmallRng) -> Matrix {
    let vocab = dataset.vocab().len().max(1);
    let mut store = ParamStore::new();
    let encoder = Mlp::new(
        &mut store,
        "enc",
        &[vocab, 2 * dim, dim],
        Activation::Tanh,
        0.0,
        rng,
    );
    let decoder = Mlp::new(
        &mut store,
        "dec",
        &[dim, 2 * dim, vocab],
        Activation::Tanh,
        0.0,
        rng,
    );
    let mut opt = Adam::new(AE_LR);

    let pois = dataset.pois();
    let n = pois.len();
    for _ in 0..AE_EPOCHS {
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        for chunk in order.chunks(AE_BATCH) {
            let x = content_rows(chunk.iter().map(|&p| &pois[p]), vocab);
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
    let mut tape = Tape::new(&store);
    let xv = tape.input(content_rows(pois.iter(), vocab));
    let code = encoder.forward_inference(&mut tape, xv);
    tape.value(code).clone()
}

impl Scorer for ShCdl {
    /// The logit: it ranks like the sigmoid of the loss, without the
    /// exact ties the sigmoid saturates into at 1.0.
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        pois.iter()
            .map(|p| self.logit(user.idx(), p.idx()))
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
    fn codes_cluster_by_shared_words() {
        let (d, split) = tiny();
        let m = ShCdl::fit(d, &split.train, dim());
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
                let c = cosine(m.codes.row(a), m.codes.row(b));
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
        let (d, split) = tiny();
        let report = evaluate(fitted(Method::ShCdl), d, split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.1, "SH-CDL recall@10 = {r10}");
    }
}
