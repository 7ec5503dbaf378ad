//! Skipgram context prediction on the textual context graph (Eq. 4).
//!
//! For each positive `(poi, word)` edge plus `K` sampled negative words,
//! the logit is the dot product of the POI and word embeddings; the loss
//! is binary cross-entropy (the negative-sampling approximation of
//! `log P(w|v)` in Eq. 4). POIs sharing context words are thereby pulled
//! toward similar embeddings.

use st_data::ContextBatch;
use st_tensor::{ParamId, Tape, Var};

/// Builds the skipgram loss for a batch of `(poi, word)` pairs as
/// [`st_data::TextualContextGraph::sample_batch`] lays them out.
///
/// `poi_table` and `word_table` are embedding-table parameters. The
/// logits are computed from the two tables in place
/// ([`Tape::gather_row_dot`]): the term copies no embedding row, forward
/// or backward. Returns a `1 x 1` mean loss.
///
/// # Panics
/// Panics on an empty batch.
pub fn skipgram_loss(
    tape: &mut Tape<'_>,
    poi_table: ParamId,
    word_table: ParamId,
    batch: &ContextBatch,
) -> Var {
    assert!(!batch.is_empty(), "empty skipgram batch");
    let logits = tape.gather_row_dot(poi_table, &batch.poi_rows, word_table, &batch.word_rows);
    tape.bce_with_logits(logits, &batch.targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use st_data::synth::{generate, SynthConfig};
    use st_data::{PoiId, TextualContextGraph};
    use st_tensor::{Adam, Gradients, Init, Optimizer, ParamStore};

    fn setup() -> (st_data::Dataset, TextualContextGraph) {
        let (d, _) = generate(&SynthConfig::tiny());
        let pois: Vec<PoiId> = d.pois().iter().map(|p| p.id).collect();
        let g = TextualContextGraph::build(&d, &pois, 0.75);
        (d, g)
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (d, g) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let pt = store.register(
            "poi",
            d.num_pois(),
            8,
            Init::Gaussian { std: 0.01 },
            &mut rng,
        );
        let wt = store.register(
            "word",
            d.vocab().len(),
            8,
            Init::Gaussian { std: 0.01 },
            &mut rng,
        );
        let batch = g.sample_batch(64, 3, &mut rng);
        let mut tape = Tape::new(&store);
        let loss = skipgram_loss(&mut tape, pt, wt, &batch);
        let v = tape.value(loss).item();
        assert!(v.is_finite() && v > 0.0);
        // Near-zero embeddings -> logits ~ 0 -> loss ~ ln 2.
        assert!(
            (v - std::f32::consts::LN_2).abs() < 0.05,
            "initial loss {v}"
        );
    }

    #[test]
    fn training_reduces_loss_and_groups_similar_pois() {
        let (d, g) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let dim = 16;
        let pt = store.register(
            "poi",
            d.num_pois(),
            dim,
            Init::Gaussian { std: 0.05 },
            &mut rng,
        );
        let wt = store.register(
            "word",
            d.vocab().len(),
            dim,
            Init::Gaussian { std: 0.05 },
            &mut rng,
        );
        let mut opt = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let batch = g.sample_batch(128, 4, &mut rng);
            let mut tape = Tape::new(&store);
            let loss = skipgram_loss(&mut tape, pt, wt, &batch);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        assert!(last < 0.7 * first.unwrap(), "{:?} -> {last}", first);

        // POIs sharing words must be closer (cosine) than unrelated POIs,
        // averaged over many sampled pairs.
        let table = store.get(pt);
        let cosine = |a: usize, b: usize| -> f32 {
            let (ra, rb) = (table.row(a), table.row(b));
            let dot: f32 = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
            let na: f32 = ra.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = rb.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let share_words = |a: usize, b: usize| -> bool {
            d.poi(PoiId(a as u32))
                .words
                .iter()
                .any(|w| d.poi(PoiId(b as u32)).words.contains(w))
        };
        let (mut sim_shared, mut n_shared, mut sim_other, mut n_other) = (0.0, 0, 0.0, 0);
        for a in 0..d.num_pois() {
            for b in (a + 1)..d.num_pois() {
                if share_words(a, b) {
                    sim_shared += cosine(a, b);
                    n_shared += 1;
                } else {
                    sim_other += cosine(a, b);
                    n_other += 1;
                }
            }
        }
        let avg_shared = sim_shared / n_shared.max(1) as f32;
        let avg_other = sim_other / n_other.max(1) as f32;
        assert!(
            avg_shared > avg_other + 0.05,
            "shared-word POIs not closer: {avg_shared} vs {avg_other}"
        );
    }

    #[test]
    #[should_panic(expected = "empty skipgram batch")]
    fn rejects_empty_batch() {
        let (d, _) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let pt = store.register("poi", d.num_pois(), 4, Init::Zeros, &mut rng);
        let wt = store.register("word", d.vocab().len(), 4, Init::Zeros, &mut rng);
        let mut tape = Tape::new(&store);
        skipgram_loss(&mut tape, pt, wt, &ContextBatch::default());
    }
}
