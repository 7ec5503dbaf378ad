//! The textual context graph `G_vw` (Def. 2): a bipartite graph whose
//! nodes are POIs and words, with an edge for every word in a POI's
//! textual description. The skipgram loss (Eq. 4) trains on positive
//! `(poi, word)` edges plus sampled negatives.

use crate::{Dataset, NegativeTable, PoiId, WordId};
use rand::Rng;

/// Bipartite POI-word context graph restricted to one set of POIs
/// (ST-TransRec builds one per city side: source and target).
#[derive(Debug, Clone)]
pub struct TextualContextGraph {
    /// Member POIs (dense ids into the parent dataset).
    pois: Vec<PoiId>,
    /// Parallel to `pois`: that POI's word ids.
    words_per_poi: Vec<Vec<WordId>>,
    /// Flat edge list for uniform edge sampling.
    edges: Vec<(u32, WordId)>, // (index into `pois`, word)
    /// Negative sampler over the vocabulary, weighted by word frequency
    /// *within this graph* raised to 0.75 (or uniform, see
    /// [`TextualContextGraph::build`]).
    negative_table: NegativeTable,
}

impl TextualContextGraph {
    /// Builds the graph for the given POIs of `dataset`.
    ///
    /// `unigram_power` weights the negative-sampling distribution
    /// (0.75 = word2vec default; 0.0 = uniform — an ablation flag).
    ///
    /// # Panics
    /// Panics if no POI contributes any word (the skipgram loss would be
    /// undefined).
    pub fn build(dataset: &Dataset, pois: &[PoiId], unigram_power: f64) -> Self {
        let vocab_len = dataset.vocab().len();
        assert!(vocab_len > 0, "empty vocabulary");
        let mut counts = vec![0u64; vocab_len];
        let mut words_per_poi = Vec::with_capacity(pois.len());
        let mut edges = Vec::new();
        for (pi, &poi) in pois.iter().enumerate() {
            let words = dataset.poi(poi).words.clone();
            for &w in &words {
                counts[w.idx()] += 1;
                edges.push((pi as u32, w));
            }
            words_per_poi.push(words);
        }
        assert!(!edges.is_empty(), "context graph has no POI-word edges");
        Self {
            pois: pois.to_vec(),
            words_per_poi,
            edges,
            negative_table: NegativeTable::from_counts(&counts, unigram_power),
        }
    }

    /// Samples `batch` training tuples — a POI, one positive word, and
    /// `negatives` negative words not in the POI's description — laid
    /// out as the rows the skipgram loss gathers: per tuple, the positive
    /// pair then its negative pairs.
    ///
    /// Positive edges are drawn uniformly so every edge contributes
    /// equally to `L_Gvw`, as in Eq. 4's sum over `E_vw`.
    pub fn sample_batch(&self, batch: usize, negatives: usize, rng: &mut impl Rng) -> ContextBatch {
        let mut out = ContextBatch::default();
        self.sample_batch_into(batch, negatives, rng, &mut out);
        out
    }

    /// [`TextualContextGraph::sample_batch`] into `out`, replacing what it
    /// held: the same draws, with `out`'s storage reused, so a caller
    /// that keeps one batch across steps allocates once.
    pub fn sample_batch_into(
        &self,
        batch: usize,
        negatives: usize,
        rng: &mut impl Rng,
        out: &mut ContextBatch,
    ) {
        let pairs = batch * (1 + negatives);
        out.poi_rows.clear();
        out.word_rows.clear();
        out.targets.clear();
        out.poi_rows.reserve_exact(pairs);
        out.word_rows.reserve_exact(pairs);
        out.targets.reserve_exact(pairs);
        for _ in 0..batch {
            let &(pi, word) = &self.edges[rng.gen_range(0..self.edges.len())];
            let poi = self.pois[pi as usize].idx();
            out.push(poi, word, 1.0);
            let exclude = &self.words_per_poi[pi as usize];
            for _ in 0..negatives {
                out.push(poi, self.negative_table.sample_excluding(exclude, rng), 0.0);
            }
        }
    }
}

/// A skipgram mini-batch produced by [`TextualContextGraph::sample_batch`],
/// flattened for embedding lookups: row `i` pairs POI-table row
/// `poi_rows[i]` with word-table row `word_rows[i]` under `targets[i]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContextBatch {
    /// POI table row per pair (a dense dataset id, not a graph-local one).
    pub poi_rows: Vec<usize>,
    /// Word table row per pair.
    pub word_rows: Vec<usize>,
    /// 1.0 for a word describing the POI, 0.0 for a sampled negative.
    pub targets: Vec<f32>,
}

impl ContextBatch {
    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    fn push(&mut self, poi_row: usize, word: WordId, target: f32) {
        self.poi_rows.push(poi_row);
        self.word_rows.push(word.idx());
        self.targets.push(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::tiny_dataset;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn builds_edges_for_selected_pois() {
        let d = tiny_dataset();
        let g = TextualContextGraph::build(&d, &[PoiId(2), PoiId(3)], 0.75);
        // p2 has 2 words, p3 has 1.
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.pois, [PoiId(2), PoiId(3)]);
        assert_eq!(g.words_per_poi[1], d.poi(PoiId(3)).words);
    }

    #[test]
    fn samples_respect_positive_membership() {
        let d = tiny_dataset();
        let g = TextualContextGraph::build(&d, &[PoiId(0), PoiId(1), PoiId(2), PoiId(3)], 0.75);
        let mut rng = SmallRng::seed_from_u64(5);
        let b = g.sample_batch(200, 3, &mut rng);
        assert_eq!(b.targets.len(), 200 * 4);
        assert_eq!(b.poi_rows.len(), b.targets.len());
        assert_eq!(b.word_rows.len(), b.targets.len());
        for (i, tuple) in b.targets.chunks(4).enumerate() {
            assert_eq!(tuple, [1.0, 0.0, 0.0, 0.0], "positive, then its negatives");
            let poi = b.poi_rows[4 * i];
            let words = &d.poi(PoiId(poi as u32)).words;
            for j in 0..4 {
                assert_eq!(b.poi_rows[4 * i + j], poi, "a tuple is about one POI");
                let describes = words.iter().any(|w| w.idx() == b.word_rows[4 * i + j]);
                assert_eq!(describes, j == 0, "pair {j} of tuple {i}");
            }
        }
    }

    #[test]
    fn sampling_covers_all_edges_eventually() {
        let d = tiny_dataset();
        let g = TextualContextGraph::build(&d, &[PoiId(0), PoiId(2)], 0.0);
        let mut rng = SmallRng::seed_from_u64(6);
        let b = g.sample_batch(300, 1, &mut rng);
        let seen: std::collections::HashSet<_> = (b.poi_rows.iter().zip(&b.word_rows))
            .zip(&b.targets)
            .filter(|(_, &t)| t == 1.0)
            .map(|(pair, _)| pair)
            .collect();
        assert_eq!(
            seen.len(),
            g.edges.len(),
            "uniform edge sampling covers all"
        );
    }

    #[test]
    #[should_panic(expected = "no POI-word edges")]
    fn rejects_wordless_graph() {
        let d = tiny_dataset();
        TextualContextGraph::build(&d, &[], 0.75);
    }
}
