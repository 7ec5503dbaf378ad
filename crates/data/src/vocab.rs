//! Vocabulary with word frequencies and a unigram^0.75 negative-sampling
//! table (Mikolov et al. [14], used by the skipgram loss of Eq. 4).

use crate::WordId;
use rand::Rng;
use std::collections::HashMap;

/// An interned word vocabulary with occurrence counts.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
    counts: Vec<u64>,
    index: HashMap<String, WordId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, returning its id (stable across calls).
    pub fn intern(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        let id = WordId(self.words.len() as u32);
        self.words.push(word.to_owned());
        self.counts.push(0);
        self.index.insert(word.to_owned(), id);
        id
    }

    /// Interns `word` and counts one occurrence.
    pub(crate) fn observe(&mut self, word: &str) -> WordId {
        let id = self.intern(word);
        self.counts[id.idx()] += 1;
        id
    }

    /// Counts `n` additional occurrences of an already-interned word.
    pub(crate) fn add_count(&mut self, id: WordId, n: u64) {
        self.counts[id.idx()] += n;
    }

    /// Looks up a word's id.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.index.get(word).copied()
    }

    /// The string for an id.
    pub fn word(&self, id: WordId) -> &str {
        &self.words[id.idx()]
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no words are interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Builds a negative-sampling table over this vocabulary.
    pub fn negative_table(&self, power: f64) -> NegativeTable {
        NegativeTable::from_counts(&self.counts, power)
    }
}

/// Samples word ids with probability proportional to `count^power`
/// (`power = 0.75` is the word2vec default; `power = 0` gives uniform).
///
/// Implemented as a cumulative table searched through a guide table: the
/// uniform draw's top bits pick a bucket, and a binary search over the
/// few cumulative entries that bucket can land in finishes — O(1)
/// expected per sample, exactly the index a search of the whole table
/// returns, no aliasing precision issues, and cheap to rebuild.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    cumulative: Vec<f64>,
    /// `guide[j]` is the first index whose cumulative weight exceeds
    /// `j / buckets * total`; bucket `j` holds the draws
    /// `u ∈ [j / buckets, (j + 1) / buckets)`, `guide.len() == buckets + 1`.
    guide: Vec<u32>,
    /// `64 - log2(buckets)`: a raw draw's bucket is `bits >> shift`.
    shift: u32,
}

impl NegativeTable {
    /// Builds the table from raw counts.
    ///
    /// # Panics
    /// Panics if `counts` is empty or sums to zero after weighting.
    pub fn from_counts(counts: &[u64], power: f64) -> Self {
        assert!(!counts.is_empty(), "cannot sample from an empty vocabulary");
        assert!(power >= 0.0, "power must be non-negative");
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut acc = 0.0f64;
        for &c in counts {
            // Words with zero observed count still get epsilon mass so the
            // table never breaks on synthetic vocabularies with rare words.
            acc += (c as f64).powf(power).max(1e-12);
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "degenerate sampling weights");
        // A draw `u` maps to `fl(u * total)`, which never decreases as
        // `u` grows, and the search's answer never decreases as that
        // does: every draw in a bucket lands between the answers for its
        // two edges, each itself a draw (`j / buckets` is a multiple of
        // 2^-53), so the guide holds exactly those answers.
        let buckets = counts.len().next_power_of_two().max(2);
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for j in 0..=buckets {
            let edge = (j as f64 / buckets as f64) * acc;
            while i < cumulative.len() && cumulative[i] <= edge {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("word ids fit in u32"));
        }
        Self {
            cumulative,
            guide,
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Number of sampleable ids.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the table is empty (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one word id.
    pub fn sample(&self, rng: &mut impl Rng) -> WordId {
        let total = *self.cumulative.last().expect("non-empty table");
        let bits = rng.next_u64();
        // The `f64` `rng.gen::<f64>()` makes of the same draw; its top
        // bits are the bucket.
        let x = ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64) * total;
        let j = (bits >> self.shift) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let pos = lo + self.cumulative[lo..hi].partition_point(|&c| c <= x);
        WordId(pos.min(self.cumulative.len() - 1) as u32)
    }

    /// Draws a negative that differs from every id in `exclude`, retrying
    /// a bounded number of times before falling back to a linear scan.
    pub(crate) fn sample_excluding(&self, exclude: &[WordId], rng: &mut impl Rng) -> WordId {
        for _ in 0..32 {
            let id = self.sample(rng);
            if !exclude.contains(&id) {
                return id;
            }
        }
        // Pathological exclusion set: scan for any admissible id.
        for i in 0..self.len() {
            let id = WordId(i as u32);
            if !exclude.contains(&id) {
                return id;
            }
        }
        panic!("exclusion set covers the entire vocabulary");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("park");
        let b = v.intern("park");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.word(a), "park");
        assert_eq!(v.get("park"), Some(a));
        assert_eq!(v.get("museum"), None);
    }

    #[test]
    fn observe_counts_occurrences() {
        let mut v = Vocabulary::new();
        let a = v.observe("pizza");
        v.observe("pizza");
        v.observe("bar");
        assert_eq!(v.counts[a.idx()], 2);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn negative_table_respects_frequency_skew() {
        let mut v = Vocabulary::new();
        let hot = v.intern("hot");
        let cold = v.intern("cold");
        v.add_count(hot, 1000);
        v.add_count(cold, 10);
        let table = v.negative_table(1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut hot_hits = 0;
        for _ in 0..2000 {
            if table.sample(&mut rng) == hot {
                hot_hits += 1;
            }
        }
        // Expected ~ 2000 * 1000/1010 = 1980.
        assert!(hot_hits > 1900, "hot sampled {hot_hits}/2000");
        let _ = cold;
    }

    #[test]
    fn power_zero_is_roughly_uniform() {
        let mut v = Vocabulary::new();
        let a = v.intern("a");
        v.add_count(a, 1_000_000);
        v.intern("b");
        let table = v.negative_table(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let hits = (0..2000).filter(|_| table.sample(&mut rng) == a).count();
        assert!((800..1200).contains(&hits), "a sampled {hits}/2000");
    }

    #[test]
    fn sample_excluding_avoids_listed_ids() {
        let mut v = Vocabulary::new();
        let a = v.observe("a");
        let b = v.observe("b");
        let table = v.negative_table(0.75);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(table.sample_excluding(&[a], &mut rng), b);
        }
    }

    #[test]
    #[should_panic(expected = "entire vocabulary")]
    fn sample_excluding_everything_panics() {
        let mut v = Vocabulary::new();
        let a = v.observe("only");
        let table = v.negative_table(0.75);
        let mut rng = SmallRng::seed_from_u64(3);
        table.sample_excluding(&[a], &mut rng);
    }

    /// The guide table changes where the search starts, never what it
    /// returns: a search of the whole cumulative table is the oracle.
    #[test]
    fn sample_matches_a_search_of_the_whole_table() {
        let skewed: Vec<u64> = (1..=1000u64).map(|i| 1_000_000 / (i * i)).collect();
        let varied: Vec<u64> = (0..300u64).map(|i| i * 7 % 31).collect();
        let mut eps = vec![0u64; 500];
        eps[17] = 1 << 40;
        eps[250] = 3;
        for (counts, power) in [
            (&skewed, 0.75),
            (&varied, 0.0),
            (&eps, 0.75),
            (&vec![5], 0.75),
        ] {
            let table = NegativeTable::from_counts(counts, power);
            let total = *table.cumulative.last().unwrap();
            let mut rng = SmallRng::seed_from_u64(counts.len() as u64);
            let mut reference = rng.clone();
            for _ in 0..1_000_000 {
                let x = reference.gen::<f64>() * total;
                let pos = table.cumulative.partition_point(|&c| c <= x);
                let expected = WordId(pos.min(table.len() - 1) as u32);
                assert_eq!(table.sample(&mut rng), expected, "{} words", counts.len());
            }
        }
    }

    #[test]
    fn zero_count_words_remain_sampleable() {
        let mut v = Vocabulary::new();
        v.intern("never-observed");
        let table = v.negative_table(0.75);
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = table.sample(&mut rng); // must not panic on zero mass
    }
}
