//! ItemPop: rank POIs by training-set popularity (check-in count).
//!
//! The weakest baseline of Sec. 4.1 — no personalization at all — but a
//! strong sanity anchor: every personalized method must beat it.

use st_data::{Checkin, Dataset, PoiId, UserId};
use st_eval::Scorer;

/// Popularity-based recommender.
#[derive(Debug, Clone)]
pub struct ItemPop {
    popularity: Vec<f32>,
}

impl ItemPop {
    /// Counts training check-ins per POI.
    pub fn fit(dataset: &Dataset, train: &[Checkin]) -> Self {
        let mut counts = vec![0usize; dataset.num_pois()];
        for c in train {
            counts[c.poi.idx()] += 1;
        }
        let max = *counts.iter().max().unwrap_or(&1) as f32;
        Self {
            popularity: counts.iter().map(|&c| c as f32 / max.max(1.0)).collect(),
        }
    }
}

impl Scorer for ItemPop {
    fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
        pois.iter().map(|p| self.popularity[p.idx()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit};

    #[test]
    fn ranks_by_training_popularity_only() {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let m = ItemPop::fit(&d, &split.train);
        // Score is user-independent.
        let pois = d.pois_in_city(CityId(1));
        let a = m.score_batch(UserId(0), pois);
        let b = m.score_batch(UserId(5), pois);
        assert_eq!(a, b);
        // And proportional to training counts.
        let mut counts = vec![0usize; d.num_pois()];
        for c in &split.train {
            counts[c.poi.idx()] += 1;
        }
        for (i, &p) in pois.iter().enumerate() {
            for (j, &q) in pois.iter().enumerate() {
                if counts[p.idx()] > counts[q.idx()] {
                    assert!(a[i] > a[j]);
                }
            }
        }
    }

    #[test]
    fn beats_random_on_synthetic_data() {
        use st_eval::{evaluate, EvalConfig, Metric};
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        let m = ItemPop::fit(&d, &split.train);
        let report = evaluate(&m, &d, &split, &EvalConfig::default());
        // Popularity skew means ItemPop clearly beats the ~10% random
        // baseline at recall@10 — but it stays far from oracle.
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.10, "ItemPop recall@10 too low: {r10}");
        assert!(r10 < 0.95);
    }
}
