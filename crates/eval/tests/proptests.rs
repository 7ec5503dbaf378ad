//! Property-based tests for the ranking metrics.

use proptest::prelude::*;
use st_eval::{rank_metrics, Metric};

/// Scores plus a relevance mask of the same length with >= 1 relevant.
fn ranking() -> impl Strategy<Value = (Vec<f32>, Vec<bool>)> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.0f32..1.0, n),
            proptest::collection::vec(any::<bool>(), n),
            0..n,
        )
            .prop_map(|(scores, mut rel, force)| {
                rel[force] = true; // at least one relevant item
                (scores, rel)
            })
    })
}

proptest! {
    #[test]
    fn all_metrics_are_in_unit_interval((scores, rel) in ranking()) {
        let m = rank_metrics(&scores, &rel, &[1, 3, 10]);
        for row in &m.values {
            for &v in row {
                prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
            }
        }
    }

    #[test]
    fn recall_is_monotone_in_k((scores, rel) in ranking()) {
        let ks: Vec<usize> = (1..=scores.len()).collect();
        let m = rank_metrics(&scores, &rel, &ks);
        let recall = &m.values[0];
        for w in recall.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12, "recall decreased: {w:?}");
        }
        // Recall at the full list length retrieves everything.
        prop_assert!((recall[recall.len() - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_counting_identity((scores, rel) in ranking()) {
        // k * precision@k == |GT| * recall@k == #hits in top-k.
        let n_rel = rel.iter().filter(|&&r| r).count();
        for k in [1usize, 2, 5] {
            let m = rank_metrics(&scores, &rel, &[k]);
            let k_eff = k.min(scores.len());
            let hits_p = m.values[1][0] * k_eff as f64;
            let hits_r = m.values[0][0] * n_rel as f64;
            prop_assert!((hits_p - hits_r).abs() < 1e-9, "p {hits_p} vs r {hits_r}");
        }
    }

    #[test]
    fn perfect_ranking_maximizes_every_metric(n_rel in 1usize..5, n_neg in 1usize..20) {
        // Relevant items first with the highest scores.
        let mut scores = Vec::new();
        let mut rel = Vec::new();
        for i in 0..n_rel {
            scores.push(1.0 - i as f32 * 0.001);
            rel.push(true);
        }
        for i in 0..n_neg {
            scores.push(0.5 - i as f32 * 0.001);
            rel.push(false);
        }
        let k = n_rel + n_neg;
        let perfect = rank_metrics(&scores, &rel, &[k]);
        // Any permutation of scores cannot beat it.
        let mut shuffled = scores.clone();
        shuffled.reverse();
        let worse = rank_metrics(&shuffled, &rel, &[k]);
        for (metric, (p, w)) in Metric::ALL.iter().zip(perfect.values.iter().zip(&worse.values)) {
            prop_assert!(
                p[0] >= w[0] - 1e-12,
                "{}: perfect {} < shuffled {}", metric.name(), p[0], w[0]
            );
        }
        // NDCG of the perfect ranking is exactly 1.
        prop_assert!((perfect.values[2][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn order_preserving_score_transforms_do_not_change_metrics((scores, rel) in ranking()) {
        let a = rank_metrics(&scores, &rel, &[2, 5]);
        let transformed: Vec<f32> = scores.iter().map(|s| s * 2.0 + 1.0).collect();
        let b = rank_metrics(&transformed, &rel, &[2, 5]);
        prop_assert_eq!(a, b);
    }

    /// A NaN never ranks a truth higher: NaN negatives read as +inf.
    #[test]
    fn nan_negatives_rank_like_positive_infinity(
        (scores, rel) in ranking(),
        nan in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let masked = |fill: f32| -> Vec<f32> {
            (scores.iter().zip(&rel).zip(&nan))
                .map(|((&s, &r), &n)| if n && !r { fill } else { s })
                .collect()
        };
        let ks = [1, 3, 10];
        prop_assert_eq!(
            rank_metrics(&masked(f32::NAN), &rel, &ks),
            rank_metrics(&masked(f32::INFINITY), &rel, &ks)
        );
    }
}
