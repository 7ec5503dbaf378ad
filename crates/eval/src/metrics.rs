//! Ranking metrics: Recall@k, Precision@k, NDCG@k, MAP@k.
//!
//! Definitions follow the POI-recommendation evaluation survey the paper
//! cites ([20], Liu et al., VLDB'17): metrics are computed per user over
//! a ranked candidate list against a ground-truth set, then averaged.

/// The four metric families reported in every figure of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Fraction of ground truth retrieved in the top-k.
    Recall,
    /// Fraction of the top-k that is ground truth.
    Precision,
    /// Normalized discounted cumulative gain.
    Ndcg,
    /// Mean average precision (truncated at k).
    Map,
}

impl Metric {
    /// All metrics in the paper's reporting order.
    pub const ALL: [Metric; 4] = [Metric::Recall, Metric::Precision, Metric::Ndcg, Metric::Map];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Recall => "Recall",
            Metric::Precision => "Precision",
            Metric::Ndcg => "NDCG",
            Metric::Map => "MAP",
        }
    }
}

/// One position of a ranked list under the expected-rank tie rule: the
/// chance that it holds a truth when its tie group is ordered uniformly
/// at random, and the expected number of truths at or above it given
/// that it does. Outside a tie these are the plain 0/1 hit and the count
/// of hits so far.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hit: f64,
    hits_through: f64,
}

/// The [`Slot`]s of the ranking `order`. A tie group — neighbours with
/// equal scores; NaN equals nothing — of `g` members, `h` of them truths,
/// gives each of its positions `h / g` of a hit, so every member gets the
/// mean of a metric's gain over the positions the group spans.
fn slots(order: &[usize], scores: &[f32], relevant: &[bool]) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(order.len());
    let mut before = 0usize;
    for group in order.chunk_by(|&a, &b| scores[a] == scores[b]) {
        let (g, h) = (group.len(), group.iter().filter(|&&i| relevant[i]).count());
        let hit = h as f64 / g as f64;
        // Given a truth at the group's `t`-th position, each of the `t`
        // positions above it holds one of the other `h - 1` truths with
        // chance `(h - 1) / (g - 1)`.
        let share = if g > 1 {
            h.saturating_sub(1) as f64 / (g - 1) as f64
        } else {
            0.0
        };
        for t in 0..g {
            let hits_through = (before + 1) as f64 + t as f64 * share;
            slots.push(Slot { hit, hits_through });
        }
        before += h;
    }
    slots
}

/// Computes one metric at cutoff `k` for a single ranked list, as its
/// expected value over the orders of its tie groups.
fn metric_at_k(metric: Metric, slots: &[Slot], num_relevant: usize, k: usize) -> f64 {
    assert!(k > 0, "cutoff k must be positive");
    if num_relevant == 0 {
        return 0.0;
    }
    let k = k.min(slots.len());
    let got = || slots[..k].iter().map(|s| s.hit).sum::<f64>();
    match metric {
        Metric::Recall => got() / num_relevant as f64,
        Metric::Precision => got() / k as f64,
        Metric::Ndcg => {
            let dcg: f64 = slots[..k]
                .iter()
                .enumerate()
                .map(|(i, s)| s.hit / ((i + 2) as f64).log2())
                .sum();
            let ideal: f64 = (0..num_relevant.min(k))
                .map(|i| 1.0 / ((i + 2) as f64).log2())
                .sum();
            dcg / ideal
        }
        Metric::Map => {
            let ap: f64 = slots[..k]
                .iter()
                .enumerate()
                .map(|(i, s)| s.hit * s.hits_through / (i + 1) as f64)
                .sum();
            ap / num_relevant.min(k) as f64
        }
    }
}

/// Computes all four metrics at several cutoffs for one user's ranking.
///
/// `scores` and `relevant` are parallel: `relevant[i]` says whether
/// candidate `i` is ground truth. Exact ties count as expected rank: a
/// tie group is one block, and each member gets the mean of the metric
/// over the positions the group spans, so a constant scorer reads the
/// random expectation (Recall@k = `k / |candidates|`), not a perfect
/// score. A NaN score (a diverged model) never ranks a truth higher: a
/// NaN negative ranks above every number and a NaN truth below
/// everything, so NaN can neither win nor abort the evaluation. Both
/// consumers of the one evaluator rank by these rules: the paper record
/// ([`crate::evaluate`]) and the online publish gate
/// ([`crate::evaluate_events`]).
pub fn rank_metrics(scores: &[f32], relevant: &[bool], ks: &[usize]) -> UserMetrics {
    assert_eq!(scores.len(), relevant.len(), "scores/relevance mismatch");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        // Only reached with a NaN on one side: NaN negatives first, NaN
        // truths last.
        let place = |i: usize| match (scores[i].is_nan(), relevant[i]) {
            (true, false) => 0,
            (false, _) => 1,
            (true, true) => 2,
        };
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or_else(|| place(a).cmp(&place(b)))
    });
    let slots = slots(&order, scores, relevant);
    let num_relevant = relevant.iter().filter(|&&r| r).count();
    let values = Metric::ALL
        .iter()
        .map(|&m| {
            ks.iter()
                .map(|&k| metric_at_k(m, &slots, num_relevant, k))
                .collect()
        })
        .collect();
    UserMetrics {
        ks: ks.to_vec(),
        values,
    }
}

/// Per-user metric values: `values[metric_index][k_index]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UserMetrics {
    /// Cutoffs evaluated.
    pub(crate) ks: Vec<usize>,
    /// Indexed by [`Metric::ALL`] order, then by cutoff.
    pub values: Vec<Vec<f64>>,
}

/// Accumulates per-user metrics into averages.
#[derive(Debug, Clone, Default)]
pub struct MetricAccumulator {
    ks: Vec<usize>,
    sums: Vec<Vec<f64>>,
    users: usize,
}

impl MetricAccumulator {
    /// Creates an accumulator for the given cutoffs.
    pub fn new(ks: &[usize]) -> Self {
        Self {
            ks: ks.to_vec(),
            sums: vec![vec![0.0; ks.len()]; Metric::ALL.len()],
            users: 0,
        }
    }

    /// Adds one user's metrics.
    pub fn add(&mut self, user: &UserMetrics) {
        assert_eq!(user.ks, self.ks, "cutoff mismatch");
        for (sum_row, user_row) in self.sums.iter_mut().zip(&user.values) {
            for (s, v) in sum_row.iter_mut().zip(user_row) {
                *s += v;
            }
        }
        self.users += 1;
    }

    /// Finalizes into averages.
    pub fn finish(&self) -> MetricReport {
        let n = self.users.max(1) as f64;
        MetricReport {
            ks: self.ks.clone(),
            values: self
                .sums
                .iter()
                .map(|row| row.iter().map(|s| s / n).collect())
                .collect(),
            users: self.users,
        }
    }
}

/// Averaged metrics over all queries — one evaluation run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricReport {
    /// Cutoffs evaluated.
    pub ks: Vec<usize>,
    /// `values[metric][k]`, metric order per [`Metric::ALL`].
    pub values: Vec<Vec<f64>>,
    /// Number of queries averaged: test users, or a window's events.
    pub users: usize,
}

impl MetricReport {
    /// Reads one averaged value.
    pub fn get(&self, metric: Metric, k: usize) -> f64 {
        let mi = Metric::ALL
            .iter()
            .position(|&m| m == metric)
            .expect("known metric");
        let ki = self
            .ks
            .iter()
            .position(|&kk| kk == k)
            .unwrap_or_else(|| panic!("cutoff {k} was not evaluated"));
        self.values[mi][ki]
    }
}

impl std::fmt::Display for MetricReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:>10}", "")?;
        for k in &self.ks {
            write!(f, "  @{k:<6}")?;
        }
        writeln!(f)?;
        for (mi, m) in Metric::ALL.iter().enumerate() {
            write!(f, "{:>10}", m.name())?;
            for v in &self.values[mi] {
                write!(f, "  {v:.4}")?;
            }
            writeln!(f)?;
        }
        write!(f, "({} users)", self.users)
    }
}

/// Overlap@k between two rankings: the fraction of `reference`'s top-k
/// items found anywhere in `candidate`'s top-k. This is the recall of a
/// candidate-generation stage against an exact oracle ranking — 1.0
/// means the approximate ranking reproduced the exact top-k as a set.
///
/// An empty reference top-k is vacuously 1.0 (nothing was missed).
pub fn overlap_at_k<T: Eq + std::hash::Hash>(candidate: &[T], reference: &[T], k: usize) -> f64 {
    let want = &reference[..reference.len().min(k)];
    if want.is_empty() {
        return 1.0;
    }
    let got: std::collections::HashSet<&T> = candidate[..candidate.len().min(k)].iter().collect();
    let hit = want.iter().filter(|x| got.contains(x)).count();
    hit as f64 / want.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A NaN never ranks a truth higher: a NaN negative ranks above
    /// every number, and a NaN truth falls below everything. Finite ties
    /// (±0 included) share their positions.
    #[test]
    fn nan_scores_rank_last_and_ties_share_their_positions() {
        // One relevant candidate: Recall@k (first in `Metric::ALL`) is
        // 1 exactly when it ranks within the top k.
        let hit_at = |scores: &[f32], relevant: &[bool], k| {
            rank_metrics(scores, relevant, &[k]).values[0][0]
        };
        let nan = f32::NAN;
        // Two NaN negatives outrank a truth at -1e30; one at -inf too.
        assert_eq!(hit_at(&[nan, -1e30, nan], &[false, true, false], 1), 0.0);
        assert_eq!(hit_at(&[nan, -1e30, nan], &[false, true, false], 3), 1.0);
        assert_eq!(hit_at(&[nan, f32::NEG_INFINITY], &[false, true], 1), 0.0);
        // A NaN truth ranks below every finite negative: last of four.
        let truth_nan = [nan, -3.0, 0.5, f32::NEG_INFINITY];
        let relevant = [true, false, false, false];
        assert_eq!(hit_at(&truth_nan, &relevant, 3), 0.0);
        assert_eq!(hit_at(&truth_nan, &relevant, 4), 1.0);
        // And below every NaN negative: a diverged model that scores all
        // of `evaluate`'s 101 candidates NaN, truth first, misses.
        let mut relevant = [false; 101];
        relevant[0] = true;
        let all_nan = rank_metrics(&[nan; 101], &relevant, &[10]);
        assert_eq!(all_nan.values, vec![vec![0.0]; Metric::ALL.len()]);
        assert_eq!(hit_at(&[nan; 101], &relevant, 101), 1.0);
        // ±0 tie: half a hit at the first position, whichever way round.
        assert_eq!(hit_at(&[0.0, -0.0], &[true, false], 1), 0.5);
        assert_eq!(hit_at(&[-0.0, 0.0], &[true, false], 1), 0.5);
        assert_eq!(hit_at(&[0.0, -0.0], &[false, true], 1), 0.5);
    }

    /// A constant scorer reads the random expectation: Recall@k is
    /// `k / |candidates|` whatever the number of truths, and a scorer
    /// whose scores all saturate at 1.0 does no better.
    #[test]
    fn a_constant_scorer_scores_the_random_expectation() {
        let n = 101;
        for truths in [1, 3] {
            let relevant: Vec<bool> = (0..n).map(|i| i % 37 == 0 && i / 37 < truths).collect();
            assert_eq!(relevant.iter().filter(|&&r| r).count(), truths);
            let ks = [1, 5, 10, 20];
            let constant = rank_metrics(&vec![0.25; n], &relevant, &ks);
            for (ki, &k) in ks.iter().enumerate() {
                let recall = constant.values[0][ki];
                assert!(
                    (recall - k as f64 / n as f64).abs() < 1e-12,
                    "k {k}: {recall}"
                );
                let precision = constant.values[1][ki];
                assert!((precision - truths as f64 / n as f64).abs() < 1e-12);
            }
            let saturated = rank_metrics(&vec![1.0; n], &relevant, &ks);
            assert_eq!(saturated, constant);
        }
    }

    /// The tie rule's MAP is the mean over every order of the group: two
    /// truths and two negatives all tied give AP@4 averaged over the six
    /// placements of the truths.
    #[test]
    fn tied_map_is_the_mean_over_orders() {
        let m = rank_metrics(&[0.5; 4], &[true, false, true, false], &[4]);
        let placements = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];
        let mean: f64 = placements
            .iter()
            .map(|&[a, b]| (1.0 / (a + 1) as f64 + 2.0 / (b + 1) as f64) / 2.0)
            .sum::<f64>()
            / placements.len() as f64;
        assert!(
            (m.values[3][0] - mean).abs() < 1e-12,
            "{} vs {mean}",
            m.values[3][0]
        );
        // A tie below the cutoff's reach counts only its share inside it.
        let m = rank_metrics(&[0.9, 0.5, 0.5, 0.5], &[false, false, true, false], &[2]);
        assert!((m.values[0][0] - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Candidates: [GT, neg, GT, neg, neg]; scores put GT at ranks 1 and 3.
    fn example() -> (Vec<f32>, Vec<bool>) {
        (
            vec![0.9, 0.5, 0.7, 0.3, 0.1],
            vec![true, false, true, false, false],
        )
    }

    #[test]
    fn overlap_at_k_counts_set_intersection_of_prefixes() {
        let exact = [1, 2, 3, 4, 5];
        assert_eq!(overlap_at_k(&[3, 1, 2], &exact, 3), 1.0);
        assert_eq!(overlap_at_k(&[1, 9, 8], &exact, 3), 1.0 / 3.0);
        assert_eq!(overlap_at_k(&[9, 8, 7], &exact, 3), 0.0);
        // k beyond both lengths uses full lists.
        assert_eq!(overlap_at_k(&[5, 4, 3, 2, 1], &exact, 50), 1.0);
        // Empty reference is vacuous success.
        assert_eq!(overlap_at_k(&[1, 2], &[] as &[i32], 10), 1.0);
    }

    #[test]
    fn recall_precision_known_values() {
        let (s, r) = example();
        let m = rank_metrics(&s, &r, &[1, 2, 3]);
        // Ranked relevance: [T, T(0.7), F, F, F] -> hits at ranks 1,2.
        assert_eq!(m.values[0], vec![0.5, 1.0, 1.0]); // recall
        assert_eq!(m.values[1], vec![1.0, 1.0, 2.0 / 3.0]); // precision
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let scores = vec![0.9, 0.8, 0.1, 0.05];
        let rel = vec![true, true, false, false];
        let m = rank_metrics(&scores, &rel, &[2, 4]);
        let ndcg = &m.values[2];
        assert!((ndcg[0] - 1.0).abs() < 1e-12);
        assert!((ndcg[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_penalizes_late_hits() {
        let early = rank_metrics(&[0.9, 0.1, 0.2], &[true, false, false], &[3]);
        let late = rank_metrics(&[0.1, 0.9, 0.8], &[true, false, false], &[3]);
        assert!(early.values[2][0] > late.values[2][0]);
        // Exact: hit at rank 3 -> 1/log2(4) = 0.5.
        assert!((late.values[2][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_known_value() {
        // Hits at ranks 1 and 3 of top-3, |GT| = 2:
        // AP = (1/1 + 2/3) / 2 = 5/6.
        let m = rank_metrics(&[0.9, 0.5, 0.4], &[true, false, true], &[3]);
        assert!((m.values[3][0] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ground_truth_scores_zero() {
        let m = rank_metrics(&[0.5, 0.4], &[false, false], &[1, 2]);
        for row in &m.values {
            assert!(row.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn cutoff_beyond_list_is_clamped() {
        let m = rank_metrics(&[0.9], &[true], &[10]);
        assert_eq!(m.values[0][0], 1.0);
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = MetricAccumulator::new(&[1]);
        acc.add(&rank_metrics(&[0.9, 0.1], &[true, false], &[1])); // recall 1
        acc.add(&rank_metrics(&[0.1, 0.9], &[true, false], &[1])); // recall 0
        let report = acc.finish();
        assert_eq!(report.users, 2);
        assert!((report.get(Metric::Recall, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "was not evaluated")]
    fn report_rejects_unknown_cutoff() {
        let acc = MetricAccumulator::new(&[2]);
        acc.finish().get(Metric::Recall, 7);
    }

    #[test]
    fn display_contains_all_metric_names() {
        let mut acc = MetricAccumulator::new(&[2, 4]);
        acc.add(&rank_metrics(&[0.9, 0.1], &[true, false], &[2, 4]));
        let text = acc.finish().to_string();
        for m in Metric::ALL {
            assert!(text.contains(m.name()));
        }
    }
}
