//! The benchmark's single timing/statistics core: nearest-rank
//! percentiles, the "highest percentile with at least ten samples beyond
//! it" rule, and span self-time. Every number the benchmark prints goes
//! through here.

use std::collections::BTreeMap;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest level `tail_us` reports: p90, where the window leaves ten
/// samples beyond it (every full window does). Higher levels did not
/// repeat on a shared two-CPU machine (inter-quartile spread of ten
/// `reload_mixed` runs: p95 11-23 %, p99 16 %); p99 is still reported, as
/// the per-layer `client.p99_us`. `train_paper` stops at p75, see
/// `Workload::tail_cap`.
pub const TAIL_CAP: f64 = 0.90;

/// Percentile levels the tail rule chooses from, ascending.
const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p * n` samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of level `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder level, capped at `cap`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none does.
pub fn tail_level(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap && n >= MIN_BEYOND + rank(n.max(1), p))
        .fold(0.50, f64::max)
}

/// What is always reported about one sample of timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank p99, whatever the sample size.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes `samples` (any order). `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 0.50),
        p99: percentile(&sorted, 0.99),
        max: sorted[sorted.len() - 1],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    })
}

/// Which slice of a group a number is read from, counting from the best:
/// the fourth-best, or in a group of fewer than 32 slices the one an
/// eighth of the way in.
///
/// A rate or a percentile is taken in each short slice of the window, and
/// a slice at the quiet end is reported. On a shared host the same code
/// runs for minutes on end at up to 1.8 times its quiet cost, in bursts
/// that leave quiet gaps of a tenth of a second or less; a burst can only
/// add time, so the quiet end of many short slices repeats where their
/// median does not (ten `fleet_hot` runs: `p50_us` spread 22 % as the
/// median of five 3 s slices, 2-3 % as the fourth-best of 320 slices of
/// 50 ms). A change to the program moves every slice, the quiet ones too.
/// Not the very best of many slices, so that a lucky or an odd one does
/// not set the number.
pub const QUIET_RANK: usize = 4;

/// Operations a slice must hold on average; a window too short to fill
/// its slices (a `--smoke` run) is cut into fewer.
const MIN_SLICE_OPS: usize = 8;

/// One timed operation: when it completed, in seconds from the start of
/// the window, and how long it took, in µs.
pub type Timed = (f64, f64);

/// The end-to-end numbers of one window, each read at the quiet end of
/// its slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    /// Operations completed per second.
    pub ops_per_s: f64,
    /// Median latency.
    pub p50: f64,
    /// Latency at `tail_level`.
    pub tail: f64,
    /// The level [`tail_level`] allows the whole window; the same in every
    /// slice, so that slices compare.
    pub tail_level: f64,
}

/// The value at the quiet end of `values`, see [`QUIET_RANK`].
fn quiet(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values[QUIET_RANK.min(values.len() / 8).max(1) - 1]
}

/// Rate, median and tail latency of one slice; `None` when it holds fewer
/// than two operations.
fn slice_numbers(slice: &[Timed], level: f64) -> Option<[f64; 3]> {
    let mut latencies: Vec<f64> = slice.iter().map(|&(_, us)| us).collect();
    latencies.sort_by(f64::total_cmp);
    // Rate from the first completion in the slice to the last, so that it
    // is measured, not a count over a nominal length.
    let first = slice
        .iter()
        .map(|&(at, _)| at)
        .fold(f64::INFINITY, f64::min);
    let last = slice.iter().map(|&(at, _)| at).fold(0.0, f64::max);
    (last > first).then(|| {
        [
            (slice.len() - 1) as f64 / (last - first),
            percentile(&latencies, 0.50),
            percentile(&latencies, level),
        ]
    })
}

/// Cuts `ops` into `slices` equal slices of a window `window_s` long by
/// completion time (what completes after the window is left out) and reads
/// each number at the quiet end of the slices.
///
/// Where the workload repeats itself every `cycle` slices (`reload_mixed`:
/// one reload every twenty slices), slices are only compared with those at
/// the same place in the cycle, and the quiet-end readings of the `cycle`
/// places are averaged: a part of the cycle that is dear to the program
/// then counts for its share of the time, where the quiet end of all
/// slices would pass it over. Elsewhere `cycle` is 1.
///
/// `None` when no slice holds two operations.
pub fn sliced(
    ops: &[Timed],
    window_s: f64,
    slices: usize,
    cycle: usize,
    cap: f64,
) -> Option<Sliced> {
    let filled = slices.min(ops.len() / MIN_SLICE_OPS).max(1);
    let (slices, cycle) = if filled == slices {
        (slices, cycle)
    } else {
        (filled, 1)
    };
    let mut cut: Vec<Vec<Timed>> = vec![Vec::new(); slices];
    for &op in ops {
        if let Some(slice) = cut.get_mut((op.0 / window_s * slices as f64) as usize) {
            slice.push(op);
        }
    }
    let level = tail_level(ops.len(), cap);
    let numbers: Vec<Option<[f64; 3]>> = cut.iter().map(|s| slice_numbers(s, level)).collect();
    let mut sums = [0.0f64; 3];
    let mut places = 0usize;
    for place in 0..cycle {
        let group: Vec<[f64; 3]> = numbers
            .iter()
            .skip(place)
            .step_by(cycle)
            .flatten()
            .copied()
            .collect();
        if group.is_empty() {
            continue;
        }
        places += 1;
        for (metric, sum) in sums.iter_mut().enumerate() {
            let values = group.iter().map(|numbers| numbers[metric]).collect();
            *sum += quiet(values, metric != 0);
        }
    }
    (places > 0).then(|| Sliced {
        ops_per_s: sums[0] / places as f64,
        p50: sums[1] / places as f64,
        tail: sums[2] / places as f64,
        tail_level: level,
    })
}

/// Median of `samples`; 0 for an empty sample (a layer that did no work).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// One traced interval around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.retrieval.candidates`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one request (or step, or reload).
    pub request: u32,
}

/// Self time of every span, ns: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; parts of a child outside the parent are ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Median self time per span name, in µs.
pub fn median_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        by_name
            .entry(span.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, samples)| (name, median(&samples)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_hand_built_sample() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 5.0);
        assert_eq!(percentile(&sorted, 0.90), 9.0);
        assert_eq!(percentile(&sorted, 0.91), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(19, 0.99), 0.50, "9 beyond the median");
        assert_eq!(tail_level(20, 0.99), 0.50);
        assert_eq!(tail_level(40, 0.99), 0.75);
        assert_eq!(tail_level(100, 0.99), 0.90);
        assert_eq!(tail_level(999, 0.99), 0.95);
        assert_eq!(tail_level(1_000, 0.99), 0.99);
        assert_eq!(tail_level(1_000_000, 0.99), 0.99, "capped");
        assert_eq!(tail_level(1_000_000, 1.0), 0.999);
        assert_eq!(tail_level(1_000, 0.90), 0.90, "cap below the rule");
    }

    #[test]
    fn summary_always_carries_n_median_and_max() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!((s.n, s.p50, s.max), (1000, 500.0, 1000.0));
        assert_eq!((s.p99, s.mean), (990.0, 500.5));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sliced_reads_the_quiet_end_of_the_slices() {
        // 40 slices of 1 s, 100 operations each. Slice `i` has latency
        // 100 + i, except 28 slices hit by a burst and three lucky ones.
        let mut ops: Vec<Timed> = Vec::new();
        for slice in 0..40 {
            let (latency, n) = match slice {
                3..=30 => (900.0, 25),
                36..=38 => (50.0, 100),
                _ => (100.0 + slice as f64, 100),
            };
            for j in 0..n {
                ops.push((slice as f64 + (j + 1) as f64 / n as f64 * 0.99, latency));
            }
        }
        ops.push((40.3, 1.0)); // completed after the window: left out
        let s = sliced(&ops, 40.0, 40, 1, 0.90).unwrap();
        // Fourth best of forty: the lucky slices are passed over, the
        // bursts, though they fill most of the window, are not reached.
        assert_eq!((s.p50, s.tail, s.tail_level), (100.0, 100.0, 0.90));
        assert!((s.ops_per_s - 100.0).abs() < 1.1, "{}", s.ops_per_s);
        // Ten slices: the best (an eighth of ten is one).
        assert_eq!(sliced(&ops, 40.0, 10, 1, 0.90).unwrap().p50, 50.0);
        // A window too short to fill its slices is cut into fewer: 24
        // operations make three slices, not twenty.
        let few: Vec<Timed> = (0..24).map(|i| (i as f64, i as f64)).collect();
        let s = sliced(&few, 24.0, 20, 1, 0.90).unwrap();
        assert_eq!((s.p50, s.tail_level), (3.0, 0.50));
        assert!(sliced(&[], 20.0, 20, 1, 0.90).is_none());
        assert!(sliced(&[(0.5, 1.0)], 20.0, 20, 1, 0.90).is_none());
    }

    #[test]
    fn sliced_compares_slices_at_the_same_place_in_the_cycle() {
        // 16 slices of 1 s in cycles of two: even slices cost 10, odd ones
        // 30, and a burst doubles the first half of the window.
        let mut ops: Vec<Timed> = Vec::new();
        for slice in 0..16 {
            let latency = if slice % 2 == 0 { 10.0 } else { 30.0 };
            let burst = if slice < 8 { 2.0 } else { 1.0 };
            for j in 0..10 {
                ops.push((slice as f64 + (j + 1) as f64 * 0.09, latency * burst));
            }
        }
        // The quiet end of all sixteen passes the dear half of the cycle
        // over; by place in the cycle it counts for half.
        assert_eq!(sliced(&ops, 16.0, 16, 1, 0.90).unwrap().p50, 10.0);
        assert_eq!(sliced(&ops, 16.0, 16, 2, 0.90).unwrap().p50, 20.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // sticks out of the root by 20
            span("leaf", 12, 20, Some(1)),
        ];
        // root: 100 - ([10,60) = 50) - ([90,100) = 10) = 40
        assert_eq!(self_times(&spans), vec![40, 22, 30, 30, 8]);
    }

    #[test]
    fn median_self_time_groups_by_name() {
        let spans = vec![
            span("root", 0, 10_000, None),
            span("x", 1_000, 2_000, Some(0)),
            span("x", 3_000, 6_000, Some(0)),
            span("x", 7_000, 9_000, Some(0)),
        ];
        let by_name = median_self_us(&spans);
        assert_eq!(by_name["x"], 2.0);
        assert_eq!(by_name["root"], 4.0);
    }
}
