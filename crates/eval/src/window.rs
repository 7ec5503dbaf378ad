//! Windowed shadow evaluation over recent check-in events.
//!
//! The offline protocol ([`crate::evaluate`]) ranks held-out
//! crossing-city visits; the online loop needs something different: a
//! cheap, deterministic score for "how well would this candidate model
//! serve the traffic we just saw?". [`evaluate_window`] answers that
//! over a held-out window of recent events — for each event, the true
//! POI is ranked against seeded same-city negatives the scorer also
//! sees, yielding hit-rate@k.
//!
//! Determinism is the load-bearing property: the negative sets depend
//! only on `(events, seed)`, never on the scorer, so a candidate and the
//! serving baseline are compared on *identical* candidate lists and the
//! publish gate's accept/reject decision is reproducible run to run.

use crate::protocol::sample_candidates;
use crate::Scorer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use st_data::{Checkin, Dataset, PoiId};
use std::cmp::Ordering;

/// Shadow-evaluation knobs.
#[derive(Debug, Clone)]
pub struct WindowEvalConfig {
    /// Same-city negatives ranked against each event's true POI.
    pub negatives: usize,
    /// Cutoff for the hit-rate metric.
    pub k: usize,
    /// Negative-sampling seed: fixed seed + fixed window = identical
    /// candidates for every scorer evaluated on that window.
    pub seed: u64,
}

impl Default for WindowEvalConfig {
    fn default() -> Self {
        Self {
            negatives: 50,
            k: 10,
            seed: 0x5EAD,
        }
    }
}

/// Result of one windowed shadow evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// Events evaluated (zero for an empty window).
    pub(crate) events: usize,
    /// Fraction of events whose true POI ranked in the top `k`.
    pub hit_rate: f64,
}

/// Ranks each event's true POI against `config.negatives` seeded
/// distinct same-city POIs (the true POI excluded from the negatives)
/// and aggregates hit-rate@k over the window.
///
/// Ties count as expected rank, like [`crate::rank_metrics`]: the true
/// POI takes each position of its tie group with equal chance, so a
/// constant scorer's hit rate is `k / (negatives + 1)`. A NaN on either
/// side of a comparison ranks the negative first, so a scorer that
/// returns NaN misses. An empty window reports zero events and a zero
/// rate — callers gate on `events` before trusting it.
pub fn evaluate_window(
    scorer: &dyn Scorer,
    dataset: &Dataset,
    events: &[Checkin],
    config: &WindowEvalConfig,
) -> WindowReport {
    assert!(config.negatives > 0, "need at least one negative");
    assert!(config.k > 0, "need a positive cutoff");
    if events.is_empty() {
        return WindowReport {
            events: 0,
            hit_rate: 0.0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut hits = 0.0;
    for event in events {
        let truth = event.poi;
        let city_pois = dataset.pois_in_city(dataset.poi(truth).city);
        let candidates: Vec<PoiId> =
            sample_candidates(city_pois, &[truth], config.negatives, &mut rng);
        let scores = scorer.score_batch(event.user, &candidates);
        debug_assert_eq!(scores.len(), candidates.len());
        // The truth (index 0) under descending score: a negative above
        // it unless the truth scores at least as high (NaN, incomparable,
        // goes against it), and its tie group shares one more position.
        let (mut above, mut tied) = (0usize, 0usize);
        for s in &scores[1..] {
            match scores[0].partial_cmp(s) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) => tied += 1,
                _ => above += 1,
            }
        }
        hits += config.k.saturating_sub(above).min(tied + 1) as f64 / (tied + 1) as f64;
    }
    WindowReport {
        events: events.len(),
        hit_rate: hits / events.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, CheckinStream, SynthConfig};
    use st_data::UserId;
    use std::collections::HashMap;

    fn setup() -> (st_data::Dataset, Vec<Checkin>) {
        let (d, _) = generate(&SynthConfig::tiny());
        let events = CheckinStream::new(&d, 11).next_batch(60);
        (d, events)
    }

    /// Scores 1.0 for each user's known true POI, 0.0 otherwise. Only
    /// valid for windows where each user appears once.
    struct Oracle {
        truth: HashMap<u32, PoiId>,
        invert: bool,
    }

    impl Scorer for Oracle {
        fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
            pois.iter()
                .map(|p| {
                    let hit = self.truth.get(&user.0) == Some(p);
                    let s = if hit { 1.0 } else { 0.0 };
                    if self.invert {
                        -s
                    } else {
                        s
                    }
                })
                .collect()
        }
    }

    fn dedup_by_user(events: Vec<Checkin>) -> Vec<Checkin> {
        let mut seen = std::collections::HashSet::new();
        events
            .into_iter()
            .filter(|e| seen.insert(e.user.0))
            .collect()
    }

    #[test]
    fn oracle_scores_perfectly_and_anti_oracle_misses() {
        let (d, events) = setup();
        let events = dedup_by_user(events);
        let truth: HashMap<u32, PoiId> = events.iter().map(|e| (e.user.0, e.poi)).collect();
        let cfg = WindowEvalConfig::default();

        let report = evaluate_window(
            &Oracle {
                truth: truth.clone(),
                invert: false,
            },
            &d,
            &events,
            &cfg,
        );
        assert_eq!(report.events, events.len());
        assert_eq!(report.hit_rate, 1.0);

        let anti = evaluate_window(
            &Oracle {
                truth,
                invert: true,
            },
            &d,
            &events,
            &cfg,
        );
        assert!(
            anti.hit_rate < 0.35,
            "anti-oracle hit rate {}",
            anti.hit_rate
        );
    }

    #[test]
    fn same_seed_same_window_is_deterministic() {
        struct Hash;
        impl Scorer for Hash {
            fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
                pois.iter()
                    .map(|p| ((p.0 ^ user.0).wrapping_mul(2654435761) % 997) as f32)
                    .collect()
            }
        }
        let (d, events) = setup();
        let cfg = WindowEvalConfig::default();
        let a = evaluate_window(&Hash, &d, &events, &cfg);
        let b = evaluate_window(&Hash, &d, &events, &cfg);
        assert_eq!(a, b);
        let c = evaluate_window(
            &Hash,
            &d,
            &events,
            &WindowEvalConfig {
                seed: 1,
                ..cfg.clone()
            },
        );
        assert_eq!(a.events, c.events); // same window, different negatives
    }

    #[test]
    fn candidates_are_same_city_distinct_and_truth_first() {
        use std::sync::Mutex;
        struct Recording<'a> {
            dataset: &'a st_data::Dataset,
            windows: Mutex<Vec<Vec<PoiId>>>,
        }
        impl Scorer for Recording<'_> {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                let city = self.dataset.poi(pois[0]).city;
                for &p in pois {
                    assert_eq!(self.dataset.poi(p).city, city, "negative from another city");
                }
                let mut sorted = pois.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), pois.len(), "duplicate candidate");
                self.windows.lock().unwrap().push(pois.to_vec());
                vec![0.0; pois.len()]
            }
        }
        let (d, events) = setup();
        let rec = Recording {
            dataset: &d,
            windows: Mutex::new(Vec::new()),
        };
        let cfg = WindowEvalConfig {
            negatives: 20,
            ..WindowEvalConfig::default()
        };
        evaluate_window(&rec, &d, &events, &cfg);
        let windows = rec.windows.into_inner().unwrap();
        assert_eq!(windows.len(), events.len());
        for (w, e) in windows.iter().zip(&events) {
            assert_eq!(w[0], e.poi, "truth must lead the candidate list");
            assert_eq!(w.len(), 21);
        }
    }

    /// A constant scorer reads the random expectation, `k` of the
    /// `negatives + 1` positions, and one whose scores all saturate at
    /// 1.0 does no better.
    #[test]
    fn a_constant_scorer_hits_at_the_random_rate() {
        struct Constant(f32);
        impl Scorer for Constant {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                vec![self.0; pois.len()]
            }
        }
        let (d, events) = setup();
        // Every city of the fixture has 20 POIs besides the truth.
        let cfg = WindowEvalConfig {
            negatives: 20,
            ..WindowEvalConfig::default()
        };
        let constant = evaluate_window(&Constant(0.25), &d, &events, &cfg);
        let want = cfg.k as f64 / (cfg.negatives + 1) as f64;
        assert!((constant.hit_rate - want).abs() < 1e-12, "{constant:?}");
        assert_eq!(evaluate_window(&Constant(1.0), &d, &events, &cfg), constant);
    }

    #[test]
    fn empty_window_reports_zero_events() {
        struct Zero;
        impl Scorer for Zero {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                vec![0.0; pois.len()]
            }
        }
        let (d, _) = setup();
        let r = evaluate_window(&Zero, &d, &[], &WindowEvalConfig::default());
        assert_eq!(r.events, 0);
        assert_eq!(r.hit_rate, 0.0);
    }
}
