//! Held-out shadow window and the publish gate.
//!
//! The stream is split: most events train, a slice per cycle is held out
//! into a bounded [`ShadowWindow`] the trainer never sees. Before a
//! candidate snapshot may publish, [`gate`] shadow-evaluates it *and*
//! the currently serving baseline on that window with identical seeded
//! candidate sets ([`st_eval::evaluate_window`]) and accepts only if the
//! candidate does not regress hit-rate beyond a tolerance. A rejected
//! candidate is never written to the checkpoint and never served.

use st_data::{Checkin, Dataset};
use st_eval::{evaluate_window, Scorer, WindowEvalConfig, WindowReport};

/// Bounded FIFO of the most recent held-out events.
#[derive(Debug, Clone)]
pub(crate) struct ShadowWindow {
    capacity: usize,
    events: Vec<Checkin>,
}

impl ShadowWindow {
    /// An empty window keeping at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow window needs capacity");
        Self {
            capacity,
            events: Vec::with_capacity(capacity),
        }
    }

    /// Appends events, evicting the oldest beyond capacity.
    pub(crate) fn extend(&mut self, events: &[Checkin]) {
        self.events.extend_from_slice(events);
        if self.events.len() > self.capacity {
            let excess = self.events.len() - self.capacity;
            self.events.drain(..excess);
        }
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> &[Checkin] {
        &self.events
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}

/// Gate policy for publishing a candidate snapshot.
#[derive(Debug, Clone)]
pub(crate) struct GateConfig {
    /// Shadow-evaluation protocol (negatives, k, base seed).
    pub(crate) eval: WindowEvalConfig,
    /// Additive slack: accept while `candidate + tolerance >= baseline`
    /// on hit-rate, so sampling noise cannot starve publishing.
    pub(crate) tolerance: f64,
    /// Below this many held-out events the window is too thin to judge;
    /// the gate accepts (publishes) rather than stalling on no evidence.
    pub(crate) min_events: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            eval: WindowEvalConfig::default(),
            tolerance: 0.01,
            min_events: 16,
        }
    }
}

/// The gate's verdict, with both sides' evidence attached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateDecision {
    /// Shadow metrics of the candidate snapshot.
    pub(crate) candidate: WindowReport,
    /// Shadow metrics of the serving baseline on identical candidates.
    pub(crate) baseline: WindowReport,
    /// Whether the candidate may be published.
    pub(crate) accept: bool,
}

/// Shadow-evaluates `candidate` against `baseline` on the window.
///
/// `cycle` perturbs the negative-sampling seed so successive gate checks
/// do not reuse one fixed candidate set (a candidate could overfit it),
/// while staying a pure function of `(config.eval.seed, cycle)` — the
/// whole accept/reject sequence replays identically under a fixed seed.
pub(crate) fn gate(
    candidate: &dyn Scorer,
    baseline: &dyn Scorer,
    dataset: &Dataset,
    window: &ShadowWindow,
    config: &GateConfig,
    cycle: u64,
) -> GateDecision {
    let eval = WindowEvalConfig {
        seed: config.eval.seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..config.eval.clone()
    };
    let cand = evaluate_window(candidate, dataset, window.events(), &eval);
    let base = evaluate_window(baseline, dataset, window.events(), &eval);
    let accept =
        window.len() < config.min_events || cand.hit_rate + config.tolerance >= base.hit_rate;
    GateDecision {
        candidate: cand,
        baseline: base,
        accept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, CheckinStream, SynthConfig};
    use st_data::{PoiId, UserId};

    struct Flat(f32);
    impl Scorer for Flat {
        fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
            vec![self.0; pois.len()]
        }
    }

    /// Favors low POI ids: an order that knows nothing of the truth.
    struct ByIdAsc;
    impl Scorer for ByIdAsc {
        fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
            pois.iter().map(|p| -(p.0 as f32)).collect()
        }
    }

    #[test]
    fn window_is_bounded_fifo() {
        let (d, _) = generate(&SynthConfig::tiny());
        let events = CheckinStream::new(&d, 3).next_batch(30);
        let mut w = ShadowWindow::new(20);
        w.extend(&events[..15]);
        assert_eq!(w.len(), 15);
        w.extend(&events[15..]);
        assert_eq!(w.len(), 20, "capped at capacity");
        assert_eq!(w.events(), &events[10..], "oldest evicted first");
    }

    #[test]
    fn gate_rejects_regression_and_accepts_parity() {
        let (d, _) = generate(&SynthConfig::tiny());
        let mut w = ShadowWindow::new(64);
        w.extend(&CheckinStream::new(&d, 4).next_batch(64));
        let cfg = GateConfig::default();

        // A flat scorer ties everything, and a tie counts as expected
        // rank, so the flat baseline hits at the random rate; a candidate
        // that scores every POI the window visited lowest ranks each
        // event's truth last (below all but other visited POIs).
        struct Shun(Vec<PoiId>);
        impl Scorer for Shun {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                pois.iter()
                    .map(|p| -f32::from(u8::from(self.0.contains(p))))
                    .collect()
            }
        }
        let shun = Shun(w.events().iter().map(|e| e.poi).collect());
        let regress = gate(&shun, &Flat(0.0), &d, &w, &cfg, 1);
        assert!(regress.baseline.hit_rate > 0.0);
        assert!(regress.candidate.hit_rate < regress.baseline.hit_rate);
        assert!(!regress.accept, "regressing candidate must be rejected");

        let parity = gate(&Flat(1.0), &Flat(0.0), &d, &w, &cfg, 1);
        assert_eq!(parity.candidate.hit_rate, parity.baseline.hit_rate);
        assert!(parity.accept, "parity within tolerance publishes");
    }

    /// A diverged candidate: NaN for every POI. NaN compares false both
    /// ways, so counting only negatives scored `>` the truth ranked its
    /// truth first on every event and the gate published it.
    #[test]
    fn nan_scoring_candidate_is_rejected() {
        let (d, _) = generate(&SynthConfig::tiny());
        let mut w = ShadowWindow::new(64);
        w.extend(&CheckinStream::new(&d, 4).next_batch(64));
        let nan = gate(&Flat(f32::NAN), &ByIdAsc, &d, &w, &GateConfig::default(), 1);
        assert_eq!(nan.candidate.hit_rate, 0.0);
        assert!(nan.baseline.hit_rate > 0.0);
        assert!(!nan.accept, "a NaN-scoring candidate must be rejected");
    }

    #[test]
    fn thin_window_accepts_and_decisions_replay() {
        let (d, _) = generate(&SynthConfig::tiny());
        let cfg = GateConfig::default();
        let mut thin = ShadowWindow::new(64);
        thin.extend(&CheckinStream::new(&d, 4).next_batch(4));
        let d1 = gate(&ByIdAsc, &Flat(0.0), &d, &thin, &cfg, 0);
        assert!(d1.accept, "too little evidence to block publishing");

        let mut w = ShadowWindow::new(64);
        w.extend(&CheckinStream::new(&d, 4).next_batch(64));
        for cycle in 0..4 {
            let a = gate(&ByIdAsc, &Flat(0.0), &d, &w, &cfg, cycle);
            let b = gate(&ByIdAsc, &Flat(0.0), &d, &w, &cfg, cycle);
            assert_eq!(a.accept, b.accept);
            assert_eq!(a.candidate, b.candidate);
            assert_eq!(a.baseline, b.baseline);
        }
    }
}
