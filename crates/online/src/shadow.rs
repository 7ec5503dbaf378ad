//! Held-out shadow window and the publish gate.
//!
//! The stream is split: most events train, a slice per cycle is held out
//! into a bounded [`ShadowWindow`] the trainer never sees. Before a
//! candidate snapshot may publish, [`gate`] shadow-evaluates it *and*
//! the currently serving baseline on that window with identical seeded
//! candidate sets ([`st_eval::evaluate_events`], the paper record's
//! protocol with the gate's constants) and accepts only if the
//! candidate does not regress hit rate (Recall@[`GATE_K`]) beyond
//! [`GATE_TOLERANCE`]. A rejected candidate is never written to the
//! checkpoint and never served.

use st_data::{Checkin, Dataset};
use st_eval::{evaluate_events, EvalConfig, Metric, MetricReport, Scorer};

/// Same-city negatives ranked against each held-out event's POI.
const GATE_NEGATIVES: usize = 50;
/// The hit rate's cutoff: the gate reads Recall@`GATE_K`.
const GATE_K: usize = 10;
/// Base negative-sampling seed, perturbed per cycle by [`gate`].
const GATE_SEED: u64 = 0x5EAD;
/// Below this many held-out events the window is too thin to judge;
/// the gate accepts (publishes) rather than stalling on no evidence.
const GATE_MIN_EVENTS: usize = 16;
/// Additive hit-rate slack: accept while `candidate + tolerance >=
/// baseline`. A 64-event window quantizes hit rate in ~0.016 steps, so
/// a tolerance below one quantum would let a single flipped event veto
/// a healthy candidate. Three quanta keep clean publishes flowing while
/// an untrained impostor (tens of quanta worse) still rejects.
const GATE_TOLERANCE: f64 = 0.05;

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

/// The gate's verdict, with both sides' evidence attached.
#[derive(Debug, Clone)]
pub(crate) struct GateDecision {
    /// Shadow metrics of the candidate snapshot.
    pub(crate) candidate: MetricReport,
    /// Shadow metrics of the serving baseline on identical candidates.
    pub(crate) baseline: MetricReport,
    /// Whether the candidate may be published.
    pub(crate) accept: bool,
}

/// A report's hit rate: the fraction of events whose POI ranked in the
/// top [`GATE_K`], ties at expected rank.
pub(crate) fn hit_rate(report: &MetricReport) -> f64 {
    report.get(Metric::Recall, GATE_K)
}

/// Shadow-evaluates `candidate` against `baseline` on the window.
///
/// `cycle` perturbs the negative-sampling seed so successive gate checks
/// do not reuse one fixed candidate set (a candidate could overfit it),
/// while staying a pure function of `(GATE_SEED, cycle)` — the whole
/// accept/reject sequence replays identically under a fixed seed.
pub(crate) fn gate(
    candidate: &dyn Scorer,
    baseline: &dyn Scorer,
    dataset: &Dataset,
    window: &ShadowWindow,
    cycle: u64,
) -> GateDecision {
    let eval = EvalConfig {
        negatives: GATE_NEGATIVES,
        ks: vec![GATE_K],
        seed: GATE_SEED ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    let candidate = evaluate_events(candidate, dataset, window.events(), &eval);
    let baseline = evaluate_events(baseline, dataset, window.events(), &eval);
    let accept = window.len() < GATE_MIN_EVENTS
        || hit_rate(&candidate) + GATE_TOLERANCE >= hit_rate(&baseline);
    GateDecision {
        candidate,
        baseline,
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

    /// A dataset of `synth` and a full 64-event window over it.
    fn full_window_of(synth: &SynthConfig) -> (Dataset, ShadowWindow) {
        let (d, _) = generate(synth);
        let mut w = ShadowWindow::new(64);
        w.extend(&CheckinStream::new(&d, 4).next_batch(64));
        (d, w)
    }

    fn full_window() -> (Dataset, ShadowWindow) {
        full_window_of(&SynthConfig::tiny())
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
        let (d, w) = full_window();

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
        let regress = gate(&shun, &Flat(0.0), &d, &w, 1);
        assert!(hit_rate(&regress.baseline) > 0.0);
        assert!(hit_rate(&regress.candidate) + GATE_TOLERANCE < hit_rate(&regress.baseline));
        assert!(!regress.accept, "regressing candidate must be rejected");

        let parity = gate(&Flat(1.0), &Flat(0.0), &d, &w, 1);
        assert_eq!(parity.candidate, parity.baseline);
        assert!(parity.accept, "parity within tolerance publishes");
    }

    /// A diverged candidate: NaN for every POI. NaN compares false both
    /// ways, so counting only negatives scored `>` the truth ranked its
    /// truth first on every event and the gate published it.
    #[test]
    fn nan_scoring_candidate_is_rejected() {
        let (d, w) = full_window();
        let nan = gate(&Flat(f32::NAN), &ByIdAsc, &d, &w, 1);
        assert_eq!(hit_rate(&nan.candidate), 0.0);
        assert!(hit_rate(&nan.baseline) > 0.0);
        assert!(!nan.accept, "a NaN-scoring candidate must be rejected");
    }

    #[test]
    fn thin_window_accepts_and_decisions_replay() {
        let (d, w) = full_window();
        let mut thin = ShadowWindow::new(64);
        thin.extend(&w.events()[..4]);
        let d1 = gate(&ByIdAsc, &Flat(0.0), &d, &thin, 0);
        assert!(d1.accept, "too little evidence to block publishing");

        for cycle in 0..4 {
            let a = gate(&ByIdAsc, &Flat(0.0), &d, &w, cycle);
            let b = gate(&ByIdAsc, &Flat(0.0), &d, &w, cycle);
            assert_eq!(a.accept, b.accept);
            assert_eq!(a.candidate, b.candidate);
            assert_eq!(a.baseline, b.baseline);
        }
    }

    /// The cycle perturbs the seed: two cycles on one window rank each
    /// event's POI among different negatives. (The fixture's 40-POI
    /// cities would hand every cycle all of a city; 120 leave a choice.)
    #[test]
    fn successive_cycles_draw_different_candidate_sets() {
        struct Sets(std::sync::Mutex<Vec<Vec<PoiId>>>);
        impl Scorer for Sets {
            fn score_batch(&self, _user: UserId, pois: &[PoiId]) -> Vec<f32> {
                let mut set = pois.to_vec();
                set[1..].sort_unstable();
                self.0.lock().unwrap().push(set);
                vec![0.0; pois.len()]
            }
        }
        let (d, w) = full_window_of(&SynthConfig {
            pois: 240,
            ..SynthConfig::tiny()
        });
        let sets = |cycle| {
            let rec = Sets(Default::default());
            gate(&rec, &Flat(0.0), &d, &w, cycle);
            rec.0.into_inner().unwrap()
        };
        let (first, second) = (sets(0), sets(1));
        assert_eq!(first.len(), w.len());
        assert_eq!(first, sets(0), "one cycle replays its candidates");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a[0], b[0], "same event, same truth");
            assert_ne!(a, b, "same negatives in two cycles");
        }
    }
}
