//! `CircuitBreaker` against a reference state machine.
//!
//! Random sequences of `admit`, `record_success`, `record_failure`,
//! `reset` and `force_half_open`, over an advancing clock, drive the
//! breaker and a small model side by side. After every operation the
//! state, the admission answer and the three transition counters must
//! agree.
//!
//! The one case the model has to decide: a success recorded while the
//! breaker is Open (a forward admitted before the breaker tripped, whose
//! answer arrives after). It closes the breaker and counts in
//! `closed_total`, like a success in HalfOpen: the replica has just
//! answered.

use proptest::prelude::*;
use st_router::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// What the breaker should be, written from its documented contract.
struct Model {
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    failures: u32,
    opened_at: Option<Instant>,
    probe_out: bool,
    /// Transitions into Open, into HalfOpen, into Closed.
    counts: [u64; 3],
}

impl Model {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold,
            cooldown,
            state: BreakerState::Closed,
            failures: 0,
            opened_at: None,
            probe_out: false,
            counts: [0; 3],
        }
    }

    fn admit(&mut self, now: Instant) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open if self.opened_at.is_some_and(|t| now - t >= self.cooldown) => {
                self.half_open(true);
                Admission::Probe
            }
            BreakerState::HalfOpen if !self.probe_out => {
                self.probe_out = true;
                Admission::Probe
            }
            _ => Admission::Reject,
        }
    }

    fn success(&mut self) {
        if self.state != BreakerState::Closed {
            self.counts[2] += 1;
        }
        self.reset();
    }

    fn failure(&mut self, now: Instant) {
        self.probe_out = false;
        match self.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => self.open(now),
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.open(now);
                }
            }
        }
    }

    fn force_half_open(&mut self) {
        if self.state == BreakerState::Open {
            self.half_open(false);
        }
    }

    fn reset(&mut self) {
        (self.state, self.failures, self.opened_at, self.probe_out) =
            (BreakerState::Closed, 0, None, false);
    }

    fn open(&mut self, now: Instant) {
        (self.state, self.opened_at) = (BreakerState::Open, Some(now));
        self.counts[0] += 1;
    }

    fn half_open(&mut self, probe_out: bool) {
        (self.state, self.probe_out) = (BreakerState::HalfOpen, probe_out);
        self.counts[1] += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn breaker_matches_the_reference_state_machine(
        threshold in 1u32..5,
        cooldown_ms in 0u64..60,
        ops in collection::vec((0u8..5, 0u64..25), 1..160),
    ) {
        let cooldown = Duration::from_millis(cooldown_ms);
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: threshold, cooldown });
        let mut m = Model::new(threshold, cooldown);
        let mut now = Instant::now();
        for (i, &(op, dt_ms)) in ops.iter().enumerate() {
            now += Duration::from_millis(dt_ms);
            match op {
                0 => {
                    let (got, want) = (b.admit(now), m.admit(now));
                    prop_assert_eq!(got, want, "op {}: admit {:?}, model {:?}; ops {:?}", i, got, want, ops);
                }
                1 => {
                    b.record_success();
                    m.success();
                }
                2 => {
                    b.record_failure(now);
                    m.failure(now);
                }
                3 => {
                    b.reset();
                    m.reset();
                }
                _ => {
                    b.force_half_open();
                    m.force_half_open();
                }
            }
            let state = b.state();
            prop_assert_eq!(state, m.state, "op {}: state {:?}, model {:?}; ops {:?}", i, state, m.state, ops);
            let counts = [&b.opened_total, &b.half_opened_total, &b.closed_total].map(|c| c.load(Relaxed));
            prop_assert_eq!(
                counts, m.counts,
                "op {}: opened/half-opened/closed {:?}, model {:?}; ops {:?}", i, counts, m.counts, ops
            );
        }
    }
}
