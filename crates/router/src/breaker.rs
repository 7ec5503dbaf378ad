//! Per-replica circuit breaker.
//!
//! Extends the PR 5 shed/degrade philosophy one tier up: when a replica
//! keeps failing (transport errors or *unexpected* backend 5xx — not
//! 429s or Retry-After-stamped 503 sheds, which are the backend
//! protecting itself), the router stops burning connections on it and
//! answers `503` + `Retry-After` for that shard immediately ("dark
//! shard"). After a cooldown the breaker half-opens
//! and admits exactly one probe request; its outcome closes or re-opens
//! the breaker.
//!
//! The state machine is clock-free: every transition takes `now` as a
//! parameter and [`CircuitBreaker::force_half_open`] models cooldown
//! expiry explicitly, so the fleet-chaos suite can drive transitions
//! deterministically under a fixed seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before half-opening.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
        }
    }
}

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests admitted.
    Closed,
    /// Tripped: requests rejected until the cooldown elapses.
    Open,
    /// Probing: exactly one in-flight request allowed; its outcome
    /// decides Closed vs Open.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        })
    }
}

/// What the breaker says about admitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: forward normally.
    Allow,
    /// Half-open: forward as the single probe.
    Probe,
    /// Open (or probe already in flight): answer 503 without forwarding.
    Reject,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A per-replica circuit breaker. Thread-safe; cheap under contention
/// (one short mutex per admission decision).
#[derive(Debug)]
pub struct CircuitBreaker {
    inner: Mutex<Inner>,
    config: BreakerConfig,
    /// Closed/HalfOpen → Open transitions.
    pub opened_total: AtomicU64,
    /// Open → HalfOpen transitions.
    pub half_opened_total: AtomicU64,
    /// Open/HalfOpen → Closed transitions: a success closes the breaker
    /// from either (one admitted before the breaker tripped can land
    /// while it is Open). [`CircuitBreaker::reset`] is not counted.
    pub closed_total: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given config.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            config,
            opened_total: AtomicU64::new(0),
            half_opened_total: AtomicU64::new(0),
            closed_total: AtomicU64::new(0),
        }
    }

    // Nothing panics while `inner` is held (field assignments and
    // comparisons only), so the lock is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap()
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Decides whether one request may go to this replica at `now`.
    pub fn admit(&self, now: Instant) -> Admission {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                let expired = inner
                    .opened_at
                    .is_some_and(|at| now.duration_since(at) >= self.config.cooldown);
                if expired {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    self.half_opened_total.fetch_add(1, Ordering::Relaxed);
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    Admission::Reject
                } else {
                    inner.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Forces an open breaker to half-open, as if the cooldown elapsed.
    /// The chaos suite uses this instead of sleeping through cooldowns.
    pub fn force_half_open(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::Open {
            inner.state = BreakerState::HalfOpen;
            inner.probe_in_flight = false;
            self.half_opened_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a successful forward (2xx/4xx answer from the replica):
    /// closes the breaker from any state.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        if inner.state != BreakerState::Closed {
            self.closed_total.fetch_add(1, Ordering::Relaxed);
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.probe_in_flight = false;
    }

    /// Records a failed forward (transport error or backend 5xx) at `now`.
    pub fn record_failure(&self, now: Instant) {
        let mut inner = self.lock();
        inner.probe_in_flight = false;
        match inner.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(now);
                self.opened_total.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(now);
                    self.opened_total.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Resets to Closed with counters cleared. Used when a replica
    /// rejoins the fleet (probe confirms it is back).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.probe_in_flight = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let b = breaker(3, 10_000);
        let t0 = Instant::now();
        b.record_failure(t0);
        b.record_failure(t0);
        b.record_success(); // streak broken
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t0), Admission::Reject);
        assert_eq!(b.opened_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cooldown_expiry_admits_single_probe() {
        let b = breaker(1, 50);
        let t0 = Instant::now();
        b.record_failure(t0);
        assert_eq!(b.admit(t0), Admission::Reject);
        let later = t0 + Duration::from_millis(60);
        assert_eq!(b.admit(later), Admission::Probe);
        // Second concurrent request during the probe is rejected.
        assert_eq!(b.admit(later), Admission::Reject);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closed_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = breaker(1, 0);
        let t0 = Instant::now();
        b.record_failure(t0);
        assert_eq!(b.admit(t0), Admission::Probe);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened_total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn force_half_open_skips_cooldown() {
        let b = breaker(1, 3_600_000);
        let t0 = Instant::now();
        b.record_failure(t0);
        assert_eq!(b.admit(t0), Admission::Reject);
        b.force_half_open();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(t0), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
