//! Router-tier metrics in the same plain-text exposition style as
//! `st-serve`'s `/metrics`, under the `st_router_` prefix. Counters are
//! lock-free atomics; per-replica gauges (health, breaker state, epoch,
//! generation) are read live from the [`Fleet`] at
//! render time so the exposition can never drift from routing reality.

use crate::breaker::BreakerState;
use crate::fleet::{Fleet, Generation};
use st_serve::StatusTally;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Router request/forward counters.
#[derive(Debug, Default)]
pub(crate) struct RouterMetrics {
    /// All requests handled (any route).
    pub(crate) requests_total: AtomicU64,
    /// `GET /recommend` requests.
    pub(crate) recommend_requests: AtomicU64,
    /// Requests forwarded to a replica (includes breaker probes).
    pub(crate) forwarded_total: AtomicU64,
    /// Forwards that landed on a replica other than the key's static
    /// ring owner (health remap or rollout diversion).
    pub(crate) remapped_total: AtomicU64,
    /// 503s shed because the shard's breaker was open.
    pub(crate) dark_total: AtomicU64,
    /// 503s shed to protect a user's epoch pin during a rollout.
    pub(crate) pin_total: AtomicU64,
    /// 503s with no eligible replica at all.
    pub(crate) unroutable_total: AtomicU64,
    /// Forwards that failed at the transport layer (counted toward the
    /// target's breaker).
    pub(crate) forward_errors_total: AtomicU64,
    /// Stale pooled backend connections silently replaced (not failures).
    pub(crate) conn_retries_total: AtomicU64,
    /// Rolling rollouts started fresh.
    pub(crate) rollouts_started: AtomicU64,
    /// Reload POSTs that resumed an already-active (paused) rollout.
    pub(crate) rollouts_resumed: AtomicU64,
    /// Rollouts that upgraded every replica.
    pub(crate) rollouts_completed: AtomicU64,
    /// Rollout steps that paused (replica down or verify failed).
    pub(crate) rollouts_paused: AtomicU64,
    /// Responses by status class.
    pub(crate) responses: StatusTally,
}

impl RouterMetrics {
    /// Fresh zeroed metrics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Renders the exposition, joining counters with live fleet gauges.
    pub(crate) fn render(&self, fleet: &Fleet) -> String {
        let mut out = String::with_capacity(2048);
        let counters: [(&str, &AtomicU64); 13] = [
            ("st_router_requests_total", &self.requests_total),
            (
                "st_router_recommend_requests_total",
                &self.recommend_requests,
            ),
            ("st_router_forwarded_total", &self.forwarded_total),
            ("st_router_remapped_total", &self.remapped_total),
            ("st_router_dark_shard_503_total", &self.dark_total),
            ("st_router_epoch_pin_503_total", &self.pin_total),
            ("st_router_unroutable_503_total", &self.unroutable_total),
            ("st_router_forward_errors_total", &self.forward_errors_total),
            ("st_router_conn_retries_total", &self.conn_retries_total),
            ("st_router_rollouts_started_total", &self.rollouts_started),
            ("st_router_rollouts_resumed_total", &self.rollouts_resumed),
            (
                "st_router_rollouts_completed_total",
                &self.rollouts_completed,
            ),
            ("st_router_rollouts_paused_total", &self.rollouts_paused),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "{name} {}", v.load(Relaxed));
        }
        self.responses
            .render_into(&mut out, "st_router_responses_total");
        let _ = writeln!(out, "st_router_replicas_total {}", fleet.len());
        let _ = writeln!(out, "st_router_replicas_healthy {}", fleet.healthy_count());
        let _ = writeln!(
            out,
            "st_router_rollout_active {}",
            u64::from(fleet.rollout_active())
        );
        let _ = writeln!(out, "st_router_pinned_keys {}", fleet.pinned_count());
        let (mut opened, mut half_opened, mut closed) = (0u64, 0u64, 0u64);
        for r in fleet.replicas() {
            let id = r.id;
            let _ = writeln!(
                out,
                "st_router_replica_healthy{{replica=\"{id}\"}} {}",
                u64::from(r.healthy())
            );
            let state = match r.breaker.state() {
                BreakerState::Closed => 0u64,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            let _ = writeln!(
                out,
                "st_router_replica_breaker_state{{replica=\"{id}\"}} {state}"
            );
            let _ = writeln!(
                out,
                "st_router_replica_model_epoch{{replica=\"{id}\"}} {}",
                r.last_epoch.load(Relaxed)
            );
            let generation = match r.generation() {
                Generation::Old => 0u64,
                Generation::InFlight => 1,
                Generation::New => 2,
            };
            let _ = writeln!(
                out,
                "st_router_replica_generation{{replica=\"{id}\"}} {generation}"
            );
            let _ = writeln!(
                out,
                "st_router_replica_forwarded_total{{replica=\"{id}\"}} {}",
                r.forwarded_total.load(Relaxed)
            );
            opened += r.breaker.opened_total.load(Relaxed);
            half_opened += r.breaker.half_opened_total.load(Relaxed);
            closed += r.breaker.closed_total.load(Relaxed);
        }
        let _ = writeln!(out, "st_router_breaker_opened_total {opened}");
        let _ = writeln!(out, "st_router_breaker_half_opened_total {half_opened}");
        let _ = writeln!(out, "st_router_breaker_closed_total {closed}");
        st_serve::metrics::render_resident_into(&mut out, "st_router");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;

    #[test]
    fn render_includes_counters_and_per_replica_gauges() {
        let addrs: Vec<std::net::SocketAddr> = (0..2)
            .map(|i| format!("127.0.0.1:{}", 9100 + i).parse().unwrap())
            .collect();
        let fleet = Fleet::new(&addrs, FleetConfig::default());
        let m = RouterMetrics::new();
        m.requests_total.fetch_add(3, Relaxed);
        m.responses.record(200);
        m.responses.record(503);
        let text = m.render(&fleet);
        assert!(text.contains("st_router_requests_total 3"));
        assert!(text.contains("st_router_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("st_router_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("st_router_replicas_total 2"));
        assert!(text.contains("st_router_replicas_healthy 2"));
        assert!(text.contains("st_router_replica_healthy{replica=\"0\"} 1"));
        assert!(text.contains("st_router_replica_breaker_state{replica=\"1\"} 0"));
        assert!(text.contains("st_router_breaker_opened_total 0"));
        let has_status = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(text.contains("st_router_resident_bytes "), has_status);
        assert_eq!(text.contains("st_router_resident_peak_bytes "), has_status);
    }
}
