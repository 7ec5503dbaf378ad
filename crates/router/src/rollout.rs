//! Rolling snapshot rollout: upgrade replicas one at a time, verify each
//! swap, and never let one user observe mixed model generations.
//!
//! The driver is a resumable state machine over the fleet order:
//!
//! 1. Mark the next replica [`Generation::InFlight`] — the fleet diverts
//!    its users to a healthy old-generation successor.
//! 2. `POST /admin/reload` and parse the outcome the backend reports
//!    (`model_epoch`, `snapshot_format`, ...).
//! 3. Independently verify via `GET /metrics` that the
//!    `st_serve_model_epoch` gauge and the `st_serve_snapshot_format`
//!    one-hot agree with the reload report (and with the expected format
//!    when the operator pinned one).
//! 4. Mark the replica [`Generation::New`]; its users come back to it
//!    and are pinned to the new generation from their first answer.
//!
//! A dead replica, failed reload, or verification mismatch **pauses**
//! the rollout at that shard: the replica stays diverted (its state is
//! unverified), already-upgraded replicas keep serving the new
//! generation, and a later [`RolloutDriver::step`] retries the same
//! shard. Pausing instead of skipping is what keeps the "no mixed epochs
//! for one user" invariant trivially true under mid-rollout failures.
//!
//! The rollout's position lives on the [`Fleet`] (generation labels +
//! the `rollout_active` flag), not in the driver: a *fresh* driver over
//! a fleet whose rollout is already active resumes at the first
//! not-yet-verified shard, preserving pins and labels. That is what lets
//! each `POST /admin/reload` build its own short-lived driver and still
//! continue a paused rollout instead of restarting it.

use crate::fleet::{Fleet, Generation};
use crate::ring::ReplicaId;
use st_serve::{HttpClient, ReloadOutcome};
use st_tensor::StorageEncoding;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Rollout tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RolloutConfig {
    /// When set, every replica must land on exactly this snapshot format
    /// or the rollout pauses.
    pub expect_format: Option<StorageEncoding>,
    /// Reload/verify RPC timeout; `None` uses a generous default
    /// (reloads deserialize whole checkpoints).
    pub rpc_timeout: Option<Duration>,
}

/// Outcome of one [`RolloutDriver::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutStep {
    /// The shard reloaded and verified; its users now pin to the new
    /// generation.
    Upgraded {
        /// The upgraded replica.
        replica: ReplicaId,
        /// Its verified post-reload epoch.
        epoch: u64,
    },
    /// The rollout cannot proceed past this shard right now; retrying
    /// `step()` resumes here.
    Paused {
        /// The blocking replica.
        replica: ReplicaId,
        /// Human-readable cause.
        reason: String,
    },
    /// Every replica is upgraded; rollout state has been cleared.
    Done,
}

/// Summary of a full [`RolloutDriver::run`].
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Whether every replica upgraded.
    pub completed: bool,
    /// `(replica, verified epoch)` per upgraded shard, in order.
    pub upgraded: Vec<(ReplicaId, u64)>,
    /// The pause point, when not completed.
    pub paused: Option<(ReplicaId, String)>,
}

impl RolloutReport {
    /// Renders the report as the `/admin/reload` response body.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"completed\":{},\"upgraded\":[", self.completed);
        for (i, (id, epoch)) in self.upgraded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":{id},\"model_epoch\":{epoch}}}");
        }
        out.push(']');
        if let Some((id, reason)) = &self.paused {
            let _ = write!(
                out,
                ",\"paused\":{{\"replica\":{id},\"reason\":{}}}",
                st_serve::http::json_string(reason)
            );
        }
        out.push('}');
        out
    }
}

/// Drives one rolling rollout across a fleet.
pub struct RolloutDriver<'a> {
    fleet: &'a Fleet,
    config: RolloutConfig,
    next: usize,
    active: bool,
}

impl<'a> RolloutDriver<'a> {
    /// A driver positioned before the first replica.
    pub fn new(fleet: &'a Fleet, config: RolloutConfig) -> Self {
        Self {
            fleet,
            config,
            next: 0,
            active: false,
        }
    }

    /// Index of the next replica to upgrade.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Advances the rollout by (at most) one shard.
    pub fn step(&mut self) -> RolloutStep {
        if !self.active {
            if self.fleet.rollout_active() {
                // Resume the rollout already overlaying this fleet
                // (e.g. a re-POST after a pause): keep the pins and
                // generation labels, and recover the position as the
                // first shard not yet verified onto the new generation.
                // Restarting here would relabel upgraded replicas Old
                // and clear the pin set — an epoch regression for every
                // user already served by the new model.
                self.next = self
                    .fleet
                    .replicas()
                    .iter()
                    .position(|r| r.generation() != Generation::New)
                    .unwrap_or(self.fleet.len());
            } else {
                self.fleet.begin_rollout();
                self.next = 0;
            }
            self.active = true;
        }
        if self.next >= self.fleet.len() {
            self.fleet.finish_rollout();
            self.active = false;
            return RolloutStep::Done;
        }
        let replica = &self.fleet.replicas()[self.next];
        let id = replica.id;
        if !replica.healthy() {
            // Upgrading through a dead shard would leave its reload
            // state unknowable; wait for it to rejoin.
            return RolloutStep::Paused {
                replica: id,
                reason: "replica down".into(),
            };
        }
        replica.set_generation(Generation::InFlight);
        match self.reload_and_verify(replica.addr()) {
            Ok((epoch, format)) => {
                replica.last_epoch.store(epoch, Ordering::Release);
                replica.set_last_format(format);
                replica.set_generation(Generation::New);
                self.next += 1;
                RolloutStep::Upgraded { replica: id, epoch }
            }
            Err(reason) => {
                // Stay InFlight: the shard's serving state is unverified,
                // so its users remain diverted to the old generation.
                RolloutStep::Paused {
                    replica: id,
                    reason,
                }
            }
        }
    }

    /// Steps until the rollout completes or pauses.
    pub fn run(&mut self) -> RolloutReport {
        let mut upgraded = Vec::new();
        loop {
            match self.step() {
                RolloutStep::Upgraded { replica, epoch } => upgraded.push((replica, epoch)),
                RolloutStep::Paused { replica, reason } => {
                    return RolloutReport {
                        completed: false,
                        upgraded,
                        paused: Some((replica, reason)),
                    }
                }
                RolloutStep::Done => {
                    return RolloutReport {
                        completed: true,
                        upgraded,
                        paused: None,
                    }
                }
            }
        }
    }

    /// Abandons the rollout, clearing diversion and pins. Upgraded
    /// replicas keep serving whatever they reloaded (epochs only move
    /// forward); only the routing overlay is dropped.
    pub fn abort(&mut self) {
        if self.active {
            self.fleet.finish_rollout();
            self.active = false;
        }
    }

    /// Issues the reload RPC and cross-checks the reported outcome
    /// against the replica's own `/metrics` gauges.
    fn reload_and_verify(&self, addr: SocketAddr) -> Result<(u64, StorageEncoding), String> {
        let timeout = self.config.rpc_timeout.unwrap_or(Duration::from_secs(30));
        let resp = HttpClient::connect_with(addr, Duration::from_secs(1), timeout)
            .map_err(|e| format!("reload connect failed: {e}"))?
            .post("/admin/reload")
            .map_err(|e| format!("reload rpc failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("reload returned {}: {}", resp.status, resp.body));
        }
        let ReloadOutcome { epoch, format, .. } = ReloadOutcome::parse(&resp.body)
            .ok_or_else(|| format!("unreadable reload body: {}", resp.body))?;
        if let Some(expect) = self.config.expect_format {
            if format != expect {
                return Err(format!(
                    "snapshot format mismatch: reloaded {format}, expected {expect}"
                ));
            }
        }
        // Independent verification: what the replica *reports serving*
        // must match what the reload claimed to install.
        let scrape = crate::fleet::probe_metrics(addr, timeout)
            .map_err(|e| format!("verification scrape failed: {e}"))?;
        if scrape.epoch != epoch {
            return Err(format!(
                "epoch gauge {} does not match reloaded epoch {epoch}",
                scrape.epoch
            ));
        }
        if scrape.format != Some(format) {
            return Err(format!(
                "format gauge {:?} does not match reloaded format {format}",
                scrape.format.map(|f| f.to_string())
            ));
        }
        Ok((epoch, format))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::ring::RouteKey;

    #[test]
    fn fresh_driver_resumes_paused_rollout_without_resetting_state() {
        // Nothing listens on port 1: any reload attempt fails fast, so
        // this exercises only the position/state logic.
        let addrs: Vec<SocketAddr> = (0..3).map(|_| "127.0.0.1:1".parse().unwrap()).collect();
        let fleet = Fleet::new(&addrs, FleetConfig::default());

        // An earlier driver (a previous /admin/reload) upgraded shard 0,
        // pinned one of its users to the new generation, and paused.
        fleet.begin_rollout();
        fleet.replica(ReplicaId(0)).set_generation(Generation::New);
        fleet.note_served(RouteKey::User(7), ReplicaId(0));
        assert_eq!(fleet.pinned_count(), 1);

        // A fresh driver (the re-POST) must resume at shard 1, not
        // restart: shard 0 stays New and the pin survives.
        let mut driver = RolloutDriver::new(&fleet, RolloutConfig::default());
        match driver.step() {
            RolloutStep::Paused { replica, .. } => assert_eq!(replica, ReplicaId(1)),
            other => panic!("expected pause at shard 1, got {other:?}"),
        }
        assert_eq!(driver.position(), 1);
        assert_eq!(fleet.replica(ReplicaId(0)).generation(), Generation::New);
        assert_eq!(fleet.pinned_count(), 1, "resume must not clear pins");
        assert!(fleet.rollout_active());

        // Once every shard is verified New, a fresh driver just closes
        // out the rollout.
        for r in fleet.replicas() {
            r.set_generation(Generation::New);
        }
        let mut closer = RolloutDriver::new(&fleet, RolloutConfig::default());
        assert_eq!(closer.step(), RolloutStep::Done);
        assert!(!fleet.rollout_active());
        assert_eq!(fleet.pinned_count(), 0);
    }

    #[test]
    fn report_renders_json() {
        let report = RolloutReport {
            completed: false,
            upgraded: vec![(ReplicaId(0), 2)],
            paused: Some((ReplicaId(1), "replica down".into())),
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"completed\":false,\"upgraded\":[{\"replica\":0,\"model_epoch\":2}],\
             \"paused\":{\"replica\":1,\"reason\":\"replica down\"}}"
        );
    }
}
