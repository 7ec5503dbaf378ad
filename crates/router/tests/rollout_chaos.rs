//! Fleet fault plans over real TCP (executor in `common/fleet_plan.rs`):
//! the rollout's named plans — a replica death mid-rollout, its resume
//! over HTTP, a pinned owner's death, a rollout under load — and the
//! seeded replay, whose schedule is pinned and replayed twice against
//! fresh fleets.

mod common;

use common::fleet_plan::{
    run_named, run_pass, Expect::*, FleetChaosPhase::*, FleetCounts, FleetFaultPlan, DOWN,
    QUEUE_CAPACITY,
};
use common::BREAKER_THRESHOLD;
/// The paused report of a rollout at a dead shard.
const AT_1_DOWN: Option<(u16, &str)> = Some((1, DOWN));

#[test]
fn replica_death_mid_rollout_pauses_without_mixing_epochs() {
    // Two users per shard sweep every city between the steps: shard 0
    // upgrades and its users pin; replica 1 dies and the rollout keeps
    // pausing there while its users remap; it rejoins, and the rollout
    // resumes at shard 1.
    #[rustfmt::skip]
    let (phases, want) = (
        [Sweep(2), Publish, Step(Upgraded(0)), Sweep(2), Kill(1), Step(Paused(1)),
         Step(Paused(1)), Sweep(2), Rejoin(1), Step(Upgraded(1)), Sweep(2), Step(Upgraded(2)),
         Step(Done), Sweep(2)],
        FleetCounts { submitted: 60, served: 56, served_remapped: 4, rollouts_completed: 1,
                      ..FleetCounts::default() },
    );
    assert_eq!(run_named(3, &phases), want);
}

#[test]
fn reposting_admin_reload_resumes_paused_rollout_over_http() {
    // Each POST builds a fresh driver: a re-POST must continue the
    // paused rollout (`"upgraded":[]`, pins kept) rather than restart it
    // (which would reload shard 0 again, to epoch 3, and clear its pins).
    #[rustfmt::skip]
    let (phases, want) = (
        [Sweep(1), Publish, Kill(1),
         AdminReload { format: None, upgraded: &[0], paused: AT_1_DOWN }, Sweep(1),
         AdminReload { format: None, upgraded: &[], paused: AT_1_DOWN }, Sweep(1), Rejoin(1),
         AdminReload { format: None, upgraded: &[1, 2], paused: None }, Sweep(1)],
        FleetCounts { submitted: 24, served: 20, served_remapped: 4, rollouts_completed: 1,
                      ..FleetCounts::default() },
    );
    assert_eq!(run_named(3, &phases), want);
}

#[test]
fn pinned_users_shed_when_their_upgraded_owner_dies() {
    // Shard 0's first user is served by the new generation and pins.
    // Its owner dies and the ring successor is old-generation: that user
    // is shed in both cities, while shard 0's next (unpinned) user
    // remaps. After rejoin the rollout finishes and the pinned user is
    // served again.
    #[rustfmt::skip]
    let (phases, want) = (
        [Publish, Step(Upgraded(0)), Sweep(1), Kill(0), Sweep(2), Rejoin(0), Step(Upgraded(1)),
         Step(Done), Sweep(1)],
        FleetCounts { submitted: 16, served: 12, served_remapped: 2, pinned_503: 2,
                      rollouts_completed: 1, ..FleetCounts::default() },
    );
    assert_eq!(run_named(2, &phases), want);
}

#[test]
fn rolling_reload_under_load_loses_no_request() {
    // Two clients per shard, cache off and a 1 ms pad per batch, so
    // requests are in every batcher when its replica swaps. The tally
    // counts requests by wall clock, so only its shape is pinned.
    let counts = run_named(2, &[Publish, LoadedRollout(2)]);
    assert!(counts.submitted > 0);
    assert_eq!(counts.served + counts.served_remapped, counts.submitted);
    #[rustfmt::skip]
    let (rest, want) = (
        FleetCounts { submitted: 0, served: 0, served_remapped: 0, ..counts },
        FleetCounts { rollouts_completed: 1, ..FleetCounts::default() },
    );
    assert_eq!(rest, want);
}

#[test]
fn seeded_fleet_chaos_holds_every_invariant() {
    // What CI replays on the optimized build: seed 42, two phases past
    // the deck, three replicas, two passes against fresh fleets.
    let plan = FleetFaultPlan::from_seed(42, 3, BREAKER_THRESHOLD, QUEUE_CAPACITY, 2);
    let first = run_pass(&plan);
    assert_eq!(
        first,
        FleetCounts {
            submitted: 71,
            served: 44,
            served_remapped: 2,
            unreachable_503: 3,
            dark_503: 6,
            expired_503: 10,
            failed_500: 6,
            pinned_503: 0,
            breaker_opened: 3,
            breaker_closed: 3,
            rollouts_completed: 1,
        }
    );
    assert_eq!(run_pass(&plan), first, "same seed, same counts");
}

#[test]
fn seed_42_schedule_is_pinned() {
    // The schedule CI replays for seed 42: no change to the plan may
    // move any seed's schedule.
    let plan = FleetFaultPlan::from_seed(42, 3, BREAKER_THRESHOLD, QUEUE_CAPACITY, 2);
    assert_eq!(
        format!("{:?}", plan.phases),
        "[HangBreaker { victim: 2, hung: 6, dark: 2 }, \
         ReplicaOutage { victim: 0, while_dark: 5, remapped: 2, after: 3 }, \
         Normal { per_shard: 3 }, RollingReload { per_shard: 2 }, \
         HangBreaker { victim: 0, hung: 4, dark: 2 }, Normal { per_shard: 2 }, \
         Normal { per_shard: 2 }]"
    );
}

#[test]
fn same_seed_same_plan() {
    let a = FleetFaultPlan::from_seed(42, 3, 3, 6, 4);
    let b = FleetFaultPlan::from_seed(42, 3, 3, 6, 4);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.phases.len(), 4 + 4 + 1);
}

#[test]
fn different_seeds_differ() {
    let plans: Vec<_> = (0..8u64)
        .map(|s| FleetFaultPlan::from_seed(s, 3, 3, 6, 4).phases)
        .collect();
    assert!(plans.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn covers_every_mode_and_bounds_parameters() {
    for seed in 0..16u64 {
        let plan = FleetFaultPlan::from_seed(seed, 4, 3, 6, 3);
        let (mut normal, mut outage, mut hang, mut reload) = (0, 0, 0, 0);
        for phase in &plan.phases {
            match *phase {
                Normal { per_shard } => {
                    normal += 1;
                    assert!(per_shard >= 1);
                }
                ReplicaOutage {
                    victim, while_dark, ..
                } => {
                    outage += 1;
                    assert!(victim < 4);
                    assert!(while_dark > 3, "dark window must trip the breaker");
                }
                HangBreaker { victim, hung, .. } => {
                    hang += 1;
                    assert!(victim < 4);
                    assert!((3..=6).contains(&hung));
                }
                RollingReload { per_shard } => {
                    reload += 1;
                    assert!(per_shard >= 1);
                }
                other => panic!("{other:?} is a named plan's phase, not the deck's"),
            }
        }
        assert!(normal >= 1 && outage >= 1 && hang >= 1 && reload >= 1);
    }
}
