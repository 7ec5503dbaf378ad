//! Rolling-rollout chaos: kill a replica mid-rollout and prove the
//! three fleet invariants hold end to end, over real TCP:
//!
//! 1. The rollout **pauses** at the dead shard (it never skips ahead or
//!    abandons verification) and resumes exactly there after rejoin.
//! 2. **Epochs never mix for one user**: every user's observed
//!    `X-Model-Epoch` sequence is non-decreasing for the whole run, in
//!    every city they ask about — the crossing-city traveller is one
//!    user, wherever they go — and a user pinned to the new generation
//!    is shed (`503` + Retry-After) rather than answered by an
//!    old-generation replica.
//! 3. **Conservation**: every submitted request is accounted for —
//!    `submitted = served + shed` — and the router's ledger agrees
//!    with the client-side tally.
//!
//! The first test drives the full fleet through a mid-rollout replica
//! death; the second isolates the pin rule when the *upgraded* owner
//! itself dies (the one case where serving at all would mix epochs).

mod common;

use common::FleetFixture;
use st_router::{ReplicaId, RolloutConfig, RolloutDriver, RolloutStep};
use st_serve::client::HttpClient;
use st_serve::server::ServeConfig;
use st_tensor::StorageEncoding;
use std::collections::HashMap;

/// Client-side tally across the whole run.
#[derive(Default)]
struct Tally {
    submitted: usize,
    served: usize,
}

/// One request per tracked user and city of the fixture: everyone must
/// be served (`200`), and nobody's `X-Model-Epoch` may regress — the
/// client-visible form of "epochs never mix per user", which holds
/// across remaps and across cities too. The floor is per user, not per
/// (user, city): a traveller who saw the new generation in one city
/// must not meet the old one in the next.
fn sweep(
    client: &mut HttpClient,
    users: &[u32],
    cities: usize,
    last_epoch: &mut HashMap<u32, u64>,
    tally: &mut Tally,
) {
    for &user in users {
        for city in 0..cities {
            tally.submitted += 1;
            let resp = client
                .get(&format!("/recommend?user={user}&city={city}&k=4"))
                .expect("request resolves");
            assert_eq!(resp.status, 200, "user {user} city {city}: {}", resp.body);
            tally.served += 1;
            let epoch: u64 = resp
                .header("x-model-epoch")
                .expect("epoch header")
                .parse()
                .expect("numeric epoch");
            let floor = last_epoch.entry(user).or_insert(epoch);
            assert!(
                epoch >= *floor,
                "user {user} regressed from epoch {floor} to {epoch} in city {city}"
            );
            *floor = epoch;
        }
    }
}

#[test]
fn replica_death_mid_rollout_pauses_without_mixing_epochs() {
    let mut fx = FleetFixture::start("rollout-chaos", 3, ServeConfig::default());
    // Two users on the shard that upgrades first, one on each other.
    let mut users: Vec<u32> = fx.users_owned_by(0, 2);
    users.push(fx.user_owned_by(1));
    users.push(fx.user_owned_by(2));
    let cities = fx.dataset.cities().len();
    assert!(cities >= 2, "a traveller needs a city besides home");
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");
    let mut last_epoch = HashMap::new();
    let mut tally = Tally::default();

    // Baseline traffic at epoch 1.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // Publish generation 2 and start the rollout.
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    let fleet = fx.fleet.clone();
    let mut driver = RolloutDriver::new(
        &fleet,
        RolloutConfig {
            expect_format: Some(StorageEncoding::F32),
        },
    );

    // Shard 0 upgrades and verifies; its users see epoch 2 and pin.
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(0),
            epoch: 2
        },
        "first step"
    );
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert!(fx.fleet.pinned_count() >= 2, "shard-0 users are pinned");

    // Replica 1 dies before its turn. The rollout pauses — and keeps
    // pausing at the same shard — until it rejoins.
    fx.kill_replica(1);
    fx.probe_down();
    for _ in 0..2 {
        match driver.step() {
            RolloutStep::Paused { replica, reason } => {
                assert_eq!(replica, ReplicaId(1));
                assert_eq!(reason, "replica down");
            }
            other => panic!("expected pause at dead shard, got {other:?}"),
        }
    }
    assert!(fx.fleet.rollout_active(), "rollout holds position");

    // Mid-pause traffic: shard 1's user remaps to a live successor (old
    // or new generation — either is fine for an unpinned user) and
    // nobody's epoch regresses.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // The corpse rejoins on a fresh port; the driver resumes exactly
    // where it paused — shard 1, then shard 2 — and verification still
    // gates every step.
    fx.rejoin_replica(1);
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(1),
            epoch: 2
        },
        "resumes at the paused shard"
    );
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    let step = driver.step();
    assert_eq!(
        step,
        RolloutStep::Upgraded {
            replica: ReplicaId(2),
            epoch: 2
        }
    );
    assert_eq!(driver.step(), RolloutStep::Done);
    assert!(!fx.fleet.rollout_active());
    assert_eq!(fx.fleet.pinned_count(), 0, "pins drop with the rollout");

    // Post-rollout traffic: everyone lands on epoch 2.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    for (&user, &epoch) in &last_epoch {
        assert_eq!(epoch, 2, "user {user} never reached the new generation");
    }

    // Conservation: nothing was lost across death, pause, and resume —
    // and the router's ledger agrees with the client-side tally.
    assert_eq!(tally.submitted, 5 * users.len() * cities, "five sweeps");
    assert_eq!(tally.submitted, tally.served);
    let metrics = client.get("/metrics").expect("metrics");
    let scrape = |name: &str| -> usize {
        metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(scrape("st_router_forwarded_total "), tally.served);
    assert_eq!(
        scrape("st_router_recommend_requests_total "),
        tally.submitted
    );
    assert_eq!(scrape("st_router_epoch_pin_503_total "), 0);
    assert!(
        scrape("st_router_remapped_total ") >= 1,
        "the dead shard's traffic was never diverted"
    );

    fx.shutdown();
}

#[test]
fn reposting_admin_reload_resumes_paused_rollout_over_http() {
    // The HTTP path builds a fresh RolloutDriver per POST; this drives
    // pause/resume purely through /admin/reload to prove a re-POST
    // continues the paused rollout (preserving upgraded shards and
    // pins) instead of restarting it.
    let mut fx = FleetFixture::start("rollout-resume", 3, ServeConfig::default());
    let users: Vec<u32> = (0..3).map(|shard| fx.user_owned_by(shard)).collect();
    let cities = fx.dataset.cities().len();
    assert!(cities >= 2, "a traveller needs a city besides home");
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");
    let mut last_epoch = HashMap::new();
    let mut tally = Tally::default();
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);

    // Publish generation 2, kill shard 1, and start the rollout: shard 0
    // upgrades, then the rollout pauses at the corpse.
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    fx.kill_replica(1);
    fx.probe_down();
    let paused = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(paused.status, 503, "body: {}", paused.body);
    assert!(
        paused.body.contains("\"completed\":false"),
        "{}",
        paused.body
    );
    assert!(
        paused.body.contains("{\"replica\":0,\"model_epoch\":2}"),
        "shard 0 upgraded before the pause: {}",
        paused.body
    );

    // Shard 0's user is served by the new generation and pins to it.
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert_eq!(last_epoch[&users[0]], 2);
    assert!(fx.fleet.pinned_count() >= 1, "shard-0 user is pinned");

    // Re-POST while the shard is still down: the rollout must *resume*
    // at shard 1 — not restart. A restart would re-reload shard 0
    // (bumping it to epoch 3) and clear the pin set.
    let still = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(still.status, 503, "body: {}", still.body);
    assert!(
        still.body.contains("\"upgraded\":[]"),
        "resume must not re-upgrade shard 0: {}",
        still.body
    );
    assert!(fx.fleet.pinned_count() >= 1, "resume must not clear pins");
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    assert_eq!(
        last_epoch[&users[0]], 2,
        "shard 0 must not be reloaded twice"
    );

    // Rejoin and re-POST: the rollout finishes from where it paused,
    // upgrading exactly shards 1 and 2.
    fx.rejoin_replica(1);
    let done = client.post("/admin/reload").expect("rollout rpc");
    assert_eq!(done.status, 200, "body: {}", done.body);
    assert!(done.body.contains("\"completed\":true"), "{}", done.body);
    assert!(
        done.body.contains(
            "\"upgraded\":[{\"replica\":1,\"model_epoch\":2},{\"replica\":2,\"model_epoch\":2}]"
        ),
        "resume finishes the remaining shards only: {}",
        done.body
    );
    assert!(!fx.fleet.rollout_active());
    sweep(&mut client, &users, cities, &mut last_epoch, &mut tally);
    for (&user, &epoch) in &last_epoch {
        assert_eq!(epoch, 2, "user {user} never reached the new generation");
    }
    assert_eq!(tally.submitted, 4 * users.len() * cities, "four sweeps");
    assert_eq!(tally.submitted, tally.served, "nothing lost across resume");

    // The ledger distinguishes the fresh start from the two resumes.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("st_router_rollouts_started_total 1"));
    assert!(metrics.body.contains("st_router_rollouts_resumed_total 2"));
    assert!(metrics
        .body
        .contains("st_router_rollouts_completed_total 1"));

    fx.shutdown();
}

#[test]
fn pinned_users_shed_when_their_upgraded_owner_dies() {
    // The pin rule in isolation, on a 2-replica fleet: once a user is
    // served by the new generation, the only acceptable answers are
    // new-generation or 503 — never the old model.
    let mut fx = FleetFixture::start("pin-floor", 2, ServeConfig::default());
    let user = fx.user_owned_by(0);
    let mut client = HttpClient::connect(fx.router_addr()).expect("connect router");

    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");
    let fleet = fx.fleet.clone();
    let mut driver = RolloutDriver::new(&fleet, RolloutConfig::default());
    assert!(matches!(driver.step(), RolloutStep::Upgraded { .. }));

    let path = format!("/recommend?user={user}&city=1&k=5");
    let resp = client.get(&path).expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-model-epoch"), Some("2"));
    assert_eq!(fx.fleet.pinned_count(), 1);

    // The upgraded owner dies; the ring successor is old-generation, so
    // the pinned user is shed until the rollout catches up.
    fx.kill_replica(0);
    fx.probe_down();
    let shed = client.get(&path).expect("request");
    assert_eq!(shed.status, 503, "body: {}", shed.body);
    assert!(shed.body.contains("generation"), "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // An unpinned user of the same dead shard simply remaps.
    let unpinned = fx
        .users_owned_by(0, 4)
        .into_iter()
        .find(|u| *u != user)
        .expect("another shard-0 user");
    let remapped = client
        .get(&format!("/recommend?user={unpinned}&city=1&k=5"))
        .expect("request");
    assert_eq!(remapped.status, 200, "body: {}", remapped.body);
    assert_eq!(remapped.header("x-router-replica"), Some("1"));

    // After rejoin the paused rollout finishes (upgrading shard 1), and
    // the pinned user is served again by a verified new-generation
    // replica.
    fx.rejoin_replica(0);
    let report = driver.run();
    assert!(report.completed, "paused: {:?}", report.paused);
    let back = client.get(&path).expect("request");
    assert_eq!(back.status, 200, "body: {}", back.body);

    fx.shutdown();
}
