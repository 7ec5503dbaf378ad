//! Property-based tests for the consistent-hash ring: the three
//! guarantees the router tier leans on.
//!
//! 1. **Balance** — with enough virtual nodes, every replica's share of
//!    a large key population is within ±20% of uniform.
//! 2. **Minimal remap** — when one replica leaves, only the keys it
//!    owned move (each to its ring successor); everyone else's owner is
//!    bit-identical, and the moved fraction stays near 1/N.
//! 3. **Determinism** — ownership is a pure function of the member set:
//!    two independently built rings agree on every key, regardless of
//!    the order members were added.

use proptest::prelude::*;
use st_router::{HashRing, ReplicaId, RouteKey};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ±20% balance across fleet sizes 2..=6 under 4000 keys. 256
    /// vnodes keeps the consistent-hash share variance (~1/√vnodes)
    /// comfortably inside the band.
    #[test]
    fn key_distribution_is_within_20_percent_of_uniform(
        replicas in 2u16..7, key_offset in 0u32..10_000
    ) {
        let ring = HashRing::with_members(replicas, 256);
        let keys = 4_000u32;
        let mut counts = vec![0usize; ring.len()];
        for user in key_offset..key_offset + keys {
            let owner = ring.assign(RouteKey::User(user).hash()).unwrap();
            counts[owner.0 as usize] += 1;
        }
        let uniform = keys as f64 / replicas as f64;
        for (replica, &count) in counts.iter().enumerate() {
            let deviation = (count as f64 - uniform).abs() / uniform;
            prop_assert!(
                deviation <= 0.20,
                "replica {replica} owns {count} of {keys} keys \
                 ({:.1}% off uniform {uniform:.0})",
                deviation * 100.0
            );
        }
    }

    /// Removing one replica never moves a key it did not own, routes
    /// every orphaned key to its ring successor, and moves roughly 1/N
    /// of the population (≤ 1.3/N allows hash-share variance).
    #[test]
    fn removal_remaps_only_the_leavers_keys(
        replicas in 3u16..7, leaver_pick in 0u16..6
    ) {
        let leaver = ReplicaId(leaver_pick % replicas);
        let full = HashRing::with_members(replicas, 256);
        let mut reduced = full.clone();
        reduced.remove(leaver);

        let keys = 3_000u32;
        let mut moved = 0usize;
        for user in 0..keys {
            let hash = RouteKey::User(user).hash();
            let before = full.assign(hash).unwrap();
            let after = reduced.assign(hash).unwrap();
            if before == leaver {
                moved += 1;
                // The orphaned key lands exactly on its successor —
                // the same replica a health-filtered walk would pick.
                let successor = full
                    .successors(hash)
                    .into_iter()
                    .find(|r| *r != leaver)
                    .unwrap();
                prop_assert_eq!(after, successor);
            } else {
                prop_assert_eq!(before, after, "user {} moved needlessly", user);
            }
        }
        let bound = (keys as f64 / replicas as f64) * 1.3;
        prop_assert!(
            (moved as f64) <= bound,
            "{moved} of {keys} keys moved; bound {bound:.0}"
        );
        prop_assert!(moved > 0, "the leaver owned nothing");
    }

    /// Ownership is a pure function of the member set: independent
    /// construction and reversed add order agree everywhere, and
    /// successor walks agree too.
    #[test]
    fn same_member_set_same_assignment(replicas in 2u16..7, user in 0u32..100_000) {
        let a = HashRing::with_members(replicas, 128);
        let mut b = HashRing::new(128);
        for id in (0..replicas).rev() {
            b.add(ReplicaId(id));
        }
        let hash = RouteKey::User(user).hash();
        prop_assert_eq!(a.assign(hash), b.assign(hash));
        prop_assert_eq!(a.successors(hash), b.successors(hash));
    }
}
