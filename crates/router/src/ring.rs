//! Deterministic consistent-hash ring with virtual nodes.
//!
//! The router partitions traffic by hashing a routing key (the user id)
//! onto a ring of hash points. Each
//! replica owns a fixed set of virtual nodes, so key ownership depends
//! only on the configured replica set — never on boot order or wall
//! clock — and removing one replica remaps only the keys it owned
//! (≤ ~1/N of the key space) to their ring successors.
//!
//! Health is deliberately *not* baked into the ring: the ring stays
//! static over the configured fleet and callers walk [`HashRing::successors`]
//! skipping unhealthy replicas. That keeps the remap-on-death behavior
//! structural (successor order is fixed) and makes routing decisions
//! reproducible in the chaos suite.

/// Identifies one backend replica by its position in the fleet config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u16);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The routing key of one request: its `user` query parameter. One
/// user's traffic lands on one replica in every city they ask about,
/// which is what gives per-user cache affinity and the per-user
/// epoch-monotonicity guarantee during rollouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKey {
    /// The user id.
    User(u32),
}

impl RouteKey {
    /// Stable 64-bit hash of the key.
    pub fn hash(self) -> u64 {
        let RouteKey::User(u) = self;
        mix64(0x755b_a176_9d7f_3a21 ^ u as u64)
    }
}

/// SplitMix64 finalizer: cheap, stateless, well-distributed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash point for virtual node `vnode` of `replica`.
fn vnode_point(replica: ReplicaId, vnode: u32) -> u64 {
    mix64(0x1234_5678_9abc_def0 ^ ((replica.0 as u64) << 32) ^ vnode as u64)
}

/// A static consistent-hash ring over the configured replica set.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, replica)` pairs; ties broken by replica id so the
    /// ring is a pure function of the member set.
    points: Vec<(u64, ReplicaId)>,
    /// Members in id order.
    members: Vec<ReplicaId>,
    /// Virtual nodes per replica.
    vnodes: u32,
}

impl HashRing {
    /// An empty ring with `vnodes` virtual nodes per future member.
    pub fn new(vnodes: u32) -> Self {
        Self {
            points: Vec::new(),
            members: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// A ring over replicas `0..n`.
    pub fn with_members(n: u16, vnodes: u32) -> Self {
        let mut ring = Self::new(vnodes);
        for id in 0..n {
            ring.add(ReplicaId(id));
        }
        ring
    }

    /// Adds a replica's virtual nodes. Idempotent.
    pub fn add(&mut self, id: ReplicaId) {
        if self.members.contains(&id) {
            return;
        }
        self.members.push(id);
        self.members.sort();
        for vnode in 0..self.vnodes {
            self.points.push((vnode_point(id, vnode), id));
        }
        self.points.sort();
    }

    /// Removes a replica's virtual nodes. Idempotent.
    pub fn remove(&mut self, id: ReplicaId) {
        self.members.retain(|m| *m != id);
        self.points.retain(|(_, r)| *r != id);
    }

    /// Members in id order.
    pub fn members(&self) -> &[ReplicaId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The replica owning `hash`: the first ring point at or after it,
    /// wrapping at the top of the u64 space.
    pub fn assign(&self, hash: u64) -> Option<ReplicaId> {
        if self.points.is_empty() {
            return None;
        }
        let idx = self.points.partition_point(|(p, _)| *p < hash);
        let (_, id) = self.points[idx % self.points.len()];
        Some(id)
    }

    /// All members in ring-successor order starting at `hash`'s owner,
    /// each listed once. Callers skip unhealthy entries, which yields
    /// the minimal-remap property: keys of a dead replica move to the
    /// next distinct owner on the ring while everyone else's owner is
    /// untouched.
    pub fn successors(&self, hash: u64) -> Vec<ReplicaId> {
        let mut order = Vec::with_capacity(self.members.len());
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|(p, _)| *p < hash);
        for i in 0..self.points.len() {
            let (_, id) = self.points[(start + i) % self.points.len()];
            if !order.contains(&id) {
                order.push(id);
                if order.len() == self.members.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_is_deterministic_and_total() {
        let ring = HashRing::with_members(4, 64);
        for user in 0..200u32 {
            let h = RouteKey::User(user).hash();
            let a = ring.assign(h).unwrap();
            let b = ring.assign(h).unwrap();
            assert_eq!(a, b);
            assert!(ring.members().contains(&a));
            assert_eq!(ring.successors(h)[0], a);
        }
    }

    #[test]
    fn successors_cover_all_members_once() {
        let ring = HashRing::with_members(5, 32);
        let h = RouteKey::User(42).hash();
        let succ = ring.successors(h);
        assert_eq!(succ.len(), 5);
        let mut sorted = succ.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn removal_only_remaps_owned_keys() {
        let full = HashRing::with_members(4, 64);
        let mut reduced = full.clone();
        reduced.remove(ReplicaId(2));
        for user in 0..500u32 {
            let h = RouteKey::User(user).hash();
            let before = full.assign(h).unwrap();
            let after = reduced.assign(h).unwrap();
            if before != ReplicaId(2) {
                assert_eq!(before, after, "user {user} moved without need");
            } else {
                // Keys of the removed replica land on its ring successor.
                let succ = full.successors(h);
                let expect = succ.iter().find(|r| **r != ReplicaId(2)).unwrap();
                assert_eq!(after, *expect);
            }
        }
    }

    /// Key ownership must survive a release: these are the points every
    /// deployed ring has placed users 0, 7 and 42 on.
    #[test]
    fn user_key_hashes_are_pinned() {
        assert_eq!(RouteKey::User(0).hash(), 0xf22d_3dcd_702c_387c);
        assert_eq!(RouteKey::User(7).hash(), 0x0999_23e7_2a4d_6d26);
        assert_eq!(RouteKey::User(42).hash(), 0xd06a_f6d0_4b99_d4b0);
    }
}
