//! The front-end **tier** layer: partitioning targets across several
//! front-end instances and merging their dispatcher state.
//!
//! The paper's answer to front-end saturation is TCP handoff (§7): run
//! more than one front-end behind one virtual IP. That turns the
//! dispatcher's private state — mapping beliefs and load estimates —
//! into *distributed* state. This module provides the two pieces the
//! tier needs, both pure data structures (no sockets, no threads), so
//! every merge path is unit- and property-testable:
//!
//! * [`Ring`]: a consistent-hash ring over front-end indices. Each
//!   target has exactly one **owner** front-end — the authority for
//!   that target's mapping/coherence beliefs. Adding or removing a
//!   front-end moves only the keys that front-end gains or loses
//!   (bounded movement; property-tested in `tests/tier_props.rs`).
//!   The ring composes *orthogonally* with the [`Policy`](crate::Policy)
//!   layer: policies still decide which **back-end node** serves a
//!   request; the ring only decides which **front-end** owns the
//!   belief state consulted by that decision.
//! * [`DispatcherSnapshot`] / [`StateDelta`] / [`TierView`]: a
//!   serializable export of one dispatcher's state, the per-origin
//!   delta front-ends gossip on the control plane, and the receiving
//!   side's merged view. The merge is **commutative and idempotent**:
//!   each delta carries its origin's full owned share stamped with a
//!   per-origin sequence number, and the view keeps the highest
//!   sequence per origin (last-writer-wins per origin). Any delivery
//!   order, including duplicates, converges to the same view — the
//!   property that lets front-ends exchange state peer-to-peer with no
//!   coordinator, and lets a non-owner decide locally from a possibly
//!   stale view.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use phttp_trace::TargetId;

use crate::types::NodeId;

/// Index of a front-end instance within the tier (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeId(pub usize);

impl fmt::Display for FeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fe{}", self.0)
    }
}

/// Default virtual points per front-end on the [`Ring`]. Enough that a
/// 2–8 member ring partitions targets within a few percent of evenly.
pub const DEFAULT_VNODES: usize = 64;

/// SplitMix64: the finalizer used for both ring points and target keys.
/// Deterministic and platform-independent, so a ring built from the
/// same membership always partitions targets identically (the
/// simulator and the prototype must agree).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Consistent-hash ring assigning each target one owning front-end.
///
/// Points are keyed `(hash, fe)` so two front-ends hashing to the same
/// position cannot collide silently — the tie is broken by index,
/// deterministically — and removing a member removes exactly the
/// points it inserted.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    points: BTreeMap<(u64, usize), ()>,
    members: Vec<usize>,
}

impl Ring {
    /// A ring over front-ends `0..front_ends` with [`DEFAULT_VNODES`]
    /// virtual points each.
    ///
    /// # Panics
    ///
    /// Panics if `front_ends == 0`.
    pub fn new(front_ends: usize) -> Self {
        Self::with_vnodes(front_ends, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-point count (tests sweep this).
    ///
    /// # Panics
    ///
    /// Panics if `front_ends == 0` or `vnodes == 0`.
    pub fn with_vnodes(front_ends: usize, vnodes: usize) -> Self {
        assert!(front_ends > 0, "tier needs at least one front-end");
        assert!(vnodes > 0, "ring needs at least one virtual point");
        let mut ring = Ring {
            vnodes,
            points: BTreeMap::new(),
            members: Vec::new(),
        };
        for f in 0..front_ends {
            ring.add_fe(FeId(f));
        }
        ring
    }

    fn point(fe: usize, replica: usize) -> u64 {
        splitmix64(((fe as u64) << 32) ^ replica as u64 ^ 0xA076_1D64_78BD_642F)
    }

    /// Adds a front-end (no-op if already a member).
    pub fn add_fe(&mut self, fe: FeId) {
        if self.members.contains(&fe.0) {
            return;
        }
        for r in 0..self.vnodes {
            self.points.insert((Self::point(fe.0, r), fe.0), ());
        }
        self.members.push(fe.0);
        self.members.sort_unstable();
    }

    /// Removes a front-end (no-op if not a member).
    ///
    /// # Panics
    ///
    /// Panics if removal would empty the ring — an ownerless tier has
    /// no meaning; callers decommissioning the last front-end are
    /// tearing the cluster down, not rebalancing it.
    pub fn remove_fe(&mut self, fe: FeId) {
        if !self.members.contains(&fe.0) {
            return;
        }
        assert!(self.members.len() > 1, "cannot remove the last front-end");
        for r in 0..self.vnodes {
            self.points.remove(&(Self::point(fe.0, r), fe.0));
        }
        self.members.retain(|&m| m != fe.0);
    }

    /// The front-end owning `target`'s belief state: the first ring
    /// point at or after the target's hash, wrapping.
    pub fn owner(&self, target: TargetId) -> FeId {
        let h = splitmix64(target.0 as u64 ^ 0x6C62_272E_07BB_0142);
        let fe = self
            .points
            .range((h, 0)..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(&(_, f), ())| f)
            .expect("ring is never empty");
        FeId(fe)
    }

    /// Current members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of member front-ends.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false` — the ring refuses to become empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `fe` is a member.
    pub fn contains(&self, fe: FeId) -> bool {
        self.members.contains(&fe.0)
    }
}

/// A full export of one dispatcher's tier-relevant state: fixed-point
/// local loads per back-end node and the complete believed mapping.
///
/// Snapshots are taken by the owner-side host (see
/// `ConcurrentDispatcher::snapshot`) and projected into per-share
/// [`StateDelta`]s for gossip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatcherSnapshot {
    /// Fixed-point ([`LOAD_UNIT`](crate::LOAD_UNIT)) local load per node.
    pub loads: Vec<i64>,
    /// Every believed `(target, nodes)` mapping.
    pub mapping: Vec<(TargetId, Vec<NodeId>)>,
}

impl DispatcherSnapshot {
    /// Projects the share of this snapshot that `origin` owns under
    /// `ring` into a gossip delta stamped `seq`. Loads are carried
    /// whole (load is per-node, not per-target); mappings are filtered
    /// to the origin's partition.
    pub fn delta_for(&self, origin: FeId, seq: u64, ring: &Ring) -> StateDelta {
        let mapping = self
            .mapping
            .iter()
            .filter(|(t, _)| ring.owner(*t) == origin)
            .cloned()
            .collect();
        StateDelta {
            origin,
            seq,
            loads: self.loads.clone(),
            mapping,
        }
    }
}

/// One front-end's gossiped state: its **full current owned share**,
/// replacing (not patching) whatever the receiver previously held for
/// this origin. Full-state-per-origin plus last-writer-wins by `seq`
/// is what makes [`TierView::merge`] commutative — there is no
/// patch-ordering to get wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    /// The front-end this state describes.
    pub origin: FeId,
    /// Monotonic per-origin sequence number; higher wins.
    pub seq: u64,
    /// The origin's fixed-point local load estimate per back-end node.
    pub loads: Vec<i64>,
    /// The origin's owned mapping share, in full.
    pub mapping: Vec<(TargetId, Vec<NodeId>)>,
}

/// Wire-format errors for [`StateDelta::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The buffer ended before the encoded length said it would.
    Truncated,
    /// A count or index field is inconsistent with the payload.
    Malformed,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "truncated state delta"),
            DeltaError::Malformed => write!(f, "malformed state delta"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl StateDelta {
    /// Serializes the delta (little-endian, length-free: the control
    /// plane's framing supplies the length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.loads.len() * 8 + self.mapping.len() * 8);
        out.extend_from_slice(&(self.origin.0 as u32).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.loads.len() as u16).to_le_bytes());
        for l in &self.loads {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.extend_from_slice(&(self.mapping.len() as u32).to_le_bytes());
        for (t, nodes) in &self.mapping {
            out.extend_from_slice(&t.0.to_le_bytes());
            out.push(nodes.len() as u8);
            for n in nodes {
                out.extend_from_slice(&(n.0 as u16).to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a delta produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<StateDelta, DeltaError> {
        struct Cur<'a>(&'a [u8]);
        impl Cur<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], DeltaError> {
                if self.0.len() < N {
                    return Err(DeltaError::Truncated);
                }
                let (head, tail) = self.0.split_at(N);
                self.0 = tail;
                Ok(head.try_into().expect("split_at guarantees length"))
            }
        }
        let mut cur = Cur(buf);
        let origin = FeId(u32::from_le_bytes(cur.take()?) as usize);
        let seq = u64::from_le_bytes(cur.take()?);
        let n_nodes = u16::from_le_bytes(cur.take()?) as usize;
        let mut loads = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            loads.push(i64::from_le_bytes(cur.take()?));
        }
        let n_map = u32::from_le_bytes(cur.take()?) as usize;
        let mut mapping = Vec::with_capacity(n_map.min(1 << 16));
        for _ in 0..n_map {
            let t = TargetId(u32::from_le_bytes(cur.take()?));
            let k = cur.take::<1>()?[0] as usize;
            let mut nodes = Vec::with_capacity(k);
            for _ in 0..k {
                let n = u16::from_le_bytes(cur.take()?) as usize;
                if n >= n_nodes {
                    return Err(DeltaError::Malformed);
                }
                nodes.push(NodeId(n));
            }
            mapping.push((t, nodes));
        }
        if !cur.0.is_empty() {
            return Err(DeltaError::Malformed);
        }
        Ok(StateDelta {
            origin,
            seq,
            loads,
            mapping,
        })
    }
}

/// What a [`TierView::merge`] changed, as instructions for the host to
/// materialize into its local dispatcher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Whether the delta advanced the view (false: stale or self-echo).
    pub applied: bool,
    /// Targets whose adopted mapping is new or changed, with the
    /// owner's node set to install.
    pub upserts: Vec<(TargetId, Vec<NodeId>)>,
    /// Targets the owner no longer maps at all.
    pub removals: Vec<TargetId>,
}

#[derive(Debug, Clone)]
struct OriginState {
    seq: u64,
    loads: Vec<i64>,
    mapping: HashMap<TargetId, Vec<NodeId>>,
}

/// One front-end's merged view of its peers: per-origin
/// last-writer-wins state, independent of delivery order.
#[derive(Debug)]
pub struct TierView {
    self_fe: FeId,
    num_nodes: usize,
    origins: HashMap<FeId, OriginState>,
}

impl TierView {
    /// An empty view for front-end `self_fe` over `num_nodes` back-ends.
    pub fn new(self_fe: FeId, num_nodes: usize) -> Self {
        TierView {
            self_fe,
            num_nodes,
            origins: HashMap::new(),
        }
    }

    /// Merges one gossiped delta. Deltas from `self` (echoes) and
    /// deltas whose sequence does not advance the stored one are
    /// ignored (`applied == false`, no instructions); node-count
    /// mismatches are treated the same way rather than corrupting the
    /// view. Otherwise the origin's stored state is replaced wholesale
    /// and the outcome lists the mapping difference for the host to
    /// adopt.
    pub fn merge(&mut self, delta: &StateDelta) -> MergeOutcome {
        if delta.origin == self.self_fe
            || delta.loads.len() != self.num_nodes
            || self
                .origins
                .get(&delta.origin)
                .is_some_and(|s| s.seq >= delta.seq)
        {
            return MergeOutcome::default();
        }
        let new_map: HashMap<TargetId, Vec<NodeId>> = delta
            .mapping
            .iter()
            .filter(|(_, nodes)| !nodes.is_empty())
            .cloned()
            .collect();
        let old = self.origins.insert(
            delta.origin,
            OriginState {
                seq: delta.seq,
                loads: delta.loads.clone(),
                mapping: new_map.clone(),
            },
        );
        let old_map = old.map(|s| s.mapping).unwrap_or_default();
        let mut upserts: Vec<(TargetId, Vec<NodeId>)> = new_map
            .iter()
            .filter(|(t, nodes)| old_map.get(t) != Some(nodes))
            .map(|(&t, nodes)| (t, nodes.clone()))
            .collect();
        let mut removals: Vec<TargetId> = old_map
            .keys()
            .filter(|t| !new_map.contains_key(t))
            .copied()
            .collect();
        // Deterministic instruction order (HashMap iteration is not).
        upserts.sort_by_key(|(t, _)| t.0);
        removals.sort_by_key(|t| t.0);
        MergeOutcome {
            applied: true,
            upserts,
            removals,
        }
    }

    /// Forgets a decommissioned origin entirely; the outcome's
    /// removals are its whole adopted share (the ring's new owner will
    /// re-assert whatever is still live).
    pub fn drop_origin(&mut self, fe: FeId) -> MergeOutcome {
        match self.origins.remove(&fe) {
            None => MergeOutcome::default(),
            Some(state) => {
                let mut removals: Vec<TargetId> = state.mapping.into_keys().collect();
                removals.sort_by_key(|t| t.0);
                MergeOutcome {
                    applied: true,
                    upserts: Vec::new(),
                    removals,
                }
            }
        }
    }

    /// The summed fixed-point load every *peer* origin reports per
    /// node — the remote bias a host feeds into
    /// [`LoadTracker::set_remote_fixed`](crate::LoadTracker::set_remote_fixed)
    /// so local decisions see tier-wide load.
    pub fn remote_load_fixed(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.num_nodes];
        for state in self.origins.values() {
            for (slot, l) in out.iter_mut().zip(&state.loads) {
                *slot += l;
            }
        }
        out
    }

    /// The highest sequence merged from `fe`, if any.
    pub fn origin_seq(&self, fe: FeId) -> Option<u64> {
        self.origins.get(&fe).map(|s| s.seq)
    }

    /// A canonical (target-ascending) dump of the mapping share adopted
    /// from `fe`, or `None` if no delta from `fe` has ever been merged.
    /// Convergence tests compare these dumps for whole-view equality —
    /// stronger than the load/seq spot-checks.
    pub fn origin_mapping(&self, fe: FeId) -> Option<Vec<(TargetId, Vec<NodeId>)>> {
        self.origins.get(&fe).map(|s| {
            let mut v: Vec<_> = s.mapping.iter().map(|(&t, n)| (t, n.clone())).collect();
            v.sort_by_key(|(t, _)| t.0);
            v
        })
    }

    /// The per-node loads last merged from `fe`, if any.
    pub fn origin_loads(&self, fe: FeId) -> Option<&[i64]> {
        self.origins.get(&fe).map(|s| s.loads.as_slice())
    }

    /// Number of peer origins currently held.
    pub fn num_origins(&self) -> usize {
        self.origins.len()
    }

    /// The front-end this view belongs to.
    pub fn self_fe(&self) -> FeId {
        self.self_fe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    #[test]
    fn ring_covers_every_target() {
        let ring = Ring::new(3);
        for i in 0..1000 {
            let owner = ring.owner(t(i));
            assert!(ring.contains(owner), "target {i} owned by non-member");
        }
    }

    #[test]
    fn ring_partition_is_reasonably_balanced() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[ring.owner(t(i)).0] += 1;
        }
        for (f, &c) in counts.iter().enumerate() {
            assert!(
                (400..=2000).contains(&c),
                "fe{f} owns {c} of 4000 targets — pathological imbalance"
            );
        }
    }

    #[test]
    fn removal_moves_only_the_removed_members_keys() {
        let mut ring = Ring::new(3);
        let before: Vec<FeId> = (0..2000).map(|i| ring.owner(t(i))).collect();
        ring.remove_fe(FeId(1));
        for i in 0..2000u32 {
            let after = ring.owner(t(i));
            if before[i as usize] != FeId(1) {
                assert_eq!(after, before[i as usize], "unrelated key {i} moved");
            } else {
                assert_ne!(after, FeId(1));
            }
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut ring = Ring::new(2);
        let before: Vec<FeId> = (0..500).map(|i| ring.owner(t(i))).collect();
        ring.add_fe(FeId(7));
        ring.remove_fe(FeId(7));
        let after: Vec<FeId> = (0..500).map(|i| ring.owner(t(i))).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "last front-end")]
    fn cannot_empty_the_ring() {
        let mut ring = Ring::new(1);
        ring.remove_fe(FeId(0));
    }

    #[test]
    fn delta_roundtrips() {
        let d = StateDelta {
            origin: FeId(2),
            seq: 99,
            loads: vec![1 << 20, -3, 0],
            mapping: vec![(t(5), vec![NodeId(0), NodeId(2)]), (t(9), vec![NodeId(1)])],
        };
        let bytes = d.encode();
        assert_eq!(StateDelta::decode(&bytes).unwrap(), d);
        assert_eq!(StateDelta::decode(&bytes[..4]), Err(DeltaError::Truncated));
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(StateDelta::decode(&extra), Err(DeltaError::Malformed));
    }

    #[test]
    fn decode_rejects_out_of_range_node() {
        let d = StateDelta {
            origin: FeId(0),
            seq: 1,
            loads: vec![0, 0],
            mapping: vec![(t(1), vec![NodeId(1)])],
        };
        let mut bytes = d.encode();
        // Patch the node index (last two bytes) past num_nodes.
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&7u16.to_le_bytes());
        assert_eq!(StateDelta::decode(&bytes), Err(DeltaError::Malformed));
    }

    #[test]
    fn merge_is_lww_per_origin_and_reports_diffs() {
        let mut view = TierView::new(FeId(0), 2);
        let d1 = StateDelta {
            origin: FeId(1),
            seq: 1,
            loads: vec![5, 0],
            mapping: vec![(t(1), vec![NodeId(0)]), (t(2), vec![NodeId(1)])],
        };
        let out = view.merge(&d1);
        assert!(out.applied);
        assert_eq!(out.upserts.len(), 2);
        assert!(out.removals.is_empty());

        // Stale and duplicate deltas are ignored.
        assert!(!view.merge(&d1).applied);

        let d2 = StateDelta {
            origin: FeId(1),
            seq: 2,
            loads: vec![0, 7],
            mapping: vec![(t(1), vec![NodeId(0), NodeId(1)])],
        };
        let out = view.merge(&d2);
        assert!(out.applied);
        assert_eq!(out.upserts, vec![(t(1), vec![NodeId(0), NodeId(1)])]);
        assert_eq!(out.removals, vec![t(2)]);
        assert_eq!(view.remote_load_fixed(), vec![0, 7]);

        // Out-of-order redelivery of the older delta changes nothing.
        assert!(!view.merge(&d1).applied);
        assert_eq!(view.origin_seq(FeId(1)), Some(2));
    }

    #[test]
    fn merge_ignores_self_and_mismatched_node_counts() {
        let mut view = TierView::new(FeId(0), 2);
        let echo = StateDelta {
            origin: FeId(0),
            seq: 5,
            loads: vec![0, 0],
            mapping: Vec::new(),
        };
        assert!(!view.merge(&echo).applied);
        let bad = StateDelta {
            origin: FeId(1),
            seq: 1,
            loads: vec![0; 3],
            mapping: Vec::new(),
        };
        assert!(!view.merge(&bad).applied);
        assert_eq!(view.num_origins(), 0);
    }

    #[test]
    fn drop_origin_removes_its_whole_share() {
        let mut view = TierView::new(FeId(0), 2);
        view.merge(&StateDelta {
            origin: FeId(1),
            seq: 1,
            loads: vec![9, 9],
            mapping: vec![(t(3), vec![NodeId(0)]), (t(4), vec![NodeId(1)])],
        });
        let out = view.drop_origin(FeId(1));
        assert!(out.applied);
        assert_eq!(out.removals, vec![t(3), t(4)]);
        assert_eq!(view.remote_load_fixed(), vec![0, 0]);
        assert!(!view.drop_origin(FeId(1)).applied);
    }

    #[test]
    fn snapshot_projection_filters_by_ownership() {
        let ring = Ring::new(2);
        let snap = DispatcherSnapshot {
            loads: vec![1, 2],
            mapping: (0..200).map(|i| (t(i), vec![NodeId(0)])).collect(),
        };
        let d0 = snap.delta_for(FeId(0), 1, &ring);
        let d1 = snap.delta_for(FeId(1), 1, &ring);
        assert_eq!(d0.mapping.len() + d1.mapping.len(), 200);
        assert!(d0.mapping.iter().all(|(x, _)| ring.owner(*x) == FeId(0)));
        assert!(d1.mapping.iter().all(|(x, _)| ring.owner(*x) == FeId(1)));
        assert_eq!(d0.loads, vec![1, 2]);
    }
}
