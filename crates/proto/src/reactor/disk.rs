//! Event-driven emulation of each node's single disk spindle.
//!
//! A node's disk is one spindle with FIFO service and a depth counter
//! the extended-LARD policy reads over the control session. Sleeping
//! would stall the reactor's event loop, so the model is a deadline:
//! at most one [`DiskJob`] is *busy* per node (its completion scheduled as a
//! reactor timer at `now + read_time`), later misses queue behind it,
//! and the shared [`crate::node::NodeState`] depth counter moves at the
//! same points for every miss (incremented when the miss is queued,
//! decremented when the read completes).
//!
//! With N reactor shards each shard owns its own scheduler per node,
//! so a node's spindle can admit up to N concurrent reads — a
//! deliberate approximation (see ARCHITECTURE.md "Reactor sharding"):
//! the depth counter and response bytes stay exact; only emulated
//! latency under cross-shard contention is slightly optimistic.

use std::collections::VecDeque;

use phttp_http::Version;
use phttp_trace::TargetId;

use super::SlotRef;

/// A request parked on another request's in-flight (or queued) read of
/// the same target — a *delayed hit*. It is resolved with its own
/// response when the leader's read completes; a waiter whose connection
/// died in the meantime is dropped by the delivery generation check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// The client connection (slab index + generation) awaiting the body.
    pub conn: SlotRef,
    /// The pipeline slot awaiting the body.
    pub seq: u64,
    /// HTTP version for the eventual response.
    pub version: Version,
}

/// One queued or in-service emulated disk read.
#[derive(Debug, Clone)]
pub(crate) struct DiskJob {
    /// The client connection (slab index + generation) awaiting the body.
    pub conn: SlotRef,
    /// The pipeline slot awaiting the body.
    pub seq: u64,
    /// The document being read.
    pub target: TargetId,
    /// HTTP version for the eventual response.
    pub version: Version,
    /// Requests coalesced onto this read (single-flight mode only;
    /// always empty with coalescing off).
    pub waiters: Vec<Waiter>,
}

/// Per-node FIFO disk scheduler.
#[derive(Debug, Default)]
pub(crate) struct DiskSched {
    /// The read currently holding the spindle; its completion timer is
    /// in the reactor's timer heap.
    pub busy: Option<DiskJob>,
    /// Reads waiting for the spindle.
    pub queue: VecDeque<DiskJob>,
}

impl DiskSched {
    /// The in-flight or queued read of `target`, if any — the flight a
    /// coalesced miss parks on. Linear scan: the queue is bounded by
    /// concurrent missers on one node/shard, and the busy slot is
    /// checked first because it is by far the likeliest match.
    pub fn find_mut(&mut self, target: TargetId) -> Option<&mut DiskJob> {
        if let Some(job) = self.busy.as_mut() {
            if job.target == target {
                return Some(job);
            }
        }
        self.queue.iter_mut().find(|j| j.target == target)
    }
}
