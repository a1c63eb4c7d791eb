//! Large-body byte-exactness battery for the zero-copy data path.
//!
//! The small-body differential suite (`reactor_equivalence`) cannot see
//! the mechanics this battery exists for: with multi-KiB responses a
//! whole response fits in one socket buffer, so partial `writev`
//! resumption mid-iovec, HIGH_WATER backpressure on the staging queue,
//! and chunk-by-chunk lateral splicing never actually run. Here the
//! corpus is multi-MiB mixed — every large response is guaranteed to
//! straddle many short writes, overflow the per-connection staging
//! budget, and stream laterally in many chunks — and every cell of the
//! matrix
//!
//! ```text
//! reactor × shards {1,2,4} × coalescing {off,on} × front_ends {1,2}
//! ```
//!
//! must produce the transcript computed from the store (responses are
//! a pure function of `(target, HTTP version)`, so one expected
//! transcript serves every shard count and tier shape). Each response
//! body is additionally verified against the store as it arrives. Every
//! run must demonstrably stream laterally (the remote path
//! byte-identity alone cannot see) — forced, not left to load timing,
//! by switching extLARD's rule 1b off (`disk_queue_low = 0`) — and must
//! unwind to zero tracked connections, zero residual load, and a fully
//! drained `pending_body_bytes` gauge.

mod common;

use std::time::Duration;

use common::{assert_transcript, expected_transcript, play_capture, Transcript};
use phttp_core::{LardParams, Mechanism, PolicyKind};
use phttp_proto::{Cluster, ContentStore, DiskEmu, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{reconstruct, ClientId, ConnectionTrace, SessionConfig, TargetId, Trace};

const MIB: u64 = 1024 * 1024;

/// Mixed corpus dominated by multi-MiB targets, with small files
/// sprinkled in so gathered writes interleave tiny and huge iovecs on
/// one connection.
const SIZES: [u64; 8] = [
    3 * MIB,
    2 * MIB,
    MIB + 512 * 1024,
    MIB,
    512 * 1024,
    192 * 1024,
    8 * 1024,
    64,
];

/// Hand-built workload: 10 clients × 8 requests, spaced so each client
/// reconstructs to one persistent connection of one leading single
/// request plus pipelined batches. Every target is requested several
/// times (hits AND misses on every node), deterministically.
fn workload() -> (Trace, ConnectionTrace) {
    let mut requests = Vec::new();
    for c in 0..10u32 {
        for k in 0..8u64 {
            requests.push(phttp_trace::Request {
                // 100 ms spacing keeps all non-first requests of a
                // client inside the 1 s pipelining window.
                time: SimTime::from_millis(c as u64 * 7 + k * 100),
                client: ClientId(c),
                target: TargetId(((c as u64 * 3 + k * 5 + k) % SIZES.len() as u64) as u32),
            });
        }
    }
    let trace = Trace::new(requests, SIZES.to_vec());
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(shards: usize, front_ends: usize, coalesce: bool) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism: Mechanism::BackendForwarding,
        // Per-node cache *below* the two largest bodies: those are
        // uncacheable (every serve is a slow disk read), the mid-size
        // targets fit but evict each other — so cached slices get
        // evicted while their bytes are still queued for write-out (the
        // refcount keeps them alive; a path that freed early would
        // corrupt).
        cache_bytes: 2 * MIB - 1,
        disk: DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 100.0 * MIB as f64,
        },
        lard: LardParams {
            disk_queue_low: 0,
            ..LardParams::default()
        },
        coalesce_misses: coalesce,
        read_timeout: Duration::from_secs(10),
        reactor_shards: shards,
        front_ends,
        ..ProtoConfig::default()
    }
}

/// One matrix cell: serve the workload, check the transcript against
/// `want`, prove the cluster unwound clean, and return the summed
/// `lateral_out`.
fn run_cell(cfg: ProtoConfig, want: &Transcript, cell: &str) -> u64 {
    let (trace, conns) = workload();
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    let store = cluster.store().clone();
    let transcript = play_capture(cluster.frontend_addrs(), &conns, &store);
    assert!(
        cluster.quiesce(Duration::from_secs(15)),
        "{cell}: connections leaked"
    );
    let fe = cluster.frontend_shared();
    assert_eq!(fe.active_connections(), 0, "{cell}");
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "{cell}: residual load {:?}",
        fe.loads()
    );
    // The staging-queue gauge charges each queued slice once and
    // unwinds to exactly zero when every connection has drained.
    let stats = cluster.reactor_stats().expect("reactor gauges");
    assert_eq!(
        stats.pending_body_bytes(),
        0,
        "{cell}: pending_body_bytes gauge leaked"
    );
    let responses: usize = transcript.iter().map(|c| c.len()).sum();
    assert_eq!(responses, trace.len(), "{cell}: lost responses");
    assert_transcript(&transcript, want, cell);
    let lateral: u64 = cluster.node_stats().iter().map(|s| s.lateral_out).sum();
    cluster.shutdown();
    lateral
}

fn matrix(coalesce: bool) {
    // Every cell plays the same workload, so the store's transcript —
    // some 80 MiB of generated bodies — is built once.
    let (trace, conns) = workload();
    let want = expected_transcript(&ContentStore::from_trace(&trace), &conns);
    for shards in [1usize, 2, 4] {
        for front_ends in [1usize, 2] {
            let cell = format!("shards={shards}/fe={front_ends}/coalesce={coalesce}");
            let lateral = run_cell(config(shards, front_ends, coalesce), &want, &cell);
            assert!(lateral > 0, "{cell}: no lateral stream ever ran");
        }
    }
}

#[test]
fn large_body_matrix_matches_threads_oracle() {
    matrix(false);
}

#[test]
fn large_body_matrix_matches_threads_oracle_with_coalescing() {
    matrix(true);
}
