//! Differential test: the event-driven reactor — at **every shard
//! count**, on both accept paths — must serve exactly the bytes the
//! content store says it owes.
//!
//! The same pipelined P-HTTP workload is driven through a cluster by a
//! verifying capture client, recording every response on every
//! connection, over the matrix `reactor_shards ∈ {1, 2, 4}`. Response
//! bytes are fully determined by the request target and HTTP version,
//! so each transcript must be **byte-identical** to the one computed
//! from the store (see `common`), even though connection *scheduling*
//! is concurrent. Each run must also demonstrably exercise its
//! mechanism's remote path (lateral fetches or migrations —
//! byte-identity alone cannot see routing), and every cluster must
//! unwind to the same final load-tracker state (exactly zero load, zero
//! tracked connections).
//!
//! The recipe forces the remote path rather than hoping load timing
//! produces it: extLARD's rule 1b (serve a miss locally while the disk
//! queue is short) is switched off with `disk_queue_low = 0`, so any
//! request for a target cached on another node weighs forwarding.

mod common;

use std::time::Duration;

use common::{assert_transcript, expected_transcript, play_capture, play_one, Transcript};
use phttp_core::{LardParams, Mechanism, PolicyKind};
use phttp_proto::{Cluster, DiskEmu, NodeStatsSnapshot, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{
    generate, reconstruct, Batch, ClientId, Connection, ConnectionTrace, SessionConfig,
    SynthConfig, TargetId,
};

fn workload() -> (phttp_trace::Trace, ConnectionTrace) {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 120;
    synth.num_pages = 50;
    let trace = generate(&synth);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(mechanism: Mechanism, shards: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism,
        // Small caches and slow disks so queues build under the
        // concurrent capture client (the same recipe as the end-to-end
        // lateral-fetch test).
        cache_bytes: 512 * 1024,
        disk: DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 40.0 * 1024.0 * 1024.0,
        },
        lard: LardParams {
            disk_queue_low: 0,
            ..LardParams::default()
        },
        read_timeout: Duration::from_secs(5),
        reactor_shards: shards,
        ..ProtoConfig::default()
    }
}

/// One cluster run: an optional `probe` connection played alone first,
/// then the workload under the concurrent capture client. Checks both
/// transcripts against the store and the cluster's final unwind, and
/// returns the per-node counters.
fn run_cell(cfg: ProtoConfig, probe: Option<&Connection>, cell: &str) -> Vec<NodeStatsSnapshot> {
    let (trace, conns) = workload();
    let forced_handoff = cfg.force_accept_handoff;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    // This host supports reuseport groups (the shim test proves it); a
    // silent fallback would quietly skip the accept path a cell exists
    // to exercise.
    assert_eq!(
        cluster.used_accept_handoff(),
        forced_handoff,
        "{cell}: accept path"
    );
    let store = cluster.store().clone();
    if let Some(probe) = probe {
        let got: Transcript = vec![play_one(cluster.frontend_addr(), probe, &store)];
        let want = expected_transcript(
            &store,
            &ConnectionTrace {
                connections: vec![probe.clone()],
            },
        );
        assert_transcript(&got, &want, &format!("{cell} probe"));
    }
    let transcript = play_capture(cluster.frontend_addrs(), &conns, &store);
    let responses: usize = transcript.iter().map(|c| c.len()).sum();
    assert_eq!(
        responses,
        trace.len(),
        "{cell}: every request got a response"
    );
    assert_transcript(&transcript, &expected_transcript(&store, &conns), cell);
    // Final load-tracker state: every connection's charge unwound to
    // exactly zero (fixed-point accounting), nothing still tracked.
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{cell}: connections leaked"
    );
    let fe = cluster.frontend_shared();
    assert_eq!(fe.active_connections(), 0, "{cell}");
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "{cell}: residual load {:?}",
        fe.loads()
    );
    let stats = cluster.node_stats();
    cluster.shutdown();
    stats
}

/// Byte-identical transcripts alone cannot distinguish *where* a
/// request was served (bodies depend only on the target), so each run
/// must additionally prove it exercised the mechanism's remote path —
/// otherwise a reactor that silently served every remote assignment
/// locally would pass the transcript comparison.
fn assert_routes(stats: &[NodeStatsSnapshot], mechanism: Mechanism, cell: &str) {
    let lateral: u64 = stats.iter().map(|s| s.lateral_out).sum();
    let migrations: u64 = stats.iter().map(|s| s.migrations_in).sum();
    match mechanism {
        Mechanism::MultipleHandoff => {
            assert!(migrations > 0, "{cell}: no connection ever migrated");
            assert_eq!(lateral, 0, "{cell}: migrate semantics must not fetch");
        }
        _ => {
            assert!(lateral > 0, "{cell}: no request was ever forwarded");
            assert_eq!(migrations, 0, "{cell}: forwarding must not migrate");
        }
    }
}

/// The shard counts the reactor is differentially tested at. 1 is the
/// single-loop baseline; 2 and 4 exercise reuseport accept
/// distribution, cross-shard lateral serving (a fetch issued on one
/// shard served by the peer listener on another), and the shared
/// dispatcher under true multi-loop concurrency.
const SHARD_MATRIX: [usize; 3] = [1, 2, 4];

fn shard_matrix(mechanism: Mechanism) {
    for shards in SHARD_MATRIX {
        let cell = format!("{mechanism:?}/{shards} shards");
        let stats = run_cell(config(mechanism, shards), None, &cell);
        assert_routes(&stats, mechanism, &cell);
    }
}

#[test]
fn reactor_shard_matrix_matches_threads_backend_forwarding() {
    shard_matrix(Mechanism::BackendForwarding);
}

#[test]
fn reactor_shard_matrix_matches_threads_multiple_handoff() {
    shard_matrix(Mechanism::MultipleHandoff);
}

/// Single-flight coalescing must be invisible on the wire: with
/// `coalesce_misses` on, the reactor at every shard count must still
/// produce the store's transcript — only fetch counts and timing may
/// differ from the uncoalesced runs above. Each cell must also actually
/// coalesce, or this leg would silently test nothing new: a probe
/// connection played alone on the cold cluster pipelines one target
/// three times, so the second and third requests find the first one's
/// disk read in flight on the same shard and park on it.
#[test]
fn reactor_shard_matrix_matches_threads_with_coalescing() {
    let mechanism = Mechanism::BackendForwarding;
    let probe = Connection {
        client: ClientId(u32::MAX),
        batches: vec![Batch {
            time: SimTime::ZERO,
            targets: vec![TargetId(0); 3],
        }],
    };
    for shards in SHARD_MATRIX {
        let cell = format!("coalescing/{shards} shards");
        let cfg = ProtoConfig {
            coalesce_misses: true,
            ..config(mechanism, shards)
        };
        let stats = run_cell(cfg, Some(&probe), &cell);
        assert_routes(&stats, mechanism, &cell);
        let coalesced: u64 = stats.iter().map(|s| s.coalesced_waits).sum();
        assert!(
            coalesced > 0,
            "{cell}: never coalesced a miss — the probe recipe broke"
        );
    }
}

/// The acceptor-handoff fallback (round-robin injection into the shard
/// loops) must serve the store's transcript exactly as the reuseport
/// accept path does — it is the degradation mode on hosts where the
/// shim cannot express the listener group.
#[test]
fn acceptor_handoff_fallback_matches_threads() {
    let mut cfg = config(Mechanism::BackendForwarding, 2);
    cfg.force_accept_handoff = true;
    let stats = run_cell(cfg, None, "acceptor handoff");
    assert_routes(&stats, Mechanism::BackendForwarding, "acceptor handoff");
}
