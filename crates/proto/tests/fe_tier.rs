//! Differential tests of the front-end tier: a cluster with
//! `front_ends ∈ {1, 2}` must serve exactly the transcript computed
//! from the content store.
//!
//! Response bytes are a pure function of `(target, HTTP version)`
//! regardless of which front-end admits a connection or which node
//! serves a request, so per-connection transcripts must stay
//! **byte-identical** to the store's however the VIP routes.
//! Byte-identity alone cannot see the tier, though — a Vip that
//! admitted nothing would pass — so the `front_ends = 2` legs
//! additionally assert the admission handshakes actually ran
//! (`handoffs > 0`) and that both front-ends took connections. Both
//! are deterministic: the Vip admits every connection with a handshake,
//! round-robin across the live front-ends.
//!
//! The kill test decommissions one front-end **while its connections
//! are in flight**: its consistent-hash partition must be re-owned by
//! the survivor, new connections must route around it, and every
//! in-flight request must still complete byte-exact — the tier's
//! failover contract.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use common::{assert_transcript, expected_transcript, play_capture, play_one, Transcript};
use phttp_core::{FeId, LardParams, Mechanism, PolicyKind};
use phttp_proto::{Cluster, DiskEmu, ProtoConfig};
use phttp_trace::{generate, reconstruct, ConnectionTrace, SessionConfig, SynthConfig, TargetId};

fn workload() -> (phttp_trace::Trace, ConnectionTrace) {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 120;
    synth.num_pages = 50;
    let trace = generate(&synth);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(front_ends: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism: Mechanism::BackendForwarding,
        // Same recipe as the reactor-equivalence matrix — queue-building
        // caches and disks, rule 1b off — so the remote serving paths
        // run under every tier size.
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
        front_ends,
        gossip_interval: Duration::from_millis(1),
        ..ProtoConfig::default()
    }
}

fn run_tier(front_ends: usize) {
    let (trace, conns) = workload();
    let cluster = Cluster::start(config(front_ends), &trace).expect("start cluster");
    let store = cluster.store().clone();
    let transcript = play_capture(cluster.frontend_addrs(), &conns, &store);
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{front_ends} FEs: connections leaked"
    );
    // Every front-end's dispatcher unwound its share to exactly zero.
    for (i, fe) in cluster.front_ends().iter().enumerate() {
        assert_eq!(fe.active_connections(), 0, "{front_ends} FEs: fe {i}");
        assert!(
            fe.loads().iter().all(|&l| l.abs() < 1e-12),
            "{front_ends} FEs: fe {i} residual load {:?}",
            fe.loads()
        );
    }
    if front_ends > 1 {
        let vip = cluster.vip().expect("tier cluster has a vip");
        // The tier must have actually run: real admission handshakes
        // over the control sessions, spread across both front-ends by
        // the round robin (conn_count >> front_ends, so each gets some).
        assert!(vip.handoffs() > 0, "no admission ever ran");
        for f in 0..front_ends {
            assert!(
                vip.admitted(f) > 0,
                "front-end {f} never admitted a connection"
            );
        }
        // Every admitted connection's close notification came back:
        // the forwarding table is empty again.
        assert_eq!(vip.tracked(), 0, "tier routes leaked");
    }
    let lateral: u64 = cluster.node_stats().iter().map(|s| s.lateral_out).sum();
    assert!(
        lateral > 0,
        "{front_ends} FEs: no request was ever forwarded"
    );
    cluster.shutdown();
    let responses: usize = transcript.iter().map(|c| c.len()).sum();
    assert_eq!(responses, trace.len(), "every request got a response");
    assert_transcript(
        &transcript,
        &expected_transcript(&store, &conns),
        &format!("{front_ends} front-ends"),
    );
}

/// The tier legs every differential run covers: the tierless baseline
/// and a 2-front-end tier.
const TIER_MATRIX: [usize; 2] = [1, 2];

/// `front_ends ∈ {1, 2}`, each byte-identical to the store's transcript
/// — and so to each other: the tier is indistinguishable from the
/// single front-end.
#[test]
fn tier_matrix_matches_single_frontend_oracle() {
    for front_ends in TIER_MATRIX {
        run_tier(front_ends);
    }
}

/// Killing a front-end mid-traffic: its partition is re-owned, new
/// connections route around it, and no in-flight request is lost.
#[test]
fn kill_one_frontend_drains_without_loss() {
    let (trace, conns) = workload();
    let cluster = Cluster::start(config(2), &trace).expect("start cluster");
    let store = cluster.store().clone();
    let addrs: Vec<SocketAddr> = cluster.frontend_addrs().to_vec();

    // Drive the first half of the workload to get connections admitted
    // to BOTH front-ends and still in flight, then kill front-end 1
    // while the second half keeps arriving.
    let halfway = conns.connections.len() / 2;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let transcript: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = conns
        .connections
        .iter()
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    let mut killed = false;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = conns.connections.get(i) else {
                    break;
                };
                *transcript[i].lock() = play_one(addrs[i % addrs.len()], conn, &store);
            });
        }
        // Let the players get connections in flight on both front-ends,
        // then pull front-end 1 out from under them.
        while cursor.load(Ordering::Relaxed) < halfway {
            std::thread::sleep(Duration::from_millis(1));
        }
        killed = cluster.kill_frontend(1);
    });
    assert!(killed, "kill_frontend(1) must succeed on a live tier");

    let vip = cluster.vip().expect("tier cluster has a vip");
    assert_eq!(vip.fe_kills(), 1);
    assert!(!vip.is_alive(1));
    // The dead front-end's consistent-hash partition was re-owned in
    // full by the survivor — no target is left without an authority.
    for t in 0..store.len() {
        assert_eq!(
            vip.ring_owner(TargetId(t as u32)),
            FeId(0),
            "target {t} not re-owned after the kill"
        );
    }
    // Both front-ends admitted connections before the kill (the kill
    // would otherwise prove nothing about in-flight draining).
    assert!(vip.admitted(0) > 0 && vip.admitted(1) > 0);

    // No in-flight request was lost: every connection's transcript is
    // complete and byte-exact — checked against the store, including
    // every connection the dead front-end was still draining when it
    // was decommissioned.
    let transcript: Transcript = transcript.into_iter().map(|m| m.into_inner()).collect();
    assert_transcript(
        &transcript,
        &expected_transcript(&store, &conns),
        "a request was lost or corrupted by the kill",
    );

    // New connections keep flowing, all admitted to the survivor.
    let before = vip.admitted(1);
    let (_, tail) = workload();
    let extra = play_capture(&addrs, &tail, &store);
    assert_eq!(
        extra.iter().map(|c| c.len()).sum::<usize>(),
        trace.len(),
        "post-kill traffic must be served in full"
    );
    assert_eq!(
        vip.admitted(1),
        before,
        "the dead front-end must admit nothing after the kill"
    );

    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "post-kill: connections leaked"
    );
    for (i, fe) in cluster.front_ends().iter().enumerate() {
        assert_eq!(fe.active_connections(), 0, "fe {i}");
    }
    assert_eq!(vip.tracked(), 0, "tier routes leaked across the kill");
    cluster.shutdown();
}
