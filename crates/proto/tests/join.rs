//! Runtime membership on the reactor: a node joined after start gets its
//! control session drained by a reactor shard — no reader thread — and
//! that session behaves exactly like one present at start. Its feedback
//! reaches every front-end of the tier, its death (the session's EOF)
//! evicts its mappings everywhere, and a warm rejoin replays its cache
//! journal into every front-end's belief. Control sessions are not
//! connection sources, so the reactor's source gauge still drains to
//! zero once traffic stops.
//!
//! One test per binary on purpose: the no-new-thread check watches the
//! process's thread ids, which a concurrently running test would
//! disturb.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use phttp_core::{HealthState, NodeId, PolicyKind};
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, FrontEnd, LoadConfig, ProtoConfig};
use phttp_trace::{generate, reconstruct, SessionConfig, SynthConfig, TargetId};

/// The standby slot the test joins, kills and rejoins.
const JOINER: usize = 2;

/// Ids of this process's threads right now.
fn thread_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task list")
        .map(|e| {
            e.expect("task entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Polls `cond` every millisecond for up to five seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Targets `fe` believes node `n` caches.
fn beliefs(fe: &FrontEnd, n: usize) -> BTreeSet<TargetId> {
    let mut set = BTreeSet::new();
    fe.mapping().for_each_pair(|t, node| {
        if node == NodeId(n) {
            set.insert(t);
        }
    });
    set
}

/// Joins `JOINER` (first join or rejoin) and waits until every
/// front-end has applied the Join frame; asserts the join spawned no
/// thread (threads of earlier load runs may still be exiting, so only
/// new ids count).
fn join(cluster: &Cluster, warm: bool) {
    let before = thread_ids();
    let joined = if warm {
        cluster.rejoin_node_warm(JOINER)
    } else {
        cluster.join_node(JOINER)
    };
    assert!(joined, "join of slot {JOINER} refused");
    assert!(
        eventually(|| cluster
            .front_ends()
            .iter()
            .all(|fe| fe.health().state(NodeId(JOINER)) == HealthState::Closed)),
        "the Join frame never reached every front-end"
    );
    let spawned: Vec<_> = thread_ids().difference(&before).cloned().collect();
    assert!(spawned.is_empty(), "join_node spawned threads {spawned:?}");
}

#[test]
fn runtime_join_is_drained_by_the_reactor() {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 80;
    synth.num_pages = 40;
    let trace = generate(&synth);
    let workload = reconstruct(&trace, SessionConfig::default());
    let cluster = Cluster::start(
        ProtoConfig {
            nodes: 2,
            standby_nodes: 1,
            reactor_shards: 2,
            front_ends: 2,
            policy: PolicyKind::ExtLard,
            cache_bytes: 4 * 1024 * 1024,
            disk: DiskEmu {
                seek: Duration::from_micros(300),
                bytes_per_sec: 200.0 * 1024.0 * 1024.0,
            },
            // The idle sweep reaps pooled lateral sessions and idle
            // peer-server connections after this, so the source gauge
            // drains within the test's patience.
            read_timeout: Duration::from_millis(300),
            // Breakers move only through the join/kill handshakes.
            health_tick_interval: Duration::ZERO,
            ..ProtoConfig::default()
        },
        &trace,
    )
    .expect("start cluster");
    let load = || {
        let report = run_load(
            cluster.frontend_addrs(),
            cluster.store(),
            &workload,
            &LoadConfig {
                clients: 4,
                protocol: ClientProtocol::PHttp,
                ..LoadConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "verification failures");
        assert_eq!(report.requests as usize, trace.len());
    };
    load();

    // First join of the standby slot: its session goes to a shard.
    join(&cluster, false);

    // Feedback over the joined session reaches every front-end: the
    // node admits documents (served directly, so no other node reports
    // meanwhile) and flushes.
    let before: Vec<_> = cluster
        .front_ends()
        .iter()
        .map(|fe| fe.coherence())
        .collect();
    let node = &cluster.frontend().nodes()[JOINER];
    let cached: BTreeSet<TargetId> = (0..4).map(TargetId).collect();
    for &t in &cached {
        if node.begin_serve_body(t).is_none() {
            node.finish_disk_read(t);
        }
    }
    node.flush_feedback();
    for (fe, was) in cluster.front_ends().iter().zip(&before) {
        assert!(
            eventually(|| {
                let now = fe.coherence();
                now.reports > was.reports && now.admit_events >= was.admit_events + 4
            }),
            "the joined node's feedback never reached a front-end: {:?} -> {:?}",
            was,
            fe.coherence()
        );
    }

    // Death of the joined session: every front-end evicts the node.
    assert!(cluster.kill_node(JOINER), "kill of a joined node failed");
    for fe in cluster.front_ends() {
        assert!(
            eventually(|| beliefs(fe, JOINER).is_empty()),
            "kill left beliefs for the node: {:?}",
            beliefs(fe, JOINER)
        );
    }

    // Warm rejoin: the journal replays the surviving cache into every
    // front-end's belief before any request reaches the node.
    join(&cluster, true);
    for fe in cluster.front_ends() {
        assert!(
            eventually(|| beliefs(fe, JOINER).is_superset(&cached)),
            "warm rejoin did not replay the journal: believed {:?}, cached {cached:?}",
            beliefs(fe, JOINER)
        );
    }
    // And a second death evicts the replayed beliefs again.
    assert!(cluster.kill_node(JOINER), "kill after rejoin failed");
    for fe in cluster.front_ends() {
        assert!(
            eventually(|| beliefs(fe, JOINER).is_empty()),
            "kill after rejoin left beliefs for the node"
        );
    }
    join(&cluster, true);

    // The rejoined cluster still serves, and with traffic stopped the
    // shards drain to zero sources: control sessions, joined or not,
    // are not counted.
    load();
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connections leaked"
    );
    let stats = cluster.reactor_stats().expect("reactor gauges");
    assert!(
        eventually(|| stats.sources() == 0),
        "sources stuck at {} after quiesce",
        stats.sources()
    );
    assert_eq!(stats.pending_body_bytes(), 0);
    cluster.shutdown();
}
