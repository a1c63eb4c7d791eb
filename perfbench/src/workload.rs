//! The three workloads: their generated requests and pinned cluster
//! configuration. `phttp-trace` generates every input from the seed;
//! the cluster receives only the generated requests.

use bytes::{Bytes, BytesMut};
use phttp_core::{Mechanism, PolicyKind};
use phttp_http::{Request, Version};
use phttp_proto::{ContentStore, IoModel, ProtoConfig};
use phttp_trace::{generate, reconstruct, Connection, SessionConfig, SynthConfig, TargetId, Trace};

/// Which traffic mix to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Pipelined P-HTTP over a corpus every node caches.
    PhttpHot,
    /// The paper's scenario: a Rice-like trace as P-HTTP connections on
    /// four nodes with an emulated disk.
    PhttpTrace,
    /// The `PhttpHot` requests as HTTP/1.0, one connection per request.
    Http10Hot,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::PhttpHot,
        WorkloadKind::PhttpTrace,
        WorkloadKind::Http10Hot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PhttpHot => "phttp_hot",
            WorkloadKind::PhttpTrace => "phttp_trace",
            WorkloadKind::Http10Hot => "http10_hot",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The other protocol over the same hot corpus, for the measured
    /// per-connection / per-request cost split.
    pub fn hot_sibling(self) -> Option<WorkloadKind> {
        match self {
            WorkloadKind::PhttpHot => Some(WorkloadKind::Http10Hot),
            WorkloadKind::Http10Hot => Some(WorkloadKind::PhttpHot),
            WorkloadKind::PhttpTrace => None,
        }
    }
}

/// How the client speaks to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Persistent connections; each batch pipelined in one write, the
    /// next batch sent once the previous batch's responses are in.
    PHttp,
    /// One connection per request; the server closes it after the
    /// response and the client reads to that close.
    Http10,
}

/// One pipelined batch: `len` requests starting at `start` in the
/// connection's target list, pre-encoded as `wire`.
#[derive(Debug, Clone)]
pub struct PlayBatch {
    pub start: usize,
    pub len: usize,
    pub wire: Bytes,
}

/// One client connection, ready to play.
#[derive(Debug, Clone)]
pub struct PlayConn {
    pub targets: Vec<TargetId>,
    pub batches: Vec<PlayBatch>,
}

impl PlayConn {
    fn new(batches: &[Vec<TargetId>], version: Version) -> PlayConn {
        let mut targets = Vec::new();
        let mut out = Vec::with_capacity(batches.len());
        for batch in batches {
            let mut wire = BytesMut::new();
            for &t in batch {
                Request::get(ContentStore::uri(t), version).encode(&mut wire);
            }
            out.push(PlayBatch {
                start: targets.len(),
                len: batch.len(),
                wire: wire.freeze(),
            });
            targets.extend_from_slice(batch);
        }
        PlayConn {
            targets,
            batches: out,
        }
    }

    fn from_trace(conn: &Connection) -> PlayConn {
        let batches: Vec<Vec<TargetId>> = conn.batches.iter().map(|b| b.targets.clone()).collect();
        PlayConn::new(&batches, Version::Http11)
    }

    pub fn len(&self) -> usize {
        self.targets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// How a freshly started cluster is brought to its measured state.
#[derive(Debug, Clone)]
pub enum WarmUp {
    /// Every target is served once on every node through `NodeState`'s
    /// serve calls, so every node caches the whole corpus.
    EveryNode,
    /// These connections are played over the sockets first.
    Prefix(Vec<PlayConn>),
}

/// Input size: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Pipelined batches per `phttp_hot` connection.
pub const HOT_BATCHES: usize = 8;
/// Requests per `phttp_hot` batch.
pub const HOT_BATCH_LEN: usize = 4;
/// Share of `phttp_trace` connections played as the warm-up prefix.
const TRACE_WARM_SHARE: f64 = 0.25;
/// `phttp_trace` nodes.
const TRACE_NODES: usize = 4;
/// The `phttp_trace` cluster's aggregate cache as a multiple of the
/// trace's working set: larger than one node's cache, and the working
/// set fits the aggregate. Fixing the ratio rather than the byte count
/// keeps the cache pressure the same for every seed's corpus.
const TRACE_AGGREGATE_CACHE: f64 = 2.0;

/// A generated workload and the cluster it runs on.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub scale: Scale,
    pub protocol: Protocol,
    /// The corpus (`Cluster::start` builds the content store from it).
    pub trace: Trace,
    pub config: ProtoConfig,
    pub warm: WarmUp,
    /// The timed phase plays these in order, wrapping around.
    pub conns: Vec<PlayConn>,
}

/// Every workload runs the reactor on one shard; everything not named
/// here keeps its default.
fn pinned_config(nodes: usize) -> ProtoConfig {
    ProtoConfig {
        nodes,
        policy: PolicyKind::ExtLard,
        mechanism: Mechanism::BackendForwarding,
        io_model: IoModel::Reactor,
        reactor_shards: 1,
        ..ProtoConfig::default()
    }
}

/// The site every seed shares: its corpus (sizes and page structure)
/// comes from this fixed seed, and the benchmark's seed picks which
/// stretch of the site's generated traffic is played. A fixed site keeps
/// the handful of most popular pages — which a Zipf popularity makes
/// dominate every aggregate — the same for every seed, so seeds vary the
/// request streams without each drawing a new set of head documents.
const SITE_SEED: u64 = 1999;

/// Windows of traffic each site trace holds.
const SITE_WINDOWS: usize = 8;

/// A well-mixed 64-bit hash (splitmix64), so neighbouring seeds pick
/// unrelated windows.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Window `key` of `1 / SITE_WINDOWS` of the site's requests, in time
/// order, over the whole corpus.
fn window(site: &Trace, key: u64) -> Trace {
    let reqs = site.requests();
    let len = reqs.len() / SITE_WINDOWS;
    let start = (mix(key) % (reqs.len() - len + 1) as u64) as usize;
    let sizes = (0..site.num_targets() as u32)
        .map(|t| site.size_of(TargetId(t)))
        .collect();
    Trace::new(reqs[start..start + len].to_vec(), sizes)
}

/// The hot corpus: ~160 Rice-like targets, ~1 MB, which fits the
/// default per-node cache.
fn hot_trace(seed: u64, scale: Scale) -> Trace {
    let views = if scale == Scale::Full { 4_000 } else { 400 };
    let site = generate(&SynthConfig {
        seed: SITE_SEED,
        num_pages: 32,
        num_page_views: views * SITE_WINDOWS,
        max_target_bytes: 64 * 1024,
        ..SynthConfig::small()
    });
    window(&site, seed)
}

/// The `phttp_trace` traffic: a window of `SynthConfig::small()`'s
/// length out of a site trace `SITE_WINDOWS` times as long.
fn rice_trace(key: u64, scale: Scale) -> Trace {
    let small = SynthConfig::small();
    let views = if scale == Scale::Full {
        small.num_page_views
    } else {
        300
    };
    let site = generate(&SynthConfig {
        seed: SITE_SEED,
        num_page_views: views * SITE_WINDOWS,
        ..small
    });
    window(&site, key)
}

impl Workload {
    pub fn generate(kind: WorkloadKind, seed: u64, scale: Scale) -> Workload {
        Self::build(kind, seed, 0, scale)
    }

    /// What round `round` of a run plays. Each `phttp_trace` round takes
    /// its own window of the site's traffic (picked by the seed and the
    /// round), so the median over a run's rounds spans several windows;
    /// `None` means the round plays `self` again.
    pub fn for_round(&self, round: usize) -> Option<Workload> {
        (self.kind == WorkloadKind::PhttpTrace && round > 0)
            .then(|| Self::build(self.kind, self.seed, round, self.scale))
    }

    fn build(kind: WorkloadKind, seed: u64, round: usize, scale: Scale) -> Workload {
        match kind {
            WorkloadKind::PhttpHot | WorkloadKind::Http10Hot => {
                let trace = hot_trace(seed, scale);
                let targets: Vec<TargetId> = trace.requests().iter().map(|r| r.target).collect();
                let (protocol, conns) = if kind == WorkloadKind::PhttpHot {
                    let per_conn = HOT_BATCHES * HOT_BATCH_LEN;
                    let conns = targets
                        .chunks_exact(per_conn)
                        .map(|c| {
                            let batches: Vec<Vec<TargetId>> =
                                c.chunks(HOT_BATCH_LEN).map(<[_]>::to_vec).collect();
                            PlayConn::new(&batches, Version::Http11)
                        })
                        .collect();
                    (Protocol::PHttp, conns)
                } else {
                    let conns = targets
                        .iter()
                        .map(|&t| PlayConn::new(&[vec![t]], Version::Http10))
                        .collect();
                    (Protocol::Http10, conns)
                };
                Workload {
                    kind,
                    seed,
                    scale,
                    protocol,
                    trace,
                    config: pinned_config(2),
                    warm: WarmUp::EveryNode,
                    conns,
                }
            }
            WorkloadKind::PhttpTrace => {
                let trace = rice_trace(mix(seed).wrapping_add(round as u64), scale);
                let all: Vec<PlayConn> = reconstruct(&trace, SessionConfig::default())
                    .connections
                    .iter()
                    .map(PlayConn::from_trace)
                    .collect();
                let warm_n = ((all.len() as f64 * TRACE_WARM_SHARE) as usize).max(1);
                let (warm, conns) = all.split_at(warm_n);
                let cache_bytes = (trace.working_set_bytes() as f64 * TRACE_AGGREGATE_CACHE
                    / TRACE_NODES as f64) as u64;
                Workload {
                    kind,
                    seed,
                    scale,
                    protocol: Protocol::PHttp,
                    trace,
                    config: ProtoConfig {
                        cache_bytes,
                        ..pinned_config(TRACE_NODES)
                    },
                    warm: WarmUp::Prefix(warm.to_vec()),
                    conns: conns.to_vec(),
                }
            }
        }
    }

    /// Requests the timed phase's connection list holds (one pass).
    pub fn requests_per_pass(&self) -> usize {
        self.conns.iter().map(PlayConn::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in WorkloadKind::ALL {
            let a = Workload::generate(kind, 3, Scale::Tiny);
            let b = Workload::generate(kind, 3, Scale::Tiny);
            let c = Workload::generate(kind, 4, Scale::Tiny);
            let wire = |w: &Workload| -> Vec<Bytes> {
                w.conns
                    .iter()
                    .flat_map(|c| c.batches.iter().map(|b| b.wire.clone()))
                    .collect()
            };
            assert_eq!(wire(&a), wire(&b), "{}", kind.name());
            assert_ne!(wire(&a), wire(&c), "{}", kind.name());
        }
    }

    #[test]
    fn hot_connections_have_the_pinned_shape() {
        let w = Workload::generate(WorkloadKind::PhttpHot, 1, Scale::Tiny);
        assert!(w
            .conns
            .iter()
            .all(|c| c.batches.len() == HOT_BATCHES
                && c.batches.iter().all(|b| b.len == HOT_BATCH_LEN)));
        let h = Workload::generate(WorkloadKind::Http10Hot, 1, Scale::Tiny);
        assert!(h.conns.iter().all(|c| c.len() == 1));
        assert!(
            w.trace.corpus_bytes() < w.config.cache_bytes,
            "hot corpus must fit a node's cache"
        );
    }
}
