//! Cluster assembly: back-end nodes, the front-end tier, and the
//! reactor shards that serve every socket — the runnable analogue of
//! the paper's §7 testbed.
//!
//! ## Data path
//!
//! 1. A client connects to a front-end address and a reactor shard
//!    accepts it. The shard reads the first request (content-based
//!    distribution requires it) and asks the policy for a node — the
//!    *handoff*. From then on the shard serves the connection as that
//!    back-end: client bytes flow to it directly, responses flow back
//!    directly, and the front-end only sees per-request control
//!    traffic — the same division of labour as the paper's kernel
//!    handoff (DESIGN.md §6.2/§6.4).
//! 2. Later pipelined batches are decided one batch at a time; the
//!    dispatcher answers `Local` or `Remote(k)` for each request. A
//!    remote assignment is a lateral fetch from node `k`'s peer server
//!    over a persistent connection (the NFS stand-in; §7.3 tags the
//!    URI `/be_<k>/t/<id>` for the same purpose).
//! 3. Peer servers serve `/t/<id>` from their own cache/disk, so a
//!    lateral fetch exercises the remote node's cache exactly as NFS
//!    reads hit the remote buffer cache in the paper.
//!
//! See the [`crate::reactor`] module docs for the event loop itself.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use phttp_core::{ConnId, LardParams, Mechanism, NodeId, PolicyKind};
use phttp_simcore::EvictPolicy;
use phttp_trace::Trace;

use crate::frontend::{ConfigError, FrontEnd, DEFAULT_DISK_REPORT_INTERVAL};
use crate::node::{DiskEmu, FeedbackConfig, NodeState, NodeStatsSnapshot};
use crate::reactor::{self, ConnInjector, ReactorConfig, ReactorHandle, ReactorStats};
use crate::store::ContentStore;
use crate::tier::{client_key, Vip, DEFAULT_GOSSIP_INTERVAL};

/// The front-end I/O model. The event-driven reactor is the only one:
/// [`ProtoConfig::reactor_shards`] event loops drive every client
/// connection, lateral fetch, lateral server connection, control
/// session and emulated disk through epoll-style readiness (see the
/// [`crate::reactor`] module docs).
///
/// A no-op: the type and [`ProtoConfig::io_model`] are kept only until
/// the benchmark stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// Event-loop shards; concurrency is bounded by file descriptors,
    /// not threads.
    #[default]
    Reactor,
}

/// Prototype cluster configuration.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Number of back-end nodes.
    pub nodes: usize,
    /// Request-distribution policy.
    pub policy: PolicyKind,
    /// Request-distribution mechanism: back-end forwarding (the paper's §7
    /// implementation) or multiple handoff (our extension — the paper
    /// sketches the design in §7.2; in-process stream transfer makes the
    /// migration trivial to realize).
    pub mechanism: Mechanism,
    /// Emulated cost of one connection migration (the kernel handoff
    /// protocol exchange the in-process transfer does not pay).
    pub migration_delay: Duration,
    /// Per-node cache budget, bytes.
    pub cache_bytes: u64,
    /// Disk emulation parameters.
    pub disk: DiskEmu,
    /// LARD parameters.
    pub lard: LardParams,
    /// Minimum wall-clock spacing between disk-queue refreshes pushed
    /// into the dispatcher (`Duration::ZERO` = refresh on every
    /// decision). See [`FrontEnd::with_disk_report_interval`].
    pub disk_report_interval: Duration,
    /// Cache-coherent mapping feedback: when `true`, every back-end gets
    /// a real control session (a loopback stream to the front-end) over
    /// which it reports its cache admission/eviction deltas, and the
    /// dispatcher prunes believed mappings whose targets were evicted.
    /// When `false`, the mapping belief only grows — the paper's
    /// open-loop behaviour.
    pub cache_feedback: bool,
    /// Minimum spacing between a node's feedback reports (the
    /// control-session cadence; the staleness/traffic trade-off knob).
    pub feedback_interval: Duration,
    /// A node flushes a report early once this many events are pending,
    /// bounding report size under heavy eviction churn.
    pub feedback_batch: usize,
    /// Socket read timeout (bounds handler lifetime after client death).
    pub read_timeout: Duration,
    /// No-op: the reactor is the only I/O model (see [`IoModel`]). Kept
    /// until the benchmark stops naming it.
    pub io_model: IoModel,
    /// Number of reactor event-loop shards (one per core on a real
    /// host). Each shard owns its own poller, accept socket(s) (an
    /// `SO_REUSEPORT` group per front-end address, falling back to a
    /// round-robin acceptor handoff where the group bind is
    /// unavailable), connection slab, timer heap, lateral session
    /// pools, and its share of the peer listeners and control
    /// sessions; shards share only the lock-sharded dispatcher. Zero is
    /// a [`ConfigError`].
    pub reactor_shards: usize,
    /// Idle persistent lateral connections retained per peer pool (per
    /// shard, and per node for [`NodeState::lateral_fetch`]).
    /// Zero is a [`ConfigError`]: it would silently turn every lateral
    /// fetch into a fresh dial, defeating the persistent peer sessions
    /// the paper's NFS stand-in depends on.
    pub peer_pool_cap: usize,
    /// Forces the reactor's round-robin acceptor-handoff accept path
    /// even where `SO_REUSEPORT` listener groups are available
    /// (diagnostics/tests; normally the handoff is auto-selected only
    /// when the group bind fails).
    pub force_accept_handoff: bool,
    /// Single-flight miss coalescing: when `true`, concurrent misses on
    /// the same `(node, target)` within one reactor shard share one
    /// emulated disk read (and concurrent lateral fetches of one
    /// `(remote, target)` share one peer round-trip) — the extra
    /// missers park as *delayed hits* instead of issuing redundant
    /// fetches. Response bytes are a pure function of `(target, HTTP
    /// version)`, so transcripts are byte-identical either way; only
    /// timing and fetch counts change.
    pub coalesce_misses: bool,
    /// Per-node cache eviction policy. [`EvictPolicy::Lru`] is the
    /// paper's policy; [`EvictPolicy::LruMad`] ranks victims by
    /// estimated aggregate miss delay per byte (delayed-hits-aware).
    pub cache_policy: EvictPolicy,
    /// Number of front-end instances behind the VIP. With the default
    /// of 1 the cluster is the paper's single-front-end prototype,
    /// byte-for-byte. With more, the [`crate::tier::Vip`] routes each
    /// new client connection to one of `front_ends` independent
    /// [`FrontEnd`] dispatchers over real handoff control sessions,
    /// mapping/coherence authority is partitioned across them by a
    /// consistent-hash ring, and the instances gossip dispatcher state
    /// peer-to-peer every [`gossip_interval`](Self::gossip_interval).
    /// Zero is a [`ConfigError`].
    pub front_ends: usize,
    /// Spacing between front-end tier gossip rounds (ignored when
    /// `front_ends == 1`). Smaller means fresher non-owner views and
    /// more control traffic — the tier analogue of
    /// [`feedback_interval`](Self::feedback_interval).
    pub gossip_interval: Duration,
    /// Extra back-end slots allocated — listeners bound, peer addresses
    /// known to every node, dispatcher slots reserved — but **not**
    /// serving at start: their circuit breakers begin `Open` on every
    /// front-end (absent equals unhealthy) and no mapping ever refers
    /// to them. [`Cluster::join_node`] brings one into the serving set
    /// at runtime via the control-plane `Join` handshake.
    pub standby_nodes: usize,
    /// Relative per-node serving capacities, indexed by node slot over
    /// `nodes + standby_nodes`. Policies normalize load by weight, so a
    /// weight-2 node carries roughly twice a weight-1 node's share.
    /// Empty means homogeneous (all 1). Non-empty but wrong length or
    /// containing a zero is a [`ConfigError`].
    pub node_weights: Vec<u32>,
    /// Circuit-breaker parameters for the per-node health gates on
    /// every front-end (trip threshold, cooldown, probation quota).
    pub health: phttp_core::HealthConfig,
    /// Spacing between breaker cooldown ticks: every interval, each
    /// front-end's `Open` breakers advance one tick toward `HalfOpen`
    /// probation. `Duration::ZERO` disables the timer — breakers then
    /// only relax through an explicit [`Cluster::join_node`] handshake
    /// or a test's own [`FrontEnd::health_tick`] calls.
    pub health_tick_interval: Duration,
    /// Number of loopback addresses the front-end listens on
    /// (`127.0.0.1..127.0.0.k`). HTTP/1.0 load opens one TCP connection per
    /// request; on a single loopback address pair the 4-tuple space (and
    /// TIME_WAIT) throttles connection rates far below what the paper's
    /// multi-machine testbed sustained. Multiple destination addresses
    /// multiply the tuple space — the single-host stand-in for multiple
    /// client machines. All listeners feed the same dispatcher.
    pub fe_listeners: usize,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            nodes: 2,
            policy: PolicyKind::ExtLard,
            mechanism: Mechanism::BackendForwarding,
            migration_delay: Duration::from_micros(300),
            cache_bytes: 2 * 1024 * 1024,
            disk: DiskEmu::default(),
            lard: LardParams::default(),
            disk_report_interval: DEFAULT_DISK_REPORT_INTERVAL,
            cache_feedback: true,
            feedback_interval: Duration::from_millis(5),
            feedback_batch: 64,
            read_timeout: Duration::from_secs(10),
            io_model: IoModel::default(),
            reactor_shards: 1,
            peer_pool_cap: 8,
            force_accept_handoff: false,
            coalesce_misses: false,
            cache_policy: EvictPolicy::Lru,
            front_ends: 1,
            gossip_interval: DEFAULT_GOSSIP_INTERVAL,
            standby_nodes: 0,
            node_weights: Vec::new(),
            health: phttp_core::HealthConfig::default(),
            health_tick_interval: Duration::from_millis(25),
            fe_listeners: 4,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    fe_addrs: Vec<SocketAddr>,
    frontend: Arc<FrontEnd>,
    /// Every front-end instance (`fes[0]` is [`Cluster::frontend`]).
    fes: Vec<Arc<FrontEnd>>,
    /// The tier router; `None` when `front_ends == 1` — the
    /// single-front-end cluster constructs no tier machinery at all.
    vip: Option<Arc<Vip>>,
    store: Arc<ContentStore>,
    stop: Arc<AtomicBool>,
    /// Blocking acceptors of the acceptor-handoff fallback (empty when
    /// the shards own `SO_REUSEPORT` groups).
    accept_threads: Vec<std::thread::JoinHandle<()>>,
    /// The event-loop shards.
    reactor: ReactorHandle,
    /// One inbox per shard: fallback acceptors and
    /// [`join_node`](Self::join_node) hand streams to the loops here.
    injectors: Vec<ConnInjector>,
    /// Live reactor gauges.
    reactor_stats: Arc<ReactorStats>,
    /// Whether the shards accept via round-robin handoff.
    accept_handoff: bool,
    /// Front-end addresses whose blocking acceptors need a wake-up
    /// connect at shutdown.
    listeners: Vec<SocketAddr>,
    /// Whether the control plane exists (`ProtoConfig::cache_feedback`):
    /// with it, joins travel the wire; without, they apply in-process.
    cache_feedback: bool,
    /// Resolved per-slot capacity weights (all 1 when homogeneous).
    weights: Vec<u32>,
    /// The periodic breaker cooldown ticker, if enabled.
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Builds and starts a cluster serving the trace's corpus.
    ///
    /// Returns a [`ConfigError`] when the configured mechanism is one the
    /// prototype does not implement (relaying front-end and the zero-cost
    /// ideal are simulator-only).
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes == 0` or sockets cannot be bound on loopback.
    pub fn start(config: ProtoConfig, trace: &Trace) -> Result<Cluster, ConfigError> {
        assert!(config.nodes > 0, "cluster needs at least one back-end");
        if config.reactor_shards == 0 {
            return Err(ConfigError::ZeroReactorShards);
        }
        if config.peer_pool_cap == 0 {
            return Err(ConfigError::ZeroPeerPoolCap);
        }
        if config.front_ends == 0 {
            return Err(ConfigError::ZeroFrontEnds);
        }
        let total_nodes = config.nodes + config.standby_nodes;
        if !config.node_weights.is_empty() && config.node_weights.len() != total_nodes {
            return Err(ConfigError::NodeWeightsMismatch {
                expected: total_nodes,
                got: config.node_weights.len(),
            });
        }
        if let Some(node) = config.node_weights.iter().position(|&w| w == 0) {
            return Err(ConfigError::ZeroNodeWeight { node });
        }
        if config.health.validate().is_err() {
            return Err(ConfigError::InvalidHealthConfig);
        }
        let weights = if config.node_weights.is_empty() {
            vec![1; total_nodes]
        } else {
            config.node_weights.clone()
        };
        let store = Arc::new(ContentStore::from_trace(trace));
        // Catch corpora the data path cannot round-trip at construction
        // time: a document past the parsers' MAX_BODY bound would be
        // served fine but rejected by the cluster's own client and
        // lateral-fetch response parsers on every fetch.
        if let Some(size) = (0..store.len() as u32)
            .map(|t| store.size(phttp_trace::TargetId(t)))
            .find(|&s| s > phttp_http::MAX_BODY as u64)
        {
            return Err(ConfigError::TargetExceedsBodyLimit { size });
        }
        let stop = Arc::new(AtomicBool::new(false));

        // Bind every peer listener first so all addresses are known —
        // standby slots included, so a later join changes no node's view
        // of its peers.
        let peer_listeners: Vec<TcpListener> = (0..total_nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind peer listener"))
            .collect();
        let peer_addrs: Vec<SocketAddr> = peer_listeners
            .iter()
            .map(|l| l.local_addr().expect("peer addr"))
            .collect();

        let nodes: Vec<Arc<NodeState>> = (0..total_nodes)
            .map(|i| {
                Arc::new(
                    NodeState::new(
                        NodeId(i),
                        config.cache_bytes,
                        config.disk,
                        store.clone(),
                        peer_addrs.clone(),
                    )
                    .with_peer_pool_cap(config.peer_pool_cap)
                    .with_cache_policy(config.cache_policy)
                    .with_feedback(FeedbackConfig {
                        enabled: config.cache_feedback,
                        batch: config.feedback_batch,
                        min_interval: config.feedback_interval,
                    }),
                )
            })
            .collect();

        // The front-end tier: `front_ends` independent dispatchers over
        // the same back-end nodes. `fes[0]` keeps the historical
        // `frontend` role; with more than one, the Vip routes new
        // connections across them and they gossip state peer-to-peer.
        let fes: Vec<Arc<FrontEnd>> = (0..config.front_ends)
            .map(|_| {
                Ok(Arc::new(
                    FrontEnd::with_health(
                        config.policy,
                        config.mechanism,
                        config.lard,
                        config.health,
                        nodes.clone(),
                    )?
                    .with_disk_report_interval(config.disk_report_interval),
                ))
            })
            .collect::<Result<_, ConfigError>>()?;
        let frontend = fes[0].clone();
        // Capacity weights and standby gating: a standby slot is part of
        // nobody's serving set until its Join handshake — its breaker
        // starts Open on every front-end, so no policy decision can
        // route there (absent equals unhealthy).
        for fe in &fes {
            for (i, &w) in weights.iter().enumerate() {
                fe.set_node_weight(NodeId(i), w);
            }
            for i in config.nodes..total_nodes {
                fe.health().force_open(NodeId(i));
            }
        }
        let vip = (config.front_ends > 1).then(|| Vip::start(fes.clone(), config.gossip_interval));

        // Control sessions (§7.1): one loopback stream per serving
        // back-end over which the node pushes framed disk-queue and
        // cache-feedback reports. The node side attaches to the
        // NodeState; the front-end side is a readiness source on a
        // reactor shard, tagged with its node so an unexpected EOF can
        // name the failed node. A standby slot gets its session from its
        // Join handshake.
        let mut control_rx: Vec<(usize, TcpStream)> = Vec::new();
        if config.cache_feedback {
            for (i, node) in nodes.iter().enumerate().take(config.nodes) {
                let (tx, rx) = control_pair();
                node.attach_control(tx);
                control_rx.push((i, rx));
            }
        }

        // The event-loop shards own every listener outright: the
        // front-end accept sockets, the peer lateral servers, and the
        // control sessions are all registered readiness sources.
        let shards = config.reactor_shards;
        let mut fe_addrs = Vec::new();
        // Per-shard front-end accept sockets. With one shard the plain
        // listeners suffice; with several, each address is an
        // SO_REUSEPORT group with one member per shard, so the kernel
        // spreads accepts with no cross-shard traffic.
        let mut groups: Vec<Vec<mio::net::TcpListener>> = (0..shards).map(|_| Vec::new()).collect();
        // A front-end tier always accepts via handoff: the Vip admission
        // handshake blocks on a control round-trip, which belongs on the
        // acceptor threads, never inside an event loop.
        let mut handoff = config.force_accept_handoff || vip.is_some();
        if shards == 1 && !handoff {
            for l in bind_std_frontends(config.fe_listeners) {
                fe_addrs.push(l.local_addr().expect("front-end addr"));
                groups[0].push(mio::net::TcpListener::from_std(l));
            }
        } else if !handoff {
            'bind: for i in 0..config.fe_listeners.max(1) {
                match bind_reuseport_group(i, shards) {
                    Ok((addr, group)) => {
                        fe_addrs.push(addr);
                        for (s, l) in group.into_iter().enumerate() {
                            groups[s].push(l);
                        }
                    }
                    Err(_) => {
                        // The shim can't express the group here: fall
                        // back to acceptor handoff for every address
                        // (mixed modes would complicate shutdown for no
                        // benefit).
                        handoff = true;
                        break 'bind;
                    }
                }
            }
        }
        let mut listeners = Vec::new();
        let mut std_fe_listeners = Vec::new();
        if handoff {
            fe_addrs.clear();
            groups = (0..shards).map(|_| Vec::new()).collect();
            for l in bind_std_frontends(config.fe_listeners) {
                let addr = l.local_addr().expect("front-end addr");
                fe_addrs.push(addr);
                listeners.push(addr);
                std_fe_listeners.push(l);
            }
        }
        let reactor = reactor::spawn(
            ReactorConfig {
                migration_delay: config.migration_delay,
                read_timeout: config.read_timeout,
                shards,
                peer_pool_cap: config.peer_pool_cap,
                coalesce: config.coalesce_misses,
            },
            fes.clone(),
            vip.clone(),
            store.clone(),
            groups,
            peer_listeners,
            control_rx,
            stop.clone(),
        )
        .expect("start reactor event loops");
        let injectors = reactor.injectors();
        // Acceptor-handoff fallback: blocking acceptors hand each
        // accepted stream to the next shard round-robin (staggered per
        // listener so one hot address still spreads). Under a tier this
        // path is mandatory and the acceptor also runs the Vip admission
        // handshake.
        let accept_threads = std_fe_listeners
            .into_iter()
            .enumerate()
            .map(|(i, fe_listener)| {
                let stop = stop.clone();
                let injectors = injectors.clone();
                let vip = vip.clone();
                std::thread::spawn(move || {
                    for (n, incoming) in fe_listener.incoming().enumerate() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = incoming else { break };
                        let (fe_idx, ticket) = admit_stream(vip.as_deref(), &stream);
                        injectors[(i + n) % injectors.len()].push(stream, fe_idx, ticket);
                    }
                })
            })
            .collect();

        // Breaker cooldown timer: Open breakers advance toward HalfOpen
        // probation once per interval, on every front-end.
        let health_thread = (config.health_tick_interval > Duration::ZERO).then(|| {
            let fes = fes.clone();
            let stop = stop.clone();
            let interval = config.health_tick_interval;
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval.min(Duration::from_millis(5)));
                    // Accumulate short sleeps up to the interval so
                    // shutdown never waits out a long tick.
                    let mut slept = interval.min(Duration::from_millis(5));
                    while slept < interval && !stop.load(Ordering::Relaxed) {
                        let step = (interval - slept).min(Duration::from_millis(5));
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for fe in &fes {
                        fe.health_tick();
                    }
                }
            })
        });

        Ok(Cluster {
            fe_addrs,
            frontend,
            fes,
            vip,
            store,
            stop,
            accept_threads,
            reactor_stats: reactor.stats(),
            reactor,
            injectors,
            accept_handoff: handoff,
            listeners,
            cache_feedback: config.cache_feedback,
            weights,
            health_thread,
        })
    }

    /// The primary address clients connect to.
    pub fn frontend_addr(&self) -> SocketAddr {
        self.fe_addrs[0]
    }

    /// Every front-end address (one per loopback alias); spread high
    /// connection-rate load across all of them.
    pub fn frontend_addrs(&self) -> &[SocketAddr] {
        &self.fe_addrs
    }

    /// The shared front-end (diagnostics).
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// A shared handle to the front-end that outlives the cluster —
    /// lets tests assert on policy state after [`Cluster::shutdown`]
    /// (which consumes the cluster).
    pub fn frontend_shared(&self) -> Arc<FrontEnd> {
        self.frontend.clone()
    }

    /// Every front-end instance in the tier (`[0]` is
    /// [`frontend`](Self::frontend); length is
    /// [`ProtoConfig::front_ends`]).
    pub fn front_ends(&self) -> &[Arc<FrontEnd>] {
        &self.fes
    }

    /// The tier router, when `front_ends > 1`.
    pub fn vip(&self) -> Option<&Arc<Vip>> {
        self.vip.as_ref()
    }

    /// Decommissions front-end `f` (tier clusters only): new
    /// connections stop routing to it, its ring share is re-owned by
    /// the survivors, and its gossiped state is dropped — while its
    /// in-flight connections drain to completion. Returns `false` with
    /// no tier, for a dead `f`, or for the last live front-end.
    pub fn kill_frontend(&self, f: usize) -> bool {
        self.vip.as_ref().is_some_and(|vip| vip.kill_frontend(f))
    }

    /// The content store (for building verifying clients).
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.store
    }

    /// Brings back-end slot `i` into the serving set via the
    /// control-plane `Join` handshake: a fresh control session is
    /// installed whose **first frame** is the node's Join announcement —
    /// slot, capacity weight, and its warm-cache journal — so every
    /// front-end warms its mapping belief from the journal, installs
    /// the weight, and closes the node's breaker *before* any feedback
    /// traffic follows on the same stream. With the control plane
    /// disabled ([`ProtoConfig::cache_feedback`] off) the handshake is
    /// applied in-process instead.
    ///
    /// Works for standby slots (first join) and for killed nodes
    /// (rejoin; see [`rejoin_node_warm`](Self::rejoin_node_warm) and
    /// [`rejoin_node_cold`](Self::rejoin_node_cold)). The node's
    /// listeners run from cluster start either way — joining is a
    /// control-plane admission, not a process launch.
    ///
    /// The new session's front-end side goes to a reactor shard through
    /// the same per-shard inbox the fallback acceptors use, so a join
    /// spawns no thread. Returns `false` for an out-of-range slot.
    pub fn join_node(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        let node = &nodes[i];
        if !self.cache_feedback {
            let msg = node.join_msg(self.weights[i]);
            for fe in &self.fes {
                fe.apply_control(msg.clone());
            }
            return true;
        }
        let (tx, rx) = control_pair();
        // The shard owns the receive side before the announcement is
        // written, so a large journal never blocks on an unread socket.
        self.injectors[i % self.injectors.len()].push_control(i, rx);
        // Snapshot, announce, and install the session atomically: the
        // node keeps serving in-flight connections throughout its down
        // window, and an admission slipping between a detached snapshot
        // and the session install would be dropped by the session-less
        // flush path — cached content invisible to every mirror.
        node.attach_control_with_join(tx, self.weights[i])
            .expect("write join announcement");
        true
    }

    /// Kills back-end slot `i` as the failure detector sees it: the
    /// node side of its control session closes, the reactor shard
    /// draining it observes the EOF, evicts the node's mappings, and
    /// trips its breaker. Blocks until the breaker is `Open` on every
    /// front-end (so a subsequent rejoin cannot race the eviction);
    /// returns `false` if that does not happen within two seconds —
    /// e.g. the slot never had a session and was never serving. The
    /// node's listeners keep running; with the control plane disabled
    /// the eviction is applied in-process instead.
    pub fn kill_node(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        if !self.cache_feedback {
            for fe in &self.fes {
                fe.evict_node(NodeId(i));
            }
            return true;
        }
        nodes[i].close_control();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let all_open = self
                .fes
                .iter()
                .all(|fe| fe.health().state(NodeId(i)) == phttp_core::HealthState::Open);
            if all_open {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Rejoins a killed node **warm**: its cache survived (the process
    /// restarted, memory did not), so the Join handshake replays the
    /// cache contents and front-ends route at it with beliefs already
    /// hot. Returns `false` for an out-of-range slot.
    pub fn rejoin_node_warm(&self, i: usize) -> bool {
        self.join_node(i)
    }

    /// Rejoins a killed node **cold**: the machine rebooted, so the
    /// cache is wiped first and the Join handshake carries an empty
    /// journal — front-ends re-learn its contents from feedback as it
    /// refills. Returns `false` for an out-of-range slot.
    pub fn rejoin_node_cold(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        nodes[i].reset_cache();
        self.join_node(i)
    }

    /// Advances every front-end's Open breakers one cooldown tick (the
    /// periodic timer does this automatically unless
    /// [`ProtoConfig::health_tick_interval`] is zero).
    pub fn health_tick(&self) {
        for fe in &self.fes {
            fe.health_tick();
        }
    }

    /// Waits (up to `timeout`) for every client connection's policy state
    /// to unwind and every staged response byte to leave its queue. Load
    /// generators return as soon as the last response arrives, which can
    /// be a beat before the reactor observes the client's EOF and closes
    /// the connection — call this before asserting on post-traffic
    /// accounting.
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        for fe in &self.fes {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if !fe.quiesce(left) {
                return false;
            }
        }
        // Tier clusters additionally wait for every admitted
        // connection's close notification and settle the gossiped
        // views, so post-traffic assertions see converged state.
        if let Some(vip) = &self.vip {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if !vip.quiesce(left) {
                return false;
            }
        }
        // A peer-server connection is not a client connection: the
        // fetching node can splice the last byte of a lateral response
        // to its client before the serving shard, back from `writev`,
        // has retired that response from its staging queue.
        while self.reactor_stats.pending_body_bytes() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    /// Live reactor gauges — registered connection sources, pending
    /// timers and staged body bytes across every shard. The soak test
    /// uses this to prove the slab and timer heap drain to zero once
    /// traffic stops. Always `Some`; the `Option` is kept for the
    /// benchmark, which matches on it.
    pub fn reactor_stats(&self) -> Option<&ReactorStats> {
        Some(&self.reactor_stats)
    }

    /// Whether the reactor accepted via round-robin handoff rather than
    /// `SO_REUSEPORT` listener groups. Diagnostics: lets tests assert
    /// the accept path they meant to exercise is the one that actually
    /// ran.
    pub fn used_accept_handoff(&self) -> bool {
        self.accept_handoff
    }

    /// Per-node statistics snapshot.
    pub fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        self.frontend
            .nodes()
            .iter()
            .map(|n| n.stats.snapshot())
            .collect()
    }

    /// Forces every node to flush its pending cache-feedback report over
    /// the control session *now*, regardless of batch/interval. The
    /// application is still asynchronous (a reactor shard has to drain
    /// the frames) — callers that need the dispatcher's belief settled
    /// poll [`FrontEnd::coherence`] after this. No-op when
    /// [`ProtoConfig::cache_feedback`] is off.
    pub fn flush_feedback(&self) {
        for node in self.frontend.nodes() {
            node.flush_feedback();
        }
    }

    /// Stops the cluster: wakes every shard's poller and waits for each
    /// event loop to drain its registered connections — a blocked
    /// `epoll_wait` cannot observe the stop flag on its own, and open
    /// client connections must unwind their dispatcher state rather
    /// than being abandoned to the kernel — then closes the fallback
    /// acceptors and the control sessions and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.reactor.shutdown();
        // Wake every blocked fallback accept with a throwaway connection.
        for addr in &self.listeners {
            let _ = TcpStream::connect(addr);
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // The peer servers died with the loops: drop the idle lateral
        // streams `NodeState::lateral_fetch` pooled toward them, and the
        // node sides of the control sessions. The stop flag was set
        // first, so no shard read those EOFs as node failures.
        for node in self.frontend.nodes() {
            node.drain_peer_pools();
            node.close_control();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        // The tier last: every serving path has drained, so no more
        // admissions or releases are coming.
        if let Some(vip) = self.vip.take() {
            vip.shutdown();
        }
    }
}

/// A connected loopback control session: the node's transmit side and
/// the front-end's receive side.
fn control_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind control listener");
    let addr = listener.local_addr().expect("control addr");
    let tx = TcpStream::connect(addr).expect("connect control session");
    let (rx, _) = listener.accept().expect("accept control session");
    (tx, rx)
}

/// Runs the Vip admission handshake for a freshly accepted client
/// stream, returning the front-end to serve it on plus the tier ticket
/// to release afterwards. Without a tier — or if every handshake fails
/// — the connection falls through to an untracked front-end: serving
/// beats strict bookkeeping, matching the paper's front-end which also
/// degrades rather than refusing clients.
fn admit_stream(vip: Option<&Vip>, stream: &TcpStream) -> (usize, Option<ConnId>) {
    let Some(vip) = vip else {
        return (0, None);
    };
    match stream.peer_addr() {
        Ok(peer) => match vip.admit(client_key(peer)) {
            Some((f, conn)) => (f, Some(conn)),
            None => (vip.any_alive(), None),
        },
        Err(_) => (vip.any_alive(), None),
    }
}

/// Accept-queue depth for the reuseport groups: shards drain accepts
/// promptly, but soak-scale connect bursts need room to queue.
const REUSEPORT_BACKLOG: u32 = 4096;

/// Binds the front-end listeners: one per loopback alias
/// (127.0.0.(1+i): the whole 127/8 block is local on Linux), falling
/// back to 127.0.0.1 where aliases are unavailable.
fn bind_std_frontends(count: usize) -> Vec<TcpListener> {
    (0..count.max(1))
        .map(|i| {
            let host = format!("127.0.0.{}:0", 1 + i as u8);
            TcpListener::bind(&host)
                .or_else(|_| TcpListener::bind("127.0.0.1:0"))
                .expect("bind front-end listener")
        })
        .collect()
}

/// Binds front-end alias `alias` as an `SO_REUSEPORT` group with
/// `shards` members: the first bind picks the port, the rest join it.
/// Any error means the shim cannot express the group here; the caller
/// falls back to acceptor handoff.
fn bind_reuseport_group(
    alias: usize,
    shards: usize,
) -> std::io::Result<(SocketAddr, Vec<mio::net::TcpListener>)> {
    let host: SocketAddr = format!("127.0.0.{}:0", 1 + alias as u8)
        .parse()
        .expect("loopback alias literal");
    let localhost: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
    let first = mio::net::TcpListener::bind_reuseport(host, REUSEPORT_BACKLOG)
        .or_else(|_| mio::net::TcpListener::bind_reuseport(localhost, REUSEPORT_BACKLOG))?;
    let addr = first.local_addr()?;
    let mut group = vec![first];
    for _ in 1..shards {
        group.push(mio::net::TcpListener::bind_reuseport(
            addr,
            REUSEPORT_BACKLOG,
        )?);
    }
    Ok((addr, group))
}
