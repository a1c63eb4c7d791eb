//! The front-end tier: one VIP abstraction routing client connections
//! across [`ProtoConfig::front_ends`](crate::ProtoConfig) independent
//! [`FrontEnd`] instances.
//!
//! The paper's §7 runs a single front-end; its scalability discussion
//! (§5.3, Figure 8) argues the front-end CPU is the first wall a
//! cluster hits. This module grows the prototype past that wall: the
//! [`Vip`] owns connection routing for a *tier* of front-ends that
//! together present one virtual server address set.
//!
//! Three protocols meet here, all carried in the
//! [`control`](crate::control) frame format over real loopback streams:
//!
//! * **Admission** — each new client connection is handed to a
//!   front-end through the `phttp-handoff` machines: the Vip runs the
//!   [`FeHandoff`] side (connection phases + forwarding table), each
//!   front-end endpoint runs a [`BeHandoff`], and the
//!   request/ack/close exchange travels as [`ControlMsg::Handoff`]
//!   frames on a per-front-end admission session. The ack installs a
//!   forwarding-table route; the endpoint's close notification removes
//!   it — so `vip.tracked()` counts exactly the admitted connections
//!   still alive.
//! * **Gossip** — front-ends exchange dispatcher state peer-to-peer:
//!   every gossip tick each front-end publishes a
//!   [`phttp_core::StateDelta`] (its own loads plus the believed
//!   mapping for the targets it *owns*) as [`ControlMsg::StateDelta`]
//!   frames on pairwise loopback sessions. Receivers fold deltas into
//!   a per-front-end [`TierView`] (last-writer-wins per origin — the
//!   merge is commutative and idempotent, so delivery order and
//!   duplication cannot diverge the views) and adopt the diff into
//!   their own dispatcher: mapping upserts via
//!   [`FrontEnd::adopt_merge`], aggregate peer load via
//!   [`FrontEnd::set_remote_loads`]. A non-owner front-end thus
//!   decides from its possibly-stale merged view; the owner is the
//!   authority that republishes.
//! * **Ownership** — a consistent-hash [`Ring`] partitions targets
//!   across the tier. Each front-end gossips mapping state only for
//!   its share, so authority is disjoint; killing a front-end
//!   re-owns its share onto the survivors with bounded movement
//!   (see `crates/core/tests/tier_props.rs`).
//!
//! A tier of one is never constructed — `Cluster::start` only builds a
//! [`Vip`] when `front_ends > 1`, so the single-front-end fast path is
//! byte-for-byte the pre-tier prototype.

use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{LockClass, Mutex, RwLock};
use phttp_core::{ConnId, FeId, NodeId, Ring, TierView};
use phttp_handoff::machine::{Action, BeHandoff, FeHandoff};
use phttp_handoff::messages::{CtrlMsg, TcpHandoffState};
use phttp_handoff::ClientKey;
use phttp_trace::TargetId;

use crate::control::{encode, ControlMsg, FrameDecoder};
use crate::frontend::FrontEnd;

/// Default spacing between gossip rounds
/// ([`ProtoConfig::gossip_interval`](crate::ProtoConfig)).
pub const DEFAULT_GOSSIP_INTERVAL: Duration = Duration::from_millis(2);

/// How long an admission handshake may wait for its ack. Loopback
/// round-trips are microseconds; hitting this means the endpoint died.
const ADMIT_TIMEOUT: Duration = Duration::from_secs(2);

/// Derives the handoff-machine client key from a client's socket
/// address (the 4-tuple key the paper's kernel module hashes on).
pub fn client_key(addr: SocketAddr) -> ClientKey {
    let ip = match addr.ip() {
        IpAddr::V4(v4) => u32::from_be_bytes(v4.octets()),
        // The prototype only speaks loopback IPv4; fold v6 into a
        // stable surrogate just in case.
        IpAddr::V6(v6) => v6
            .octets()
            .iter()
            .fold(0u32, |a, &b| a.rotate_left(8) ^ b as u32),
    };
    ClientKey {
        ip,
        port: addr.port(),
    }
}

/// The Vip side of one front-end's admission session.
struct AdmitSession {
    /// Serializes handshakes to this front-end: acks return in FIFO
    /// order, so one in-flight handshake per session keeps matching
    /// trivial.
    admit_lock: Mutex<()>,
    /// Write half (handoff requests).
    write: Mutex<TcpStream>,
    /// Acks surfaced by this session's reader thread.
    ack_rx: crossbeam::channel::Receiver<CtrlMsg>,
}

/// The front-end endpoint of an admission session: its [`BeHandoff`]
/// plus the write half acks and close notifications go out on.
struct Endpoint {
    be: Mutex<(BeHandoff, TcpStream)>,
}

/// One front-end's tier-local state: merged peer view, gossip
/// sequence, and publish serialization.
struct FeTier {
    view: Mutex<TierView>,
    seq: AtomicU64,
    /// Held across (seq bump, snapshot, deliver) so two concurrent
    /// publishes for one origin cannot emit reordered payloads under
    /// ordered sequence numbers.
    publish: Mutex<()>,
    /// Connections admitted to this front-end (lifetime counter).
    admitted: AtomicU64,
}

/// The VIP router over a tier of front-ends.
pub struct Vip {
    fes: Vec<Arc<FrontEnd>>,
    alive: Vec<AtomicBool>,
    ring: RwLock<Ring>,
    /// The Vip-side handoff machine, shared across sessions: phases
    /// per admitted connection plus the forwarding table.
    machine: Mutex<FeHandoff>,
    sessions: Vec<AdmitSession>,
    endpoints: Vec<Arc<Endpoint>>,
    tiers: Vec<FeTier>,
    /// Gossip write halves: `gossip_tx[f][g]` carries `f`'s deltas to
    /// `g` (`None` on the diagonal).
    gossip_tx: Vec<Vec<Option<Mutex<TcpStream>>>>,
    next_conn: AtomicU64,
    rr: AtomicUsize,
    handoffs: AtomicU64,
    fe_kills: AtomicU64,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Every stream with a blocked reader thread, for shutdown.
    shutdown_streams: Mutex<Vec<TcpStream>>,
}

impl Vip {
    /// Builds the tier plumbing over `fes` and starts its service
    /// threads: one admission endpoint and one ack reader per
    /// front-end, one gossip reader per directed pair, and the gossip
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics if `fes.len() < 2` (a tier of one is the plain
    /// single-front-end cluster and must not pay any of this) or if
    /// loopback sockets cannot be bound.
    pub fn start(fes: Vec<Arc<FrontEnd>>, gossip_interval: Duration) -> Arc<Vip> {
        let m = fes.len();
        assert!(m >= 2, "a front-end tier needs at least two front-ends");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind tier listener");
        let addr = listener.local_addr().expect("tier listener addr");
        let pair = || -> (TcpStream, TcpStream) {
            let a = TcpStream::connect(addr).expect("connect tier session");
            let (b, _) = listener.accept().expect("accept tier session");
            a.set_nodelay(true).ok();
            b.set_nodelay(true).ok();
            (a, b)
        };

        let mut shutdown_streams = Vec::new();
        // Admission sessions: (vip side, endpoint side) per front-end.
        let mut sessions = Vec::with_capacity(m);
        let mut endpoints = Vec::with_capacity(m);
        let mut session_readers = Vec::new(); // (fe, read half, ack_tx)
        let mut endpoint_readers = Vec::new(); // (fe, read half)
        for f in 0..m {
            let (vip_side, fe_side) = pair();
            let (ack_tx, ack_rx) = crossbeam::channel::unbounded();
            shutdown_streams.push(vip_side.try_clone().expect("clone tier stream"));
            shutdown_streams.push(fe_side.try_clone().expect("clone tier stream"));
            session_readers.push((f, vip_side.try_clone().expect("clone tier stream"), ack_tx));
            endpoint_readers.push((f, fe_side.try_clone().expect("clone tier stream")));
            sessions.push(AdmitSession {
                admit_lock: Mutex::new_classed(LockClass::admit_session(f as u32), ()),
                write: Mutex::new_classed(LockClass::session_write(f as u32), vip_side),
                ack_rx,
            });
            endpoints.push(Arc::new(Endpoint {
                be: Mutex::new_classed(
                    LockClass::be_endpoint(f as u32),
                    (BeHandoff::new(NodeId(f), 0), fe_side),
                ),
            }));
        }

        // Gossip mesh: one duplex loopback session per unordered pair.
        let mut gossip_tx: Vec<Vec<Option<Mutex<TcpStream>>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        let mut gossip_readers = Vec::new(); // (receiving fe, read half)
        #[allow(clippy::needless_range_loop)] // f/g index two mirrored cells
        for f in 0..m {
            for g in (f + 1)..m {
                let (end_f, end_g) = pair();
                shutdown_streams.push(end_f.try_clone().expect("clone tier stream"));
                shutdown_streams.push(end_g.try_clone().expect("clone tier stream"));
                // Bytes written on `end_f` arrive on `end_g`: `g` reads
                // `f`'s deltas there, and symmetrically.
                gossip_readers.push((g, end_g.try_clone().expect("clone tier stream")));
                gossip_readers.push((f, end_f.try_clone().expect("clone tier stream")));
                // Classed by receiving peer; the publish loop takes tx
                // locks one at a time, so no two GossipTx instances are
                // ever held together.
                gossip_tx[f][g] = Some(Mutex::new_classed(LockClass::gossip_tx(g as u32), end_f));
                gossip_tx[g][f] = Some(Mutex::new_classed(LockClass::gossip_tx(f as u32), end_g));
            }
        }

        let num_nodes = fes[0].nodes().len();
        let vip = Arc::new(Vip {
            alive: (0..m).map(|_| AtomicBool::new(true)).collect(),
            ring: RwLock::new_classed(LockClass::ring(), Ring::new(m)),
            machine: Mutex::new_classed(LockClass::vip_machine(), FeHandoff::new()),
            sessions,
            endpoints,
            tiers: (0..m)
                .map(|f| FeTier {
                    view: Mutex::new_classed(
                        LockClass::tier_view(f as u32),
                        TierView::new(FeId(f), num_nodes),
                    ),
                    seq: AtomicU64::new(0),
                    publish: Mutex::new_classed(LockClass::gossip_publish(f as u32), ()),
                    admitted: AtomicU64::new(0),
                })
                .collect(),
            gossip_tx,
            next_conn: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            handoffs: AtomicU64::new(0),
            fe_kills: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new_classed(LockClass::other("vip-threads"), Vec::new()),
            shutdown_streams: Mutex::new_classed(
                LockClass::other("vip-shutdown-streams"),
                shutdown_streams,
            ),
            fes,
        });

        let mut threads = Vec::new();
        for (f, stream, ack_tx) in session_readers {
            let vip = vip.clone();
            threads.push(spawn_named(format!("phttp-vip-ack-{f}"), move || {
                vip.run_session_reader(f, stream, ack_tx);
            }));
        }
        for (f, stream) in endpoint_readers {
            let vip = vip.clone();
            threads.push(spawn_named(format!("phttp-vip-ep-{f}"), move || {
                vip.run_endpoint(f, stream);
            }));
        }
        for (f, stream) in gossip_readers {
            let vip = vip.clone();
            threads.push(spawn_named(format!("phttp-vip-gossip-{f}"), move || {
                vip.run_gossip_reader(f, stream);
            }));
        }
        {
            let vip = vip.clone();
            threads.push(spawn_named("phttp-vip-driver".into(), move || {
                vip.run_driver(gossip_interval);
            }));
        }
        *vip.threads.lock() = threads;
        vip
    }

    /// Number of front-ends in the tier (killed ones included).
    pub fn front_ends(&self) -> usize {
        self.fes.len()
    }

    /// The tier's front-end instances.
    pub fn fes(&self) -> &[Arc<FrontEnd>] {
        &self.fes
    }

    /// Successful admission handshakes so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(Ordering::Relaxed)
    }

    /// Connections admitted to front-end `f` so far.
    pub fn admitted(&self, f: usize) -> u64 {
        self.tiers[f].admitted.load(Ordering::Relaxed)
    }

    /// Front-ends killed via [`kill_frontend`](Self::kill_frontend).
    pub fn fe_kills(&self) -> u64 {
        self.fe_kills.load(Ordering::Relaxed)
    }

    /// Whether front-end `f` still takes new connections.
    pub fn is_alive(&self, f: usize) -> bool {
        self.alive[f].load(Ordering::Relaxed)
    }

    /// The front-end currently owning `target`'s mapping authority.
    pub fn ring_owner(&self, target: TargetId) -> FeId {
        self.ring.read().owner(target)
    }

    /// Admitted connections the Vip still tracks (drops to zero once
    /// every connection's close notification has been processed).
    pub fn tracked(&self) -> usize {
        self.machine.lock().len()
    }

    /// Gossip rounds published by front-end `f`.
    pub fn gossip_seq(&self, f: usize) -> u64 {
        self.tiers[f].seq.load(Ordering::Relaxed)
    }

    /// Routes a new client connection: picks a live front-end round
    /// robin and runs the handoff-request/ack exchange on its
    /// admission session. Returns the chosen front-end index plus the
    /// tier-level connection id (release it with
    /// [`release`](Self::release) when the connection ends), or `None`
    /// if no front-end admitted the connection.
    pub fn admit(&self, client: ClientKey) -> Option<(usize, ConnId)> {
        let m = self.fes.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for off in 0..m {
            let f = (start + off) % m;
            if !self.alive[f].load(Ordering::Relaxed) {
                continue;
            }
            if let Some(conn) = self.admit_to(f, client) {
                self.handoffs.fetch_add(1, Ordering::Relaxed);
                self.tiers[f].admitted.fetch_add(1, Ordering::Relaxed);
                return Some((f, conn));
            }
        }
        None
    }

    /// Any live front-end (fallback when a handshake fails: the
    /// connection is still served, just untracked by the tier).
    pub fn any_alive(&self) -> usize {
        (0..self.fes.len())
            .find(|&f| self.alive[f].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// One admission handshake against front-end `f`.
    fn admit_to(&self, f: usize, client: ClientKey) -> Option<ConnId> {
        let conn = ConnId(self.next_conn.fetch_add(1, Ordering::Relaxed));
        let tcp = TcpHandoffState {
            client_ip: client.ip,
            client_port: client.port,
            local_port: 80,
            snd_nxt: 0,
            rcv_nxt: 0,
            snd_wnd: 65535,
            mss: 1460,
        };
        let session = &self.sessions[f];
        let guard = session.admit_lock.lock();
        let actions = self
            .machine
            .lock()
            .start_handoff(conn, client, NodeId(f), tcp, Vec::new());
        for action in actions {
            if let Action::SendCtrl { msg, .. } = action {
                if write_frame(&mut session.write.lock(), &ControlMsg::Handoff(msg)).is_err() {
                    drop(guard);
                    self.abandon_admit(f, conn);
                    return None;
                }
            }
        }
        let deadline = Instant::now() + ADMIT_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(ack) = session.ack_rx.recv_timeout(left) else {
                drop(guard);
                self.abandon_admit(f, conn);
                return None;
            };
            let acked = match &ack {
                CtrlMsg::HandoffAck { conn, .. } => *conn,
                _ => continue,
            };
            let Ok(acts) = self.machine.lock().on_ctrl(NodeId(f), ack) else {
                continue; // stale ack for an already-abandoned handshake
            };
            if acked != conn {
                continue;
            }
            let refused = acts
                .iter()
                .any(|a| matches!(a, Action::ConnectionClosed { .. }));
            if refused {
                return None;
            }
            // Re-check liveness *after* the ack: `kill_frontend` may
            // have decommissioned `f` between the round-robin pick and
            // the ack arriving, and the route just installed would
            // then track a front-end the tier no longer admits to.
            // Unwind it (close in the machine, release on the
            // endpoint) and report failure so `admit` retries the
            // handshake on a surviving front-end.
            if !self.alive[f].load(Ordering::SeqCst) {
                drop(guard);
                self.abandon_admit(f, conn);
                return None;
            }
            return Some(conn);
        }
    }

    /// Unwinds the machine state of a handshake that never completed.
    fn abandon_admit(&self, f: usize, conn: ConnId) {
        let _ = self
            .machine
            .lock()
            .on_ctrl(NodeId(f), CtrlMsg::ConnClosed { conn });
        let mut be = self.endpoints[f].be.lock();
        be.0.release(conn, false);
    }

    /// The connection admitted to `f` as `conn` has ended: the
    /// endpoint releases it and sends the close notification back to
    /// the Vip machine (removing the forwarding-table route).
    pub fn release(&self, f: usize, conn: ConnId) {
        let mut be = self.endpoints[f].be.lock();
        if let Some(close) = be.0.release(conn, true) {
            // A write failure here means the tier is shutting down; the
            // machine is then torn down wholesale, not per-connection.
            let _ = write_frame(&mut be.1, &ControlMsg::Handoff(close));
        }
    }

    /// Takes front-end `f` out of the tier: new connections stop
    /// routing to it, its ring share is re-owned by the survivors, and
    /// its gossiped state (load bias, origin authority) is dropped
    /// from every survivor's view. In-flight connections keep draining
    /// on `f`'s still-running instance — a control-plane
    /// decommission, not a process kill — so no admitted request is
    /// lost. A handshake whose ack races this decommission is unwound
    /// by `admit_to`'s post-ack liveness re-check
    /// and retried on a survivor, so the forwarding table never leaks
    /// a route to `f`. Returns `false` if `f` was already dead or is
    /// the last live front-end.
    pub fn kill_frontend(&self, f: usize) -> bool {
        let live = (0..self.fes.len())
            .filter(|&g| self.alive[g].load(Ordering::Relaxed))
            .count();
        if live <= 1 || !self.alive[f].swap(false, Ordering::SeqCst) {
            return false;
        }
        self.fe_kills.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.ring.write();
            if ring.contains(FeId(f)) && ring.len() > 1 {
                ring.remove_fe(FeId(f));
            }
        }
        for g in 0..self.fes.len() {
            if g == f || !self.alive[g].load(Ordering::Relaxed) {
                continue;
            }
            // Drop the dead origin's authority and load bias. Its
            // already-adopted mapping beliefs stay: the caches they
            // describe did not die with the front-end, and the
            // survivors now republish for the re-owned share.
            let loads = {
                let mut view = self.tiers[g].view.lock();
                view.drop_origin(FeId(f));
                view.remote_load_fixed()
            };
            self.fes[g].set_remote_loads(&loads);
        }
        true
    }

    /// Publishes front-end `f`'s current state delta to every live
    /// peer over the gossip sessions.
    fn publish(&self, f: usize) {
        let Some(frame) = self.make_delta_frame(f) else {
            return;
        };
        for g in 0..self.fes.len() {
            if g == f || !self.alive[g].load(Ordering::Relaxed) {
                continue;
            }
            if let Some(tx) = &self.gossip_tx[f][g] {
                let _ = tx.lock().write_all(&frame);
            }
        }
    }

    /// Builds `f`'s next encoded [`ControlMsg::StateDelta`] frame
    /// (`None` once `f` is dead — a killed origin must stop
    /// publishing, or survivors would resurrect its authority).
    fn make_delta_frame(&self, f: usize) -> Option<Vec<u8>> {
        if !self.alive[f].load(Ordering::Relaxed) {
            return None;
        }
        let _g = self.tiers[f].publish.lock();
        let seq = self.tiers[f].seq.fetch_add(1, Ordering::Relaxed) + 1;
        let delta = {
            let ring = self.ring.read();
            self.fes[f].snapshot().delta_for(FeId(f), seq, &ring)
        };
        Some(encode(&ControlMsg::StateDelta(delta)))
    }

    /// Folds a received delta into front-end `f`'s view and adopts
    /// the diff into its dispatcher.
    fn apply_delta(&self, f: usize, delta: &phttp_core::StateDelta) {
        let (outcome, loads) = {
            let mut view = self.tiers[f].view.lock();
            let outcome = view.merge(delta);
            (outcome, view.remote_load_fixed())
        };
        if outcome.applied {
            self.fes[f].adopt_merge(&outcome);
            self.fes[f].set_remote_loads(&loads);
        }
    }

    /// One synchronous gossip exchange, bypassing the wire: every live
    /// front-end's current delta is merged into every other live view
    /// *now*. `Cluster::quiesce` runs this after traffic drains so
    /// remote load biases settle to their true (zero) values before
    /// callers assert on load conservation; the wire path converges to
    /// the same state, just asynchronously.
    pub fn sync_now(&self) {
        let m = self.fes.len();
        for f in 0..m {
            let Some(frame) = self.make_delta_frame(f) else {
                continue;
            };
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            let Ok(Some(ControlMsg::StateDelta(delta))) = dec.next() else {
                unreachable!("just encoded a state delta");
            };
            for g in 0..m {
                if g != f && self.alive[g].load(Ordering::Relaxed) {
                    self.apply_delta(g, &delta);
                }
            }
        }
    }

    /// Waits until every admitted connection's close notification has
    /// been processed (the tier-level half of `Cluster::quiesce`),
    /// then settles the views with [`sync_now`](Self::sync_now).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.tracked() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.sync_now();
        true
    }

    /// Stops the service threads and closes every tier session. Call
    /// after the serving paths have drained (releases after shutdown
    /// are tolerated but no longer notify).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in self.shutdown_streams.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }

    // ---- service threads -------------------------------------------------

    /// Vip-side reader of front-end `f`'s admission session: acks go
    /// to the waiting handshake, close notifications feed the shared
    /// machine directly.
    fn run_session_reader(
        &self,
        f: usize,
        stream: TcpStream,
        ack_tx: crossbeam::channel::Sender<CtrlMsg>,
    ) {
        self.read_frames(stream, |vip, msg| {
            let ControlMsg::Handoff(msg) = msg else {
                return;
            };
            match msg {
                CtrlMsg::HandoffAck { .. } => {
                    let _ = ack_tx.send(msg);
                }
                CtrlMsg::ConnClosed { .. } => {
                    // Unknown conns are fine: the handshake may have
                    // been abandoned or the close raced a kill.
                    let _ = vip.machine.lock().on_ctrl(NodeId(f), msg);
                }
                _ => {}
            }
        });
    }

    /// Front-end `f`'s admission endpoint: feeds handoff requests into
    /// its [`BeHandoff`] and writes the acks back.
    fn run_endpoint(&self, f: usize, stream: TcpStream) {
        self.read_frames(stream, |vip, msg| {
            let ControlMsg::Handoff(msg) = msg else {
                return;
            };
            let mut be = vip.endpoints[f].be.lock();
            if let Some(reply) = be.0.on_ctrl(msg) {
                let _ = write_frame(&mut be.1, &ControlMsg::Handoff(reply));
            }
        });
    }

    /// Reader of one gossip session end owned by front-end `f`:
    /// merges every arriving peer delta into `f`'s view.
    fn run_gossip_reader(&self, f: usize, stream: TcpStream) {
        self.read_frames(stream, |vip, msg| {
            if let ControlMsg::StateDelta(delta) = msg {
                vip.apply_delta(f, &delta);
            }
        });
    }

    /// The gossip driver: publishes every live front-end's delta each
    /// interval.
    fn run_driver(&self, interval: Duration) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(interval);
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            for f in 0..self.fes.len() {
                self.publish(f);
            }
        }
    }

    /// Shared frame-decoding read loop: runs `apply` on every decoded
    /// message until EOF, a framing error, or shutdown.
    fn read_frames(&self, mut stream: TcpStream, mut apply: impl FnMut(&Vip, ControlMsg)) {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 8 * 1024];
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            decoder.feed(&buf[..n]);
            loop {
                match decoder.next() {
                    Ok(Some(msg)) => apply(self, msg),
                    Ok(None) => break,
                    Err(_) => return, // poisoned tier session
                }
            }
        }
    }
}

fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn tier thread")
}

/// Writes one encoded control frame.
fn write_frame(stream: &mut TcpStream, msg: &ControlMsg) -> std::io::Result<()> {
    stream.write_all(&encode(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DiskEmu;
    use crate::node::NodeState;
    use crate::store::ContentStore;
    use phttp_core::{LardParams, Mechanism, PolicyKind};

    fn tier(m: usize, nodes: usize) -> (Arc<Vip>, Vec<Arc<FrontEnd>>) {
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 32]));
        let node_states: Vec<Arc<NodeState>> = (0..nodes)
            .map(|i| {
                Arc::new(NodeState::new(
                    NodeId(i),
                    1 << 20,
                    DiskEmu::default(),
                    store.clone(),
                    Vec::new(),
                ))
            })
            .collect();
        let fes: Vec<Arc<FrontEnd>> = (0..m)
            .map(|_| {
                Arc::new(
                    FrontEnd::new(
                        PolicyKind::ExtLard,
                        Mechanism::BackendForwarding,
                        LardParams::default(),
                        node_states.clone(),
                    )
                    .expect("supported mechanism"),
                )
            })
            .collect();
        (Vip::start(fes.clone(), Duration::from_millis(1)), fes)
    }

    fn key(port: u16) -> ClientKey {
        ClientKey {
            ip: 0x7F00_0001,
            port,
        }
    }

    #[test]
    fn admission_round_robins_and_close_unwinds() {
        let (vip, _fes) = tier(2, 2);
        let mut admitted = Vec::new();
        for p in 0..6 {
            let (f, conn) = vip.admit(key(40_000 + p)).expect("admit");
            admitted.push((f, conn));
        }
        assert_eq!(vip.handoffs(), 6);
        assert_eq!(vip.tracked(), 6);
        assert_eq!(vip.admitted(0), 3);
        assert_eq!(vip.admitted(1), 3);
        for (f, conn) in admitted {
            vip.release(f, conn);
        }
        assert!(vip.quiesce(Duration::from_secs(2)), "closes must drain");
        vip.shutdown();
    }

    #[test]
    fn gossip_biases_peer_loads_and_settles_to_zero() {
        let (vip, fes) = tier(2, 3);
        // Load up front-end 0 only.
        let c = fes[0].alloc_conn();
        fes[0].open_connection(c, TargetId(1));
        vip.sync_now();
        // Front-end 1 must now see 0's load as a remote bias.
        let biased: f64 = fes[1].loads().iter().sum();
        assert!(
            biased > 0.0,
            "peer load must bias the non-owner's view, got {biased}"
        );
        // The mapping authority travelled too: whichever front-end owns
        // target 1 on the ring, front-end 1 now believes the mapping
        // front-end 0 installed (if 0 owns it).
        fes[0].close_connection(c);
        vip.sync_now();
        let settled: f64 = fes[1].loads().iter().sum();
        assert!(
            settled.abs() < 1e-9,
            "after close + sync the bias must settle to zero, got {settled}"
        );
        vip.shutdown();
    }

    #[test]
    fn wire_gossip_converges_without_sync_now() {
        let (vip, fes) = tier(2, 2);
        let c = fes[0].alloc_conn();
        fes[0].open_connection(c, TargetId(0));
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if fes[1].loads().iter().sum::<f64>() > 0.0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "wire gossip never delivered the load bias"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fes[0].close_connection(c);
        vip.shutdown();
    }

    #[test]
    fn kill_reowns_partition_and_stops_admission() {
        let (vip, fes) = tier(3, 2);
        // Give front-end 1 some gossiped authority first.
        let c = fes[1].alloc_conn();
        fes[1].open_connection(c, TargetId(5));
        vip.sync_now();
        assert!(vip.kill_frontend(1));
        assert!(!vip.is_alive(1));
        assert!(!vip.kill_frontend(1), "double kill is a no-op");
        // Its entire share is re-owned by survivors.
        for t in 0..512 {
            let owner = vip.ring_owner(TargetId(t));
            assert_ne!(owner, FeId(1), "target {t} still owned by the dead FE");
        }
        // New admissions only land on survivors.
        for p in 0..9 {
            let (f, conn) = vip.admit(key(41_000 + p)).expect("admit");
            assert_ne!(f, 1);
            vip.release(f, conn);
        }
        // Survivors no longer carry the dead origin's load bias.
        vip.sync_now();
        for g in [0usize, 2] {
            assert!(
                fes[g].loads().iter().sum::<f64>().abs() < 1e-9
                    || fes[g].loads().iter().sum::<f64>() >= 0.0
            );
        }
        // In-flight state on the dead FE still drains normally.
        fes[1].close_connection(c);
        assert_eq!(fes[1].active_connections(), 0);
        // Cannot kill down to zero.
        assert!(vip.kill_frontend(0));
        assert!(!vip.kill_frontend(2), "last front-end must survive");
        vip.shutdown();
    }

    /// Regression for the `kill_frontend` vs in-flight admission race:
    /// a handshake whose ack lands after the decommission must be
    /// unwound and retried, never left as a tracked route pointing at
    /// the dead front-end. An admission storm races two kills; once
    /// the storm stops and every admitted connection is released, the
    /// forwarding table must drain to zero.
    #[test]
    fn concurrent_kill_never_leaks_tracked_routes() {
        let (vip, _fes) = tier(3, 2);
        let stop = Arc::new(AtomicBool::new(false));
        let mut admitters = Vec::new();
        for w in 0..4u16 {
            let vip = vip.clone();
            let stop = stop.clone();
            admitters.push(std::thread::spawn(move || {
                let mut port = 42_000 + w * 4_000;
                while !stop.load(Ordering::Relaxed) {
                    port = port.wrapping_add(1).max(1024);
                    if let Some((f, conn)) = vip.admit(key(port)) {
                        vip.release(f, conn);
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(vip.kill_frontend(1));
        std::thread::sleep(Duration::from_millis(20));
        assert!(vip.kill_frontend(0));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        for w in admitters {
            w.join().expect("admission worker");
        }
        let drained = vip.quiesce(Duration::from_secs(5));
        assert!(
            drained,
            "tracked routes must drain to zero after concurrent kills; \
             still tracking {}",
            vip.tracked()
        );
        // Fresh admissions land only on the lone survivor.
        for p in 0..4 {
            let (f, conn) = vip.admit(key(61_000 + p)).expect("survivor admits");
            assert_eq!(f, 2, "admission landed on a decommissioned front-end");
            vip.release(f, conn);
        }
        assert!(vip.quiesce(Duration::from_secs(2)));
        vip.shutdown();
    }
}
