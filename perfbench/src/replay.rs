//! The traced run's second half: the same requests, in order, replayed
//! through each layer's public functions on a fresh cluster, one span
//! per call. The replay never builds disk queues (a miss is filled at
//! once), so its routing differs from the live run; ratios such as the
//! hit ratio come from the live socket run instead.

use std::hint::black_box;
use std::time::Instant;

use phttp_core::{Assignment, NodeId};
use phttp_http::{RequestParser, Response, Version};
use phttp_proto::Cluster;
use phttp_trace::TargetId;

use crate::span::{Recorder, Span};
use crate::workload::{PlayConn, Protocol, WarmUp, Workload};

/// Every this many replayed requests, one lateral fetch of the request's
/// target from the node that just served it.
pub const LATERAL_EVERY: u64 = 8;

/// Spans whose time the live server also spends on each request; the
/// reactor's residual is server CPU minus these.
pub const REQUEST_PATH: &[&str] = &[
    "frontend.open",
    "frontend.close",
    "http.parse",
    "frontend.assign",
    "node.hit_serve",
    "node.miss_probe",
    "node.miss_fill",
    "http.head",
];

/// Spans plus the counts the per-unit metrics divide by.
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// Requests replayed after the warm-up (the timed requests).
    pub requests: u64,
    /// Requests through the parser / the dispatcher's batch call.
    pub parsed: u64,
    pub assigned: u64,
    pub miss_fill_bytes: u64,
    pub store_body_bytes: u64,
    /// `REQUEST_PATH` time of the timed requests.
    pub request_path_ns: u64,
}

struct Replayer<'a> {
    cluster: &'a Cluster,
    version: Version,
    rec: Recorder,
    out: Replay,
    served: u64,
    timed: bool,
}

/// Replays the warm-up, then the first `conns` connections of the
/// workload's timed list (wrapping like the live run), stopping after
/// `max_requests` requests.
pub fn replay(
    cluster: &Cluster,
    wl: &Workload,
    conns: usize,
    max_requests: u64,
    epoch: Instant,
) -> Result<Replay, String> {
    let mut r = Replayer {
        cluster,
        version: if wl.protocol == Protocol::Http10 {
            Version::Http10
        } else {
            Version::Http11
        },
        rec: Recorder::new(epoch, 1 << 20),
        out: Replay::default(),
        served: 0,
        timed: false,
    };
    match &wl.warm {
        WarmUp::EveryNode => {
            for node in 0..cluster.frontend().nodes().len() {
                for t in 0..cluster.store().len() as u32 {
                    r.serve(NodeId(node), TargetId(t), 0, 0);
                }
            }
        }
        WarmUp::Prefix(prefix) => {
            for (i, conn) in prefix.iter().enumerate() {
                r.conn(conn, (i as u64) << 16)?;
            }
        }
    }
    r.timed = true;
    for i in 0..conns {
        if r.out.requests >= max_requests {
            break;
        }
        r.conn(
            &wl.conns[i % wl.conns.len()],
            ((i as u64) << 16) | (1 << 62),
        )?;
    }
    r.out.spans = r.rec.spans;
    Ok(r.out)
}

impl Replayer<'_> {
    fn span(&mut self, name: &'static str, t0: Instant, parent: u64, req: u64) -> u64 {
        let end = Instant::now();
        if self.timed && REQUEST_PATH.contains(&name) {
            self.out.request_path_ns += end.saturating_duration_since(t0).as_nanos() as u64;
        }
        self.rec.record(name, t0, end, parent, req)
    }

    /// One connection, as the reactor handles it: the first request is
    /// handed off by `open_connection`, the rest of every batch goes
    /// through one `assign_batch` call.
    fn conn(&mut self, conn: &PlayConn, req_base: u64) -> Result<(), String> {
        let fe = self.cluster.frontend();
        let root = self.rec.reserve();
        let t_conn = Instant::now();
        let t0 = Instant::now();
        let id = fe.alloc_conn();
        let home = fe.open_connection(id, conn.targets[0]);
        self.span("frontend.open", t0, root, req_base);
        let mut parser = RequestParser::new();
        for (b, batch) in conn.batches.iter().enumerate() {
            let req0 = req_base + batch.start as u64;
            let t0 = Instant::now();
            parser.feed(&batch.wire);
            let mut parsed = 0;
            while let Some(req) = parser.next().map_err(|e| format!("replay parse: {e}"))? {
                black_box(req);
                parsed += 1;
            }
            self.span("http.parse", t0, root, req0);
            if parsed != batch.len {
                return Err(format!("replay parsed {parsed} of {} requests", batch.len));
            }
            self.out.parsed += parsed as u64;
            let targets = &conn.targets[batch.start..batch.start + batch.len];
            // The handed-off first request is served where it landed.
            let (handed, rest) = if b == 0 {
                targets.split_at(1)
            } else {
                targets.split_at(0)
            };
            let mut plan: Vec<(TargetId, Assignment)> =
                handed.iter().map(|&t| (t, Assignment::Local)).collect();
            if !rest.is_empty() {
                let t0 = Instant::now();
                let decided = fe.assign_batch(id, rest);
                self.span("frontend.assign", t0, root, req0 + handed.len() as u64);
                self.out.assigned += rest.len() as u64;
                plan.extend(rest.iter().copied().zip(decided));
            }
            for (k, (target, a)) in plan.into_iter().enumerate() {
                let node = match a {
                    Assignment::Local => home,
                    Assignment::Remote(r) => r,
                };
                self.serve(node, target, root, req0 + k as u64);
                if self.timed {
                    self.out.requests += 1;
                }
                self.respond(node, target, root, req0 + k as u64)?;
            }
        }
        let t0 = Instant::now();
        fe.close_connection(id);
        self.span("frontend.close", t0, root, req_base);
        self.rec
            .record_reserved(root, "replay.conn", t_conn, Instant::now(), 0, req_base);
        Ok(())
    }

    /// The node's serve calls: a cache probe, and on a miss the fill a
    /// completed disk read performs.
    fn serve(&mut self, node: NodeId, target: TargetId, parent: u64, req: u64) {
        let n = &self.cluster.frontend().nodes()[node.0];
        let t0 = Instant::now();
        let hit = n.begin_serve_body(target);
        if hit.is_some() {
            self.span("node.hit_serve", t0, parent, req);
            black_box(hit);
            return;
        }
        self.span("node.miss_probe", t0, parent, req);
        let t0 = Instant::now();
        black_box(n.finish_disk_read(target));
        self.span("node.miss_fill", t0, parent, req);
        self.out.miss_fill_bytes += self.cluster.store().size(target);
    }

    /// The response head, the store's body generation, and every
    /// `LATERAL_EVERY`-th request a lateral fetch of the target from the
    /// node that just served it, against its live peer server.
    fn respond(
        &mut self,
        node: NodeId,
        target: TargetId,
        parent: u64,
        req: u64,
    ) -> Result<(), String> {
        let store = self.cluster.store();
        let size = store.size(target);
        let t0 = Instant::now();
        black_box(Response::ok_head(self.version, size as usize));
        self.span("http.head", t0, parent, req);
        let t0 = Instant::now();
        black_box(store.body(target));
        self.span("store.body", t0, parent, req);
        self.out.store_body_bytes += size;
        self.served += 1;
        if self.served.is_multiple_of(LATERAL_EVERY) {
            let nodes = self.cluster.frontend().nodes();
            let from = &nodes[(node.0 + 1) % nodes.len()];
            let t0 = Instant::now();
            let body = from
                .lateral_fetch(node, target)
                .map_err(|e| format!("replay lateral fetch: {e}"))?;
            self.span("node.lateral_fetch", t0, parent, req);
            if !store.verify(target, &body) {
                return Err(format!(
                    "replay lateral fetch of {target:?} returned a wrong body"
                ));
            }
        }
        Ok(())
    }
}
