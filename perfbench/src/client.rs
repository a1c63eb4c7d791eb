//! The benchmark's closed-loop client.
//!
//! At most `clients` threads, each holding at most one connection at a
//! time, claim the workload's connections in order from a shared cursor.
//! A P-HTTP client writes a whole batch, then waits for all its
//! responses before sending the next batch (the paper's client model);
//! an HTTP/1.0 client opens one connection per request and reads until
//! the server closes it. Every response is verified, and every
//! request's latency is recorded: for P-HTTP from the write of its batch
//! to the last byte of its own response, for HTTP/1.0 from the start of
//! `connect` to the last byte. In a traced drive, a batch's transfer
//! span runs from its first response byte to the moment its last
//! response is parsed, so a batch that arrives in one read still shows
//! the time to take it in.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use phttp_http::{Response, ResponseParser};
use phttp_proto::{ContentStore, NodeState};
use phttp_trace::TargetId;

use crate::cpu::{self, HostTicks, TaskCpu};
use crate::span::{Recorder, Span};
use crate::workload::{PlayConn, Protocol};

/// Socket read timeout: a response this late counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Connect attempts before a connection counts as failed.
const CONNECT_ATTEMPTS: u32 = 8;

/// Checks a response against the content store: status 200, the
/// target's length and its bytes.
#[derive(Debug, Clone)]
pub struct Verifier {
    store: Arc<ContentStore>,
    /// A target whose expected body is deliberately corrupted, so the
    /// self-test can prove that a wrong body is caught.
    corrupt: Option<TargetId>,
}

impl Verifier {
    pub fn new(store: Arc<ContentStore>) -> Verifier {
        Verifier {
            store,
            corrupt: None,
        }
    }

    /// A verifier whose expected body for `target` has one byte flipped.
    pub fn with_corrupted(store: Arc<ContentStore>, target: TargetId) -> Verifier {
        Verifier {
            store,
            corrupt: Some(target),
        }
    }

    pub fn check(&self, target: TargetId, resp: &Response) -> bool {
        if resp.status != 200 || resp.body.len() as u64 != self.store.size(target) {
            return false;
        }
        if self.corrupt == Some(target) {
            let mut expected = self.store.body(target).to_vec();
            if let Some(b) = expected.first_mut() {
                *b ^= 0xff;
            }
            return resp.body[..] == expected[..];
        }
        self.store.verify(target, &resp.body)
    }
}

/// When a drive stops claiming connections.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop claiming once this much time has passed since the start.
    pub duration: Option<Duration>,
    /// Stop claiming after this many connections.
    pub max_conns: usize,
}

/// What to play, against whom.
pub struct DriveSpec<'a> {
    pub addrs: &'a [SocketAddr],
    pub conns: &'a [PlayConn],
    pub protocol: Protocol,
    pub clients: usize,
    pub budget: Budget,
    pub verifier: &'a Verifier,
    /// When set, record client spans and sample these nodes' disk
    /// queues at every batch boundary.
    pub traced: Option<&'a [Arc<NodeState>]>,
    /// Time origin of the spans.
    pub epoch: Instant,
    /// Threads whose CPU is not the server's (besides the client
    /// threads and the caller), such as other clusters' threads.
    pub foreign: &'a [u32],
}

/// The outcome of one drive.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub elapsed: Duration,
    /// Connections played.
    pub conns: u64,
    /// Requests the played connections hold.
    pub attempted: u64,
    /// Responses that arrived and verified.
    pub ok: u64,
    /// Transport errors, short responses and verification failures.
    pub failed: u64,
    /// Per-request latency, ascending.
    pub latencies_ns: Vec<u64>,
    /// CPU of every thread but the client threads, the caller and the
    /// foreign threads.
    pub server_cpu_ns: u64,
    /// CPU of the client threads themselves.
    pub client_cpu_ns: u64,
    /// Connect attempts that failed and were retried.
    pub connect_retries: u64,
    pub spans: Vec<Span>,
    /// Sum and count of the per-node mean disk-queue samples.
    pub disk_queue: (f64, u64),
    /// The machine's CPU ticks over the drive, to show how much of it
    /// the hypervisor gave to other guests.
    pub host: HostTicks,
}

/// Plays connections until the budget runs out; returns once every
/// client thread has finished its last connection.
pub fn drive(spec: &DriveSpec) -> LoadResult {
    assert!(
        !spec.conns.is_empty() && !spec.addrs.is_empty(),
        "nothing to play"
    );
    let clients = spec.clients.max(1);
    let cursor = AtomicUsize::new(0);
    let registered = Barrier::new(clients + 1);
    let go = Barrier::new(clients + 1);
    let tids = Mutex::new(Vec::new());
    let start = OnceLock::<Instant>::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let (cursor, registered, go, tids, start) =
                    (&cursor, &registered, &go, &tids, &start);
                scope.spawn(move || {
                    tids.lock()
                        .expect("tid list lock")
                        .push(cpu::this_thread_tid());
                    registered.wait();
                    go.wait();
                    let start = *start.get().expect("start is set before go");
                    let deadline = spec.budget.duration.map(|d| start + d);
                    let cpu0 = cpu::this_thread_ns();
                    let mut client = Client::new(spec, idx);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.budget.max_conns
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            break;
                        }
                        client.play(i);
                    }
                    let mut out = client.finish();
                    out.client_cpu_ns = cpu::this_thread_ns() - cpu0;
                    out
                })
            })
            .collect();
        registered.wait();
        let mut exclude = tids.lock().expect("tid list lock").clone();
        exclude.push(cpu::this_thread_tid());
        exclude.extend_from_slice(spec.foreign);
        let before = TaskCpu::sample(&exclude);
        let host0 = HostTicks::sample();
        let t0 = Instant::now();
        start.set(t0).expect("start is set once");
        go.wait();
        let outs: Vec<LoadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let elapsed = t0.elapsed();
        let after = TaskCpu::sample(&exclude);
        let mut total = LoadResult {
            elapsed,
            server_cpu_ns: before.delta_ns(&after),
            host: host0.until(&HostTicks::sample()),
            ..LoadResult::default()
        };
        for o in outs {
            total.conns += o.conns;
            total.attempted += o.attempted;
            total.ok += o.ok;
            total.failed += o.failed;
            total.client_cpu_ns += o.client_cpu_ns;
            total.connect_retries += o.connect_retries;
            total.latencies_ns.extend(o.latencies_ns);
            total.spans.extend(o.spans);
            total.disk_queue.0 += o.disk_queue.0;
            total.disk_queue.1 += o.disk_queue.1;
        }
        total.latencies_ns.sort_unstable();
        total
    })
}

/// One client thread's state.
struct Client<'a> {
    spec: &'a DriveSpec<'a>,
    rec: Option<Recorder>,
    buf: Vec<u8>,
    out: LoadResult,
}

/// Request id: the connection's claim index and the request's position.
fn req_id(conn: usize, pos: usize) -> u64 {
    ((conn as u64) << 16) | pos as u64
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl<'a> Client<'a> {
    fn new(spec: &'a DriveSpec<'a>, idx: usize) -> Client<'a> {
        Client {
            spec,
            rec: spec.traced.map(|_| Recorder::new(spec.epoch, idx as u64)),
            buf: vec![0; 16 * 1024],
            out: LoadResult::default(),
        }
    }

    fn finish(mut self) -> LoadResult {
        if let Some(rec) = self.rec.take() {
            self.out.spans = rec.spans;
        }
        self.out
    }

    /// Plays claimed connection `i`; requests not settled when an error
    /// cuts the connection short count as failed.
    fn play(&mut self, i: usize) {
        let conn = &self.spec.conns[i % self.spec.conns.len()];
        let addr = self.spec.addrs[i % self.spec.addrs.len()];
        self.out.conns += 1;
        self.out.attempted += conn.len() as u64;
        let mut settled = 0;
        let res = match self.spec.protocol {
            Protocol::PHttp => self.play_phttp(i, conn, addr, &mut settled),
            Protocol::Http10 => self.play_http10(i, conn, addr, &mut settled),
        };
        if res.is_err() {
            self.out.failed += (conn.len() - settled) as u64;
        }
    }

    fn settle(&mut self, ok: bool, latency: Duration) {
        if ok {
            self.out.ok += 1;
            self.out.latencies_ns.push(latency.as_nanos() as u64);
        } else {
            self.out.failed += 1;
        }
    }

    fn connect(&mut self, addr: SocketAddr) -> std::io::Result<TcpStream> {
        let mut delay = Duration::from_millis(1);
        let mut attempt = 1;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(READ_TIMEOUT))?;
                    return Ok(s);
                }
                Err(e) if attempt >= CONNECT_ATTEMPTS => return Err(e),
                Err(_) => {
                    self.out.connect_retries += 1;
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(100));
                }
            }
        }
    }

    fn sample_disk_queues(&mut self) {
        if let Some(nodes) = self.spec.traced {
            let depth: usize = nodes.iter().map(|n| n.disk_queue_len()).sum();
            self.out.disk_queue.0 += depth as f64 / nodes.len() as f64;
            self.out.disk_queue.1 += 1;
        }
    }

    fn play_phttp(
        &mut self,
        i: usize,
        conn: &PlayConn,
        addr: SocketAddr,
        settled: &mut usize,
    ) -> std::io::Result<()> {
        let t_open = Instant::now();
        let conn_span = self.rec.as_mut().map_or(0, Recorder::reserve);
        let mut stream = self.connect(addr)?;
        if let Some(rec) = self.rec.as_mut() {
            rec.record(
                "client.connect",
                t_open,
                Instant::now(),
                conn_span,
                req_id(i, 0),
            );
        }
        let mut parser = ResponseParser::new();
        for batch in &conn.batches {
            self.sample_disk_queues();
            let batch_span = self.rec.as_mut().map_or(0, Recorder::reserve);
            let t0 = Instant::now();
            stream.write_all(&batch.wire)?;
            let written = Instant::now();
            let mut first = None;
            let mut last = written;
            let mut parsed = written;
            let mut got = 0;
            while got < batch.len {
                if let Some(resp) = parser.next().map_err(|e| invalid(e.to_string()))? {
                    if self.rec.is_some() && got + 1 == batch.len {
                        parsed = Instant::now();
                    }
                    let ok = self
                        .spec
                        .verifier
                        .check(conn.targets[batch.start + got], &resp);
                    self.settle(ok, last - t0);
                    if let Some(rec) = self.rec.as_mut() {
                        rec.record(
                            "client.request",
                            t0,
                            last,
                            batch_span,
                            req_id(i, batch.start + got),
                        );
                    }
                    got += 1;
                    *settled += 1;
                    continue;
                }
                let n = stream.read(&mut self.buf)?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                last = Instant::now();
                first.get_or_insert(last);
                parser.feed(&self.buf[..n]);
            }
            if parser.buffered() != 0 {
                return Err(invalid("bytes beyond the batch's responses"));
            }
            if let Some(rec) = self.rec.as_mut() {
                let first = first.unwrap_or(written);
                let req = req_id(i, batch.start);
                rec.record_reserved(batch_span, "client.batch", t0, last, conn_span, req);
                rec.record("client.ttfb", written, first, batch_span, req);
                rec.record("client.transfer", first, parsed, batch_span, req);
            }
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.record_reserved(
                conn_span,
                "client.conn",
                t_open,
                Instant::now(),
                0,
                req_id(i, 0),
            );
        }
        Ok(())
    }

    fn play_http10(
        &mut self,
        i: usize,
        conn: &PlayConn,
        addr: SocketAddr,
        settled: &mut usize,
    ) -> std::io::Result<()> {
        let batch = conn
            .batches
            .first()
            .expect("an HTTP/1.0 connection carries one request");
        let target = conn.targets[0];
        self.sample_disk_queues();
        let conn_span = self.rec.as_mut().map_or(0, Recorder::reserve);
        let t0 = Instant::now();
        let mut stream = self.connect(addr)?;
        let connected = Instant::now();
        stream.write_all(&batch.wire)?;
        let written = Instant::now();
        let mut parser = ResponseParser::new();
        let mut first = None;
        let mut last = written;
        let resp = loop {
            if let Some(resp) = parser.next().map_err(|e| invalid(e.to_string()))? {
                break resp;
            }
            let n = stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            last = Instant::now();
            first.get_or_insert(last);
            parser.feed(&self.buf[..n]);
        };
        let parsed = Instant::now();
        // HTTP/1.0: the server closes after the response. Reading to that
        // close leaves TIME_WAIT on the server side, so back-to-back runs
        // never run the client out of ephemeral ports.
        if parser.buffered() != 0 || stream.read(&mut self.buf)? != 0 {
            return Err(invalid("bytes beyond the response"));
        }
        let closed = Instant::now();
        let ok = self.spec.verifier.check(target, &resp);
        self.settle(ok, last - t0);
        *settled = 1;
        if let Some(rec) = self.rec.as_mut() {
            let req = req_id(i, 0);
            let first = first.unwrap_or(written);
            rec.record("client.connect", t0, connected, conn_span, req);
            rec.record("client.request", t0, last, conn_span, req);
            rec.record("client.ttfb", written, first, conn_span, req);
            rec.record("client.transfer", first, parsed, conn_span, req);
            rec.record_reserved(conn_span, "client.conn", t0, closed, 0, req);
        }
        Ok(())
    }
}
