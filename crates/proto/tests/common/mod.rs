//! Harness shared by the differential suites (`reactor_equivalence`,
//! `large_body`, `fe_tier`): a capture client that plays a connection
//! trace against a live cluster, and the transcript the cluster must
//! produce, computed from the content store.
//!
//! Response bytes are a pure function of `(target, HTTP version)` —
//! `Response::ok(version, store.body(target))`, or a 404 for an unknown
//! URI — so the expected transcript needs no second server: every cell
//! of every matrix is compared against the store itself.

#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bytes::BytesMut;
use phttp_http::{Request, Response, ResponseParser, Version};
use phttp_proto::ContentStore;
use phttp_trace::{Connection, ConnectionTrace, TargetId};

/// Per connection, the re-encoded wire bytes of each response in
/// request order.
pub type Transcript = Vec<Vec<Vec<u8>>>;

/// Connections the capture client keeps in flight at once: with a
/// single sequential connection the back-end disks never queue and the
/// staging queues never back up.
pub const PLAYERS: usize = 8;

/// The response the cluster owes a GET of `target` — a 404 when the
/// store does not know its URI.
pub fn expected_response(store: &ContentStore, target: TargetId, version: Version) -> Vec<u8> {
    let resp = match store.lookup(&ContentStore::uri(target)) {
        Some(t) => Response::ok(version, store.body(t)),
        None => Response::not_found(version),
    };
    resp.to_bytes().to_vec()
}

/// The transcript a correct cluster produces for `workload` when every
/// request is an HTTP/1.1 GET (what [`play_one`] sends).
pub fn expected_transcript(store: &ContentStore, workload: &ConnectionTrace) -> Transcript {
    workload
        .connections
        .iter()
        .map(|conn| {
            conn.batches
                .iter()
                .flat_map(|b| b.targets.iter())
                .map(|&t| expected_response(store, t, Version::Http11))
                .collect()
        })
        .collect()
}

/// Plays one trace connection — each batch pipelined in a single write,
/// like the load generator — verifying every `200` body against the
/// store as it arrives, and returns the re-encoded wire bytes of each
/// response.
pub fn play_one(addr: SocketAddr, conn: &Connection, store: &ContentStore) -> Vec<Vec<u8>> {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut parser = ResponseParser::new();
    let mut responses = Vec::with_capacity(conn.num_requests());
    let mut buf = vec![0u8; 64 * 1024];
    for batch in &conn.batches {
        let mut wire = BytesMut::new();
        for &target in &batch.targets {
            Request::get(ContentStore::uri(target), Version::Http11).encode(&mut wire);
        }
        stream.write_all(&wire).unwrap();
        let mut got = 0;
        while got < batch.targets.len() {
            if let Some(resp) = parser.next().expect("parse response") {
                let target = batch.targets[got];
                assert!(
                    resp.status != 200 || store.verify(target, &resp.body),
                    "corrupt body for {target}"
                );
                responses.push(resp.to_bytes().to_vec());
                got += 1;
                continue;
            }
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-connection");
            parser.feed(&buf[..n]);
        }
    }
    responses
}

/// Plays every connection of `workload`, [`PLAYERS`] in flight at once,
/// spread across `addrs`, and returns each connection's transcript,
/// indexed by connection order.
pub fn play_capture(
    addrs: &[SocketAddr],
    workload: &ConnectionTrace,
    store: &ContentStore,
) -> Transcript {
    let cursor = AtomicUsize::new(0);
    let transcript: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = workload
        .connections
        .iter()
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..PLAYERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = workload.connections.get(i) else {
                    break;
                };
                *transcript[i].lock() = play_one(addrs[i % addrs.len()], conn, store);
            });
        }
    });
    transcript.into_iter().map(|m| m.into_inner()).collect()
}

/// Asserts a captured transcript equals the store's, naming the first
/// diverging connection and response rather than dumping megabytes.
pub fn assert_transcript(got: &Transcript, want: &Transcript, cell: &str) {
    assert_eq!(got.len(), want.len(), "{cell}: connection count");
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{cell}: response count on connection {c}");
        for (r, (gr, wr)) in g.iter().zip(w).enumerate() {
            assert!(
                gr == wr,
                "{cell}: response {r} on connection {c} differs from the store's \
                 ({} bytes, want {})",
                gr.len(),
                wr.len()
            );
        }
    }
}
