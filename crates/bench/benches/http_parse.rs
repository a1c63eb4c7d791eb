//! Criterion micro-benchmarks for the HTTP message layer: the prototype's
//! per-request wire costs.

#![allow(missing_docs)] // criterion macros generate undocumented items

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use phttp_http::{Request, RequestParser, Response, Version};

fn bench_request_parse(c: &mut Criterion) {
    let wire = {
        let mut r = Request::get("/t/12345", Version::Http11);
        r.headers.push("Host", "cluster.example");
        r.headers.push("User-Agent", "bench/1.0");
        r.to_bytes()
    };
    let mut g = c.benchmark_group("http");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("parse_request", |b| {
        b.iter(|| {
            let mut p = RequestParser::new();
            p.feed(&wire);
            black_box(p.next().unwrap().unwrap())
        });
    });
    g.finish();
}

/// The reactor's parse: pipelined requests read in place through
/// `next_with`, keeping only what the serve path needs.
fn bench_pipelined_in_place(c: &mut Criterion) {
    let mut wire = BytesMut::new();
    for i in 0..16 {
        Request::get(format!("/t/{i}"), Version::Http11).encode(&mut wire);
    }
    c.bench_function("http/next_with_16_pipelined", |b| {
        b.iter(|| {
            let mut p = RequestParser::new();
            p.feed(&wire);
            let mut n = 0;
            while let Some(len) = p.next_with(|r| r.uri.len()).unwrap() {
                n += len;
            }
            black_box(n)
        });
    });
}

fn bench_response_encode(c: &mut Criterion) {
    let body = Bytes::from(vec![0u8; 8 * 1024]);
    let mut g = c.benchmark_group("http");
    g.throughput(Throughput::Bytes(8 * 1024));
    g.bench_function("encode_8k_response", |b| {
        b.iter(|| {
            let resp = Response::ok(Version::Http11, body.clone());
            black_box(resp.to_bytes().len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_request_parse,
    bench_pipelined_in_place,
    bench_response_encode
);
criterion_main!(benches);
