//! Reactor shard scaling: what sharding the event loop costs (or buys)
//! at increasing connection concurrency, with one shard as the
//! baseline.
//!
//! The same synthetic pipelined P-HTTP workload — `C` concurrent
//! persistent connections, each sending pipelined batches — is served
//! by a live loopback cluster once per shard count at each connection
//! count: `reactor_shards ∈ {1, 2, 4}` (SO_REUSEPORT accept
//! distribution, event-driven lateral serving). Mostly-cached working
//! set and fast emulated disks, so the measurement stresses the I/O
//! layer rather than the disk model.
//!
//! Writes `BENCH_shards.json` at the repo root, stamped with the host's
//! core count: shards beyond the core count cannot run in parallel, so
//! any gain past it is structural (per-shard accept queues, smaller
//! per-loop slabs and event batches) rather than core scaling.

#![allow(missing_docs)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use phttp_core::PolicyKind;
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, LoadConfig, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{generate, Batch, Connection, ConnectionTrace, SynthConfig};

/// Pipelined batches per connection.
const BATCHES: usize = 8;
/// Requests per pipelined batch.
const BATCH_SIZE: usize = 4;

fn corpus_trace() -> phttp_trace::Trace {
    let mut synth = SynthConfig::small();
    synth.num_pages = 40;
    synth.num_page_views = 40; // corpus only; requests come from `workload`
    generate(&synth)
}

/// `conns` persistent connections of `BATCHES` × `BATCH_SIZE` pipelined
/// requests over a small hot corpus (mostly cache hits).
fn workload(conns: usize, targets: u32) -> ConnectionTrace {
    let connections = (0..conns)
        .map(|c| Connection {
            client: phttp_trace::ClientId(c as u32),
            batches: (0..BATCHES)
                .map(|b| Batch {
                    time: SimTime::ZERO,
                    targets: (0..BATCH_SIZE)
                        .map(|r| {
                            let mix = (c * 31 + b * 7 + r) as u32;
                            phttp_trace::TargetId(mix % targets)
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    ConnectionTrace { connections }
}

fn proto_config(shards: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 2,
        policy: PolicyKind::ExtLard,
        cache_bytes: 8 * 1024 * 1024,
        disk: DiskEmu {
            seek: Duration::from_micros(100),
            bytes_per_sec: 400.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(20),
        reactor_shards: shards,
        fe_listeners: 4,
        ..ProtoConfig::default()
    }
}

/// Requests/second serving `conns` concurrent P-HTTP connections.
fn throughput(shards: usize, conns: usize) -> f64 {
    let trace = corpus_trace();
    let load = workload(conns, trace.num_targets() as u32);
    let cluster = Cluster::start(proto_config(shards), &trace).expect("start cluster");
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &load,
        &LoadConfig {
            clients: conns,
            protocol: ClientProtocol::PHttp,
            verify: false, // measure serving, not the verifier
            read_timeout: Duration::from_secs(30),
        },
    );
    cluster.shutdown();
    assert_eq!(report.errors, 0, "shards={shards}/{conns}: load errors");
    assert_eq!(report.requests as usize, conns * BATCHES * BATCH_SIZE);
    report.throughput_rps()
}

fn bench_shards(c: &mut Criterion) {
    // Criterion entries at the smallest size only (cluster startup per
    // iteration is the cost; the report below covers the full sweep).
    let mut g = c.benchmark_group("reactor_shards");
    g.sample_size(5); // cluster start/stop dominates an iteration
    for shards in [1usize, 2] {
        g.bench_function(&format!("shards{shards}/c64"), |b| {
            b.iter(|| criterion::black_box(throughput(shards, 64)));
        });
    }
    g.finish();
}

fn bench_report(_c: &mut Criterion) {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if quick { &[64] } else { &[256, 1024] };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    let mut rows = String::new();
    let mut first = true;
    for &conns in sizes {
        // Best of three per cell, like the other cluster benches.
        let reps = if quick { 1 } else { 3 };
        let best = |shards: usize| {
            (0..reps)
                .map(|_| throughput(shards, conns))
                .fold(0.0f64, f64::max)
        };
        let one = best(1);
        for &shards in shard_counts {
            let rps = if shards == 1 { one } else { best(shards) };
            println!(
                "reactor_shards/c{conns:<5} shards {shards}   {rps:>10.0} req/s   1 shard {one:>10.0} req/s   ratio {:>5.2}x",
                rps / one,
            );
            if !first {
                rows.push_str(",\n");
            }
            first = false;
            rows.push_str(&format!(
                "    {{\"connections\": {conns}, \"shards\": {shards}, \"rps\": {rps:.0}, \"one_shard_rps\": {one:.0}, \"over_one_shard\": {:.3}}}",
                rps / one,
            ));
        }
    }

    let host = phttp_bench::host_meta_json();
    let json = format!(
        "{{\n  \"benchmark\": \"reactor_shards\",\n  \"workload\": \"P-HTTP closed loop: C concurrent persistent connections x {BATCHES} pipelined batches x {BATCH_SIZE} requests, extLARD, 2 nodes, hot cache\",\n  \"baseline\": \"reactor_shards = 1 (one event loop)\",\n  \"contender\": \"reactor_shards event loops (SO_REUSEPORT accept distribution, event-driven lateral serving)\",\n  {host},\n  \"metric\": \"requests per wall-clock second, best of 3\",\n  \"note\": \"shards beyond cpu_cores cannot run in parallel; a gain past the core count is structural (per-shard accept queues, smaller per-loop slabs and event batches), not parallelism. The cluster runs zero per-client and per-peer-connection threads at every shard count.\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shards.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(shards, bench_shards);
criterion_group!(report, bench_report);
criterion_main!(shards, report);
