//! Front-end tier scaling: what a tier of `front_ends ∈ {1, 2, 4}`
//! instances behind the VIP costs (or buys) at a fixed offered load,
//! with the classic single front-end as the baseline.
//!
//! The same synthetic pipelined P-HTTP workload — `C` concurrent
//! persistent connections, each sending pipelined batches — is served
//! by a live loopback cluster once per tier size, on one reactor shard
//! per core of the host. Tiered runs pay the real admission handshakes
//! over the VIP's control sessions plus the gossip traffic, and accept
//! through blocking acceptor threads that hand each admitted stream to
//! a shard (the handshake cannot run inside an event loop); what they
//! buy is dispatch spread over independent per-instance dispatchers
//! (no shared-lock front-end bottleneck).
//!
//! Writes `BENCH_fetier.json` at the repo root, stamped with the host's
//! core count.

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

/// One reactor shard per core.
fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proto_config(front_ends: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 2,
        policy: PolicyKind::ExtLard,
        cache_bytes: 8 * 1024 * 1024,
        disk: DiskEmu {
            seek: Duration::from_micros(100),
            bytes_per_sec: 400.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(20),
        reactor_shards: shards(),
        front_ends,
        fe_listeners: 4,
        ..ProtoConfig::default()
    }
}

/// Requests/second serving `conns` concurrent P-HTTP connections
/// through a tier of `front_ends` instances.
fn throughput(front_ends: usize, conns: usize) -> f64 {
    let trace = corpus_trace();
    let load = workload(conns, trace.num_targets() as u32);
    let cluster = Cluster::start(proto_config(front_ends), &trace).expect("start cluster");
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
    // Tiered runs must actually have admitted through the VIP.
    if let Some(vip) = cluster.vip() {
        assert!(vip.handoffs() > 0, "tier never admitted");
    }
    cluster.shutdown();
    assert_eq!(report.errors, 0, "front_ends={front_ends}/{conns}: errors");
    assert_eq!(report.requests as usize, conns * BATCHES * BATCH_SIZE);
    report.throughput_rps()
}

fn bench_tier(c: &mut Criterion) {
    // Criterion entries at the smallest size only (cluster startup per
    // iteration is the cost; the report below covers the full sweep).
    let mut g = c.benchmark_group("fe_tier");
    g.sample_size(5); // cluster start/stop dominates an iteration
    for fes in [1usize, 2] {
        g.bench_function(&format!("fe{fes}/c64"), |b| {
            b.iter(|| criterion::black_box(throughput(fes, 64)));
        });
    }
    g.finish();
}

fn bench_report(_c: &mut Criterion) {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if quick { &[64] } else { &[256, 1024] };
    let tier_sizes: &[usize] = &[1, 2, 4];

    let mut rows = String::new();
    let mut first = true;
    for &conns in sizes {
        // Best of three per cell, like the other cluster benches.
        let reps = if quick { 1 } else { 3 };
        let best = |fes: usize| {
            (0..reps)
                .map(|_| throughput(fes, conns))
                .fold(0.0f64, f64::max)
        };
        let single = best(1);
        for &fes in tier_sizes {
            let rps = if fes == 1 { single } else { best(fes) };
            println!(
                "fe_tier/c{conns:<5} front_ends {fes}   {rps:>10.0} req/s   single-FE {single:>10.0} req/s   ratio {:>5.2}x",
                rps / single,
            );
            if !first {
                rows.push_str(",\n");
            }
            first = false;
            rows.push_str(&format!(
                "    {{\"connections\": {conns}, \"front_ends\": {fes}, \"tier_rps\": {rps:.0}, \"single_fe_rps\": {single:.0}, \"tier_over_single\": {:.3}}}",
                rps / single,
            ));
        }
    }

    let host = phttp_bench::host_meta_json();
    let shards = shards();
    let json = format!(
        "{{\n  \"benchmark\": \"fe_tier\",\n  \"workload\": \"P-HTTP closed loop: C concurrent persistent connections x {BATCHES} pipelined batches x {BATCH_SIZE} requests, extLARD, 2 nodes, hot cache, reactor at {shards} shards (one per core)\",\n  \"baseline\": \"front_ends = 1 (the classic single front-end; no VIP, no admission handshakes, no gossip)\",\n  \"contender\": \"front_ends = M instances behind the VIP (round-robin admission over real control-session handshakes, consistent-hash belief ownership, pairwise gossip)\",\n  {host},\n  \"note\": \"M > 1 pays an admission handshake + gossip per connection and accepts through blocking acceptors handing streams to the shards instead of the shards' own SO_REUSEPORT groups; tier_over_single prices that against what M independent dispatchers buy\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fetier.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(tier, bench_tier);
criterion_group!(report, bench_report);
criterion_main!(tier, report);
