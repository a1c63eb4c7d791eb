//! Multi-threaded dispatcher throughput: the old global-mutex design
//! (`Mutex<Dispatcher>`, exactly what `phttp-proto`'s front-end used to
//! hold) versus the lock-sharded [`ConcurrentDispatcher`] the front-end
//! holds now.
//!
//! Each operation is one full connection lifecycle — open, one
//! pipelined batch of two assigned requests, close — under extended
//! LARD with busy disks, so every assignment runs the full cost-metric
//! path. Threads touch disjoint connections and mostly-disjoint
//! targets: the workload the paper's front-end sees, where nothing
//! *semantically* forces serialization — only the lock design does.
//!
//! Besides the criterion entries, the run measures aggregate
//! throughput at 1/2/4/8 threads for both designs and writes
//! `BENCH_dispatcher.json` at the repo root with the comparison.

#![allow(missing_docs)]

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use phttp_core::{
    ConcurrentDispatcher, ConnId, Dispatcher, DispatcherConfig, ForwardSemantics, LardParams,
    NodeId, PolicyKind,
};
use phttp_trace::TargetId;

const NODES: usize = 8;
const TARGETS: u32 = 4096;

fn config() -> DispatcherConfig {
    DispatcherConfig::new(
        PolicyKind::ExtLard,
        ForwardSemantics::LateralFetch,
        NODES,
        LardParams::default(),
    )
}

/// The old front-end: every policy call takes one global lock.
struct MutexFrontEnd(Mutex<Dispatcher>);

impl MutexFrontEnd {
    fn new() -> Self {
        let mut d = Dispatcher::from_config(config());
        for n in 0..NODES {
            d.report_disk_queue(NodeId(n), 50);
        }
        MutexFrontEnd(Mutex::new(d))
    }

    fn lifecycle(&self, conn: ConnId, seed: u64) {
        let t = |x: u64| TargetId((x % TARGETS as u64) as u32);
        self.0.lock().open_connection(conn, t(seed));
        self.0.lock().begin_batch(conn, 2);
        let _ = self.0.lock().assign_request(conn, t(seed.wrapping_mul(97)));
        let _ = self.0.lock().assign_request(conn, t(seed.wrapping_mul(31)));
        self.0.lock().close_connection(conn);
    }
}

/// The new front-end: straight into the sharded dispatcher.
struct ShardedFrontEnd(ConcurrentDispatcher);

impl ShardedFrontEnd {
    fn new() -> Self {
        let d = ConcurrentDispatcher::from_config(config());
        for n in 0..NODES {
            d.report_disk_queue(NodeId(n), 50);
        }
        ShardedFrontEnd(d)
    }

    fn lifecycle(&self, conn: ConnId, seed: u64) {
        let t = |x: u64| TargetId((x % TARGETS as u64) as u32);
        self.0.open_connection(conn, t(seed));
        self.0.begin_batch(conn, 2);
        let _ = self.0.assign_request(conn, t(seed.wrapping_mul(97)));
        let _ = self.0.assign_request(conn, t(seed.wrapping_mul(31)));
        self.0.close_connection(conn);
    }
}

/// Runs `ops_per_thread` lifecycles on each of `threads` threads and
/// returns the longest per-worker wall time. Each worker stamps its own
/// clock right after the start barrier releases it and right after its
/// last op, so the measurement window is exactly the span work was in
/// flight — a main-thread clock would under-count whenever the main
/// thread is descheduled while the benchmark threads run (guaranteed on
/// few cores).
fn run_threads<F>(threads: usize, ops_per_thread: u64, f: Arc<F>) -> Duration
where
    F: Fn(u64, u64) + Send + Sync + 'static,
{
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .map(|k| {
            let f = f.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for i in 0..ops_per_thread {
                    f(k, i);
                }
                start.elapsed()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("bench thread panicked"))
        .max()
        .unwrap_or(Duration::ZERO)
}

fn ops_per_sec_mutex(threads: usize, ops_per_thread: u64) -> f64 {
    let fe = Arc::new(MutexFrontEnd::new());
    let fe2 = fe.clone();
    let elapsed = run_threads(
        threads,
        ops_per_thread,
        Arc::new(move |k: u64, i: u64| {
            fe2.lifecycle(
                ConnId(k * 1_000_000_000 + i),
                k.wrapping_mul(7919).wrapping_add(i),
            );
        }),
    );
    (threads as u64 * ops_per_thread) as f64 / elapsed.as_secs_f64()
}

fn ops_per_sec_sharded(threads: usize, ops_per_thread: u64) -> f64 {
    let fe = Arc::new(ShardedFrontEnd::new());
    let fe2 = fe.clone();
    let elapsed = run_threads(
        threads,
        ops_per_thread,
        Arc::new(move |k: u64, i: u64| {
            fe2.lifecycle(
                ConnId(k * 1_000_000_000 + i),
                k.wrapping_mul(7919).wrapping_add(i),
            );
        }),
    );
    (threads as u64 * ops_per_thread) as f64 / elapsed.as_secs_f64()
}

fn bench_single_thread_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatcher_concurrency/1thread");
    g.bench_function("mutex", |b| {
        let fe = MutexFrontEnd::new();
        let mut i = 0u64;
        b.iter(|| {
            fe.lifecycle(ConnId(i), i.wrapping_mul(2654435761));
            i += 1;
        });
    });
    g.bench_function("sharded", |b| {
        let fe = ShardedFrontEnd::new();
        let mut i = 0u64;
        b.iter(|| {
            fe.lifecycle(ConnId(i), i.wrapping_mul(2654435761));
            i += 1;
        });
    });
    g.finish();
}

fn bench_scaling_and_report(c: &mut Criterion) {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    let ops: u64 = if quick { 32_000 } else { 640_000 };
    let thread_counts = [1usize, 2, 4, 8, 32, 128];

    let mut mutex_tput = Vec::new();
    let mut sharded_tput = Vec::new();
    for &t in &thread_counts {
        // Keep total work constant across thread counts; take the best
        // of three runs per cell so one unlucky scheduling window does
        // not define the number.
        let per_thread = ops / t as u64;
        let best =
            |f: &dyn Fn(usize, u64) -> f64| (0..3).map(|_| f(t, per_thread)).fold(0.0f64, f64::max);
        mutex_tput.push(best(&ops_per_sec_mutex));
        sharded_tput.push(best(&ops_per_sec_sharded));
    }

    for (i, &t) in thread_counts.iter().enumerate() {
        println!(
            "dispatcher_concurrency/{t}threads  mutex {:>12.0} ops/s   sharded {:>12.0} ops/s   speedup {:>5.2}x",
            mutex_tput[i],
            sharded_tput[i],
            sharded_tput[i] / mutex_tput[i],
        );
    }

    // criterion entries for the 8-thread aggregate, measured per-op.
    let mut g = c.benchmark_group("dispatcher_concurrency/8threads");
    g.sample_size(10);
    g.bench_function("mutex", |b| {
        b.iter_custom(|iters| {
            let fe = Arc::new(MutexFrontEnd::new());
            let fe2 = fe.clone();
            let per = (iters / 8).max(1);
            run_threads(
                8,
                per,
                Arc::new(move |k: u64, i: u64| {
                    fe2.lifecycle(ConnId(k * 1_000_000_000 + i), i);
                }),
            )
        });
    });
    g.bench_function("sharded", |b| {
        b.iter_custom(|iters| {
            let fe = Arc::new(ShardedFrontEnd::new());
            let fe2 = fe.clone();
            let per = (iters / 8).max(1);
            run_threads(
                8,
                per,
                Arc::new(move |k: u64, i: u64| {
                    fe2.lifecycle(ConnId(k * 1_000_000_000 + i), i);
                }),
            )
        });
    });
    g.finish();

    write_report(&thread_counts, &mutex_tput, &sharded_tput);
}

/// Emits `BENCH_dispatcher.json` at the repo root (hand-rolled JSON —
/// the workspace's serde shim deliberately has no serializer).
fn write_report(threads: &[usize], mutex_tput: &[f64], sharded_tput: &[f64]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatcher.json");
    let mut rows = String::new();
    for (i, &t) in threads.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"threads\": {t}, \"mutex_ops_per_sec\": {:.0}, \"sharded_ops_per_sec\": {:.0}, \"speedup\": {:.3}}}",
            mutex_tput[i],
            sharded_tput[i],
            sharded_tput[i] / mutex_tput[i],
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let eight = threads
        .iter()
        .position(|&t| t == 8)
        .unwrap_or(threads.len() - 1);
    let host = phttp_bench::host_meta_json();
    let note = if cores == 1 {
        "single-core host: threads cannot run in parallel, so the speedup \
         reflects only per-op overhead reduction; the sharded design's \
         parallel scaling (the >=2x target) requires >=2 cores"
    } else {
        "multi-core host: speedup includes real parallel scaling"
    };
    let json = format!(
        "{{\n  \"benchmark\": \"dispatcher_concurrency\",\n  \"workload\": \"extLARD lifecycle: open + batch(2) + 2 assigns + close, {NODES} nodes, {TARGETS} targets, busy disks\",\n  \"baseline\": \"parking_lot::Mutex<Dispatcher> (old frontend design)\",\n  \"contender\": \"ConcurrentDispatcher (lock-sharded, atomic loads)\",\n  {host},\n  \"note\": \"{note}\",\n  \"results\": [\n{rows}\n  ],\n  \"speedup_at_8_threads\": {:.3}\n}}\n",
        sharded_tput[eight] / mutex_tput[eight],
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(latency, bench_single_thread_latency);
criterion_group!(scaling, bench_scaling_and_report);
criterion_main!(latency, scaling);
