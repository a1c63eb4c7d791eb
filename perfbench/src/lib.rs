//! End-to-end and per-layer benchmark of the live loopback P-HTTP
//! cluster (`phttp-proto`), driven from outside through public APIs
//! only. See `main.rs` for the command line and output.

pub mod bench;
pub mod client;
pub mod cpu;
pub mod replay;
pub mod span;
pub mod stats;
pub mod workload;

/// End-to-end metrics, reported by every untraced run: name, unit.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: name, unit.
///
/// Which end-to-end metric each should move, on which workload, written
/// down before measuring. Where it says *no change*, a change to that
/// layer must leave those end-to-end metrics within their bounds there.
/// `http10_hot` is run by hand (`--workload http10_hot`) and inside the
/// traced `phttp_hot` run, which prints the per-connection cost split;
/// `BENCHMARK.json` leaves it out because its figures follow the host's
/// speed too closely to gate on.
///
/// | Per-layer metric | Should move | On | No change on |
/// |---|---|---|---|
/// | `client.connect_us_p50` | `throughput_rps` | `http10_hot` | |
/// | `client.ttfb_us_p50`, `client.ttfb_us_p99` | `latency_p50_us`, `latency_p99_us` | every workload | |
/// | `client.transfer_us_p50` | `latency_p50_us` | `phttp_hot` | |
/// | `client.cpu_us_per_req` | none: shows a client-bound run | | |
/// | `http.parse_ns_per_req`, `http.head_ns_per_resp` | `server_cpu_us_per_req`, `throughput_rps` | `phttp_hot` | `phttp_trace` (`throughput_rps`) |
/// | `frontend.assign_ns_per_req` | `server_cpu_us_per_req`, `throughput_rps` | `phttp_hot` | |
/// | `frontend.open_ns_per_conn`, `frontend.close_ns_per_conn` | `server_cpu_us_per_req`, `throughput_rps` | `http10_hot` | |
/// | `frontend.replication_factor`, `frontend.mapping_divergence`, `frontend.feedback_reports_per_kreq` | `node.hit_ratio`, through it `throughput_rps`, `latency_p99_us` | `phttp_trace` | |
/// | `node.hit_ratio`, `node.lateral_ratio`, `node.disk_reads_per_kreq`, `node.load_imbalance`, `node.disk_queue_mean` | `throughput_rps`, `latency_p99_us` | `phttp_trace` | `phttp_hot`, `http10_hot` (fixed at hit 1.0, disk 0) |
/// | `node.hit_serve_ns` | `server_cpu_us_per_req`, `throughput_rps` | `phttp_hot` | |
/// | `node.miss_fill_ns_per_kib`, `store.body_ns_per_kib`, `node.lateral_fetch_us_p50`, `node.lateral_fetch_us_p99` | `server_cpu_us_per_req`, `latency_p99_us` | `phttp_trace` | |
/// | `reactor.residual_cpu_us_per_req` | `server_cpu_us_per_req`, `throughput_rps` | `phttp_hot`, `http10_hot` | |
/// | `tracing.overhead_ratio` | none: traced over untraced `throughput_rps` | | |
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("client.connect_us_p50", "us"),
    ("client.ttfb_us_p50", "us"),
    ("client.ttfb_us_p99", "us"),
    ("client.transfer_us_p50", "us"),
    ("client.cpu_us_per_req", "us"),
    ("http.parse_ns_per_req", "ns"),
    ("http.head_ns_per_resp", "ns"),
    ("frontend.assign_ns_per_req", "ns"),
    ("frontend.open_ns_per_conn", "ns"),
    ("frontend.close_ns_per_conn", "ns"),
    ("frontend.replication_factor", "ratio"),
    ("frontend.mapping_divergence", "count"),
    ("frontend.feedback_reports_per_kreq", "1/kreq"),
    ("node.hit_ratio", "ratio"),
    ("node.lateral_ratio", "ratio"),
    ("node.disk_reads_per_kreq", "1/kreq"),
    ("node.load_imbalance", "ratio"),
    ("node.disk_queue_mean", "count"),
    ("node.hit_serve_ns", "ns"),
    ("node.miss_fill_ns_per_kib", "ns/KiB"),
    ("store.body_ns_per_kib", "ns/KiB"),
    ("node.lateral_fetch_us_p50", "us"),
    ("node.lateral_fetch_us_p99", "us"),
    ("reactor.residual_cpu_us_per_req", "us"),
    ("tracing.overhead_ratio", "ratio"),
];
