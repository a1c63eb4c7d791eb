//! Self-test of the benchmark at tiny size: every named metric is
//! emitted with a finite value, the workloads' deterministic shape facts
//! hold, and the correctness gate fires on a corrupted body and on a
//! broken drain invariant.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use perfbench::bench::{check_drain, check_quiesced, run_e2e, run_traced, Options, Report, Rig};
use perfbench::workload::{Scale, Workload, WorkloadKind};
use perfbench::{E2E_METRICS, LAYER_METRICS};

fn tiny(kind: WorkloadKind, seconds: f64) -> (Workload, Options) {
    let wl = Workload::generate(kind, 7, Scale::Tiny);
    let mut opts = Options::new(&wl, seconds);
    opts.rounds = 2;
    (wl, opts)
}

fn assert_names(report: &Report, expected: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|(n, m)| (*n, m.unit)).collect();
    let mut want = expected.to_vec();
    want.sort();
    assert_eq!(got, want, "{what}: metric names and units");
    for (name, m) in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
}

#[test]
fn every_metric_is_emitted_and_the_shapes_hold() {
    for kind in WorkloadKind::ALL {
        let (wl, opts) = tiny(kind, 1.0);
        let e2e = run_e2e(&wl, &opts).expect("untraced run");
        assert!(e2e.correct, "{}: {:?}", kind.name(), e2e.problems);
        assert_eq!(e2e.failed, 0, "{}", kind.name());
        assert_names(&e2e, E2E_METRICS, kind.name());
        assert!(
            e2e.metrics.values().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0",
            kind.name()
        );

        let traced = run_traced(&wl, &opts, None).expect("traced run");
        assert!(traced.correct, "{}: {:?}", kind.name(), traced.problems);
        assert_names(&traced, LAYER_METRICS, kind.name());
        let hit = traced.metrics["node.hit_ratio"].value;
        let disk = traced.metrics["node.disk_reads_per_kreq"].value;
        match kind {
            // Warmed on every node: every request hits, none reads disk.
            WorkloadKind::PhttpHot | WorkloadKind::Http10Hot => {
                assert_eq!(hit, 1.0, "{}", kind.name());
                assert_eq!(disk, 0.0, "{}", kind.name());
            }
            // Cold targets beyond the warm-up prefix go to disk.
            WorkloadKind::PhttpTrace => assert!(disk > 0.0, "phttp_trace read no disk"),
        }
    }
}

#[test]
fn a_corrupted_expected_body_counts_as_failed() {
    let (wl, mut opts) = tiny(WorkloadKind::PhttpHot, 0.5);
    // The first request of the first connection is played in every round.
    opts.corrupt = Some(wl.conns[0].targets[0]);
    let report = run_e2e(&wl, &opts).expect("run");
    assert!(report.failed > 0, "the corrupted body was accepted");
    assert!(report.failed < report.attempted);
    assert!(!report.correct);
}

#[test]
fn a_connection_left_open_breaks_the_drain_invariant() {
    let (wl, opts) = tiny(WorkloadKind::PhttpHot, 0.5);
    let rig = Rig::start(&wl, &opts).expect("set-up");
    let cluster = &rig.cluster;
    let mut held = TcpStream::connect(cluster.frontend_addr()).expect("connect");
    held.write_all(&wl.conns[0].batches[0].wire).expect("write");
    let mut parser = phttp_http::ResponseParser::new();
    let mut buf = [0u8; 16 * 1024];
    let mut got = 0;
    while got < wl.conns[0].batches[0].len {
        if parser.next().expect("response").is_some() {
            got += 1;
            continue;
        }
        let n = held.read(&mut buf).expect("read");
        assert!(n > 0, "server closed the held connection");
        parser.feed(&buf[..n]);
    }
    let short = Duration::from_millis(200);
    let err = check_quiesced(cluster, short).expect_err("a held connection must break the gate");
    assert!(err.contains("connections still tracked"), "{err}");
    assert!(check_drain(cluster, wl.config.read_timeout, short).is_err());
    drop(held);
    check_drain(cluster, wl.config.read_timeout, Duration::from_secs(5))
        .expect("drains once the client hangs up");
    rig.cluster.shutdown();
}

#[test]
fn http10_back_to_back_runs_never_fail_to_connect() {
    let (wl, opts) = tiny(WorkloadKind::Http10Hot, 2.0);
    for run in 0..2 {
        let report = run_e2e(&wl, &opts).expect("run");
        assert!(report.correct, "run {run}: {:?}", report.problems);
        assert_eq!(report.failed, 0, "run {run}");
        assert_eq!(
            report.connect_retries, 0,
            "run {run}: connects had to be retried"
        );
    }
}

/// The names in one of `BENCHMARK.json`'s arrays, in file order.
fn json_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|part| part.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let names = |m: &[(&str, &str)]| sorted(m.iter().map(|(n, _)| n.to_string()).collect());
    assert_eq!(sorted(json_names(&json, "end_to_end")), names(E2E_METRICS));
    assert_eq!(sorted(json_names(&json, "per_layer")), names(LAYER_METRICS));
    for name in json_names(&json, "workloads") {
        assert!(
            WorkloadKind::parse(&name).is_some(),
            "unknown workload {name}"
        );
    }
}
