//! Runs a workload against the live cluster: set-up, the timed socket
//! phase, the correctness gate, and the metrics of an untraced or a
//! traced run.

use std::path::Path;
use std::time::{Duration, Instant};

use phttp_core::costmodel::ServerCosts;
use phttp_proto::{Cluster, NodeStatsSnapshot};
use phttp_trace::TargetId;

use crate::client::{drive, Budget, DriveSpec, LoadResult, Verifier};
use crate::cpu::{self, nproc};
use crate::replay::{self, Replay};
use crate::span::{self, Span};
use crate::stats::{beyond, median, percentile, ratio, Metric, Metrics};
use crate::workload::{WarmUp, Workload, WorkloadKind, HOT_BATCHES, HOT_BATCH_LEN};

/// How a run is carried out.
#[derive(Debug, Clone)]
pub struct Options {
    /// Length of the timed phase.
    pub seconds: f64,
    /// Client threads (each with at most one open connection).
    pub clients: usize,
    /// Rounds of an untraced run, each on a freshly set-up cluster;
    /// every end-to-end metric is the median over the rounds.
    pub rounds: usize,
    /// Set-ups an untraced run times; `setup_s` is their median. The
    /// ones beyond `rounds` set up a cluster and shut it down unplayed.
    pub setups: usize,
    /// How long one round plays; `None` is one pass over the round's
    /// connections.
    pub round_seconds: Option<f64>,
    /// Corrupt the expected body of this target (self-test of the gate).
    pub corrupt: Option<TargetId>,
}

/// Rounds of a hot workload's untraced run.
const HOT_ROUNDS: usize = 15;
/// Set-ups a hot workload's untraced run times (a hot set-up takes a
/// few milliseconds, so a steady median needs many).
const HOT_SETUPS: usize = 40;
/// Nominal length of one `phttp_trace` pass over its window; `seconds`
/// buys this many rounds.
const TRACE_PASS_S: f64 = 5.0;
/// Longest socket phase of a traced hot run (spans are kept in memory).
const TRACED_PHASE_MAX_S: f64 = 2.0;
/// Most requests the traced run's replay covers.
const REPLAY_CAP: u64 = 20_000;
/// How long the drain check waits for connections to close.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the front ends' feedback counters must stand still before
/// a warm-up's feedback counts as applied.
const FEEDBACK_QUIET: Duration = Duration::from_millis(10);

impl Options {
    pub fn new(wl: &Workload, seconds: f64) -> Options {
        let (rounds, setups, round_seconds) = match wl.kind {
            // Whole passes over a window: a round plays a fixed set of
            // requests, so a faster round cannot reach further into the
            // trace, where the caches are warmer, and feed its own speed.
            WorkloadKind::PhttpTrace => {
                let rounds = (seconds / TRACE_PASS_S).round().max(1.0) as usize;
                (rounds, rounds, None)
            }
            _ => (HOT_ROUNDS, HOT_SETUPS, Some(seconds / HOT_ROUNDS as f64)),
        };
        Options {
            seconds,
            clients: nproc().min(2),
            rounds,
            setups,
            round_seconds,
            corrupt: None,
        }
    }

    /// What one untraced round of `wl` plays.
    pub fn round_budget(&self, wl: &Workload) -> Budget {
        self.round_seconds.map_or_else(|| one_pass(wl), timed)
    }
}

fn timed(seconds: f64) -> Budget {
    Budget {
        duration: Some(Duration::from_secs_f64(seconds)),
        max_conns: usize::MAX,
    }
}

fn one_pass(wl: &Workload) -> Budget {
    Budget {
        duration: None,
        max_conns: wl.conns.len(),
    }
}

/// What a traced run's socket phases play: a pass for `phttp_trace`, a
/// short timed phase for the hot workloads.
fn traced_budget(wl: &Workload, seconds: f64) -> Budget {
    match wl.kind {
        WorkloadKind::PhttpTrace => one_pass(wl),
        _ => timed((seconds / 2.0).min(TRACED_PHASE_MAX_S)),
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every response verified and every invariant held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run is for (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Broken invariants, each a sentence.
    pub problems: Vec<String>,
    /// Further human-readable findings.
    pub notes: Vec<String>,
    /// Client threads' own CPU per request (shows a client-bound run).
    pub client_cpu_us_per_req: f64,
    pub connect_retries: u64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the timed phases (shows a run slowed by the host).
    pub host_steal_ratio: f64,
}

/// Starts the workload's cluster and brings it to its measured state.
/// Returns the cluster and the set-up time in seconds.
pub fn start_cluster(wl: &Workload, opts: &Options) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(wl.config.clone(), &wl.trace)
        .map_err(|e| format!("cluster start: {e:?}"))?;
    let events = match &wl.warm {
        WarmUp::EveryNode => {
            let mut fills = 0;
            for node in cluster.frontend().nodes() {
                for t in 0..cluster.store().len() as u32 {
                    if node.begin_serve_body(TargetId(t)).is_none() {
                        node.finish_disk_read(TargetId(t));
                        fills += 1;
                    }
                }
            }
            Some(fills)
        }
        WarmUp::Prefix(conns) => {
            let verifier = Verifier::new(cluster.store().clone());
            let warm = drive(&DriveSpec {
                addrs: cluster.frontend_addrs(),
                conns,
                protocol: wl.protocol,
                clients: opts.clients,
                budget: Budget {
                    duration: None,
                    max_conns: conns.len(),
                },
                verifier: &verifier,
                traced: None,
                epoch: t0,
                foreign: &[],
            });
            if warm.failed > 0 {
                cluster.shutdown();
                return Err(format!(
                    "warm-up: {} of {} requests failed",
                    warm.failed, warm.attempted
                ));
            }
            if !cluster.quiesce(QUIESCE_TIMEOUT) {
                cluster.shutdown();
                return Err("warm-up connections did not close".into());
            }
            None
        }
    };
    if wl.config.cache_feedback {
        if let Err(e) = settle_feedback(&cluster, events) {
            cluster.shutdown();
            return Err(e);
        }
    }
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

/// Sends every node's pending cache feedback and waits until each
/// front end has applied it, so the warm-up's admissions reach the
/// front ends' cache beliefs inside set-up, not in the timed phase.
/// With `events` known (a sequential warm-up, one cache insert per
/// read), waits until each front end has applied that many events;
/// otherwise until no front end's feedback counters have moved for
/// [`FEEDBACK_QUIET`].
fn settle_feedback(cluster: &Cluster, events: Option<u64>) -> Result<(), String> {
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    let mut last = Vec::new();
    let mut moved = Instant::now();
    loop {
        cluster.flush_feedback();
        let counts: Vec<u64> = cluster
            .front_ends()
            .iter()
            .map(|fe| {
                let c = fe.coherence();
                c.admit_events + c.evict_events
            })
            .collect();
        let settled = match events {
            Some(n) => counts.iter().all(|&c| c >= n),
            None => counts == last && moved.elapsed() >= FEEDBACK_QUIET,
        };
        if settled {
            return Ok(());
        }
        if counts != last {
            last = counts;
            moved = Instant::now();
        }
        if Instant::now() >= deadline {
            return Err("the front ends did not apply the warm-up's cache feedback".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// A set-up cluster and the threads that existed before it, whose CPU
/// is not this cluster's.
pub struct Rig {
    pub cluster: Cluster,
    pub setup_s: f64,
    foreign: Vec<u32>,
}

impl Rig {
    pub fn start(wl: &Workload, opts: &Options) -> Result<Rig, String> {
        let foreign = cpu::live_tids();
        let (cluster, setup_s) = start_cluster(wl, opts)?;
        Ok(Rig {
            cluster,
            setup_s,
            foreign,
        })
    }
}

/// The first drain invariants: after `quiesce`, no front-end tracks a
/// connection and the reactor holds no unsent response bytes.
pub fn check_quiesced(cluster: &Cluster, quiesce_timeout: Duration) -> Result<(), String> {
    let quiet = cluster.quiesce(quiesce_timeout);
    let active: usize = cluster
        .front_ends()
        .iter()
        .map(|fe| fe.active_connections())
        .sum();
    if !quiet || active != 0 {
        return Err(format!("{active} connections still tracked after quiesce"));
    }
    let stats = cluster
        .reactor_stats()
        .ok_or("the workload must run the reactor")?;
    if stats.pending_body_bytes() != 0 {
        return Err(format!(
            "reactor holds {} unsent body bytes after quiesce",
            stats.pending_body_bytes()
        ));
    }
    Ok(())
}

/// The last drain invariant: the reactor's registered sources return to
/// zero. Pooled lateral sessions close on the reactor's idle sweep, so
/// this may take up to the read timeout after the last request.
pub fn check_sources_drained(cluster: &Cluster, deadline: Instant) -> Result<(), String> {
    let stats = cluster
        .reactor_stats()
        .ok_or("the workload must run the reactor")?;
    while stats.sources() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    match stats.sources() {
        0 => Ok(()),
        n => Err(format!(
            "reactor holds {n} registered sources after the drain"
        )),
    }
}

/// Every drain invariant, waiting as long as the sweep may take.
pub fn check_drain(
    cluster: &Cluster,
    read_timeout: Duration,
    quiesce_timeout: Duration,
) -> Result<(), String> {
    check_quiesced(cluster, quiesce_timeout)?;
    check_sources_drained(cluster, Instant::now() + read_timeout + SWEEP_SLACK)
}

/// How long past the read timeout the reactor's idle sweep may take.
const SWEEP_SLACK: Duration = Duration::from_secs(3);

/// Waits for every rig's sources to drain (concurrently: the rigs idle
/// while later rounds run) and shuts the rigs down. Returns the broken
/// invariants.
fn finish_rigs(rigs: Vec<Rig>, read_timeout: Duration) -> Vec<String> {
    let deadline = Instant::now() + read_timeout + SWEEP_SLACK;
    let mut problems = Vec::new();
    for rig in rigs {
        if let Err(e) = check_sources_drained(&rig.cluster, deadline) {
            problems.push(e);
        }
        rig.cluster.shutdown();
    }
    problems
}

/// One timed socket phase and the live counters around it.
#[derive(Debug)]
pub struct Phase {
    pub drive: LoadResult,
    /// Per-node deltas over the phase.
    pub nodes: Vec<NodeStatsSnapshot>,
    pub feedback_reports: u64,
    pub replication_factor: f64,
    pub mapping_divergence: u64,
    pub problems: Vec<String>,
}

impl Phase {
    fn served(&self) -> u64 {
        self.nodes.iter().map(|n| n.served).sum()
    }

    fn sum(&self, f: impl Fn(&NodeStatsSnapshot) -> u64) -> f64 {
        self.nodes.iter().map(f).sum::<u64>() as f64
    }

    pub fn throughput_rps(&self) -> f64 {
        self.drive.ok as f64 / self.drive.elapsed.as_secs_f64()
    }

    pub fn server_cpu_us_per_req(&self) -> f64 {
        ratio(
            self.drive.server_cpu_ns as f64 / 1e3,
            self.drive.attempted as f64,
        )
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.sum(|n| n.hits), self.served() as f64)
    }

    pub fn disk_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.disk_reads).sum()
    }
}

fn delta(after: &[NodeStatsSnapshot], before: &[NodeStatsSnapshot]) -> Vec<NodeStatsSnapshot> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| NodeStatsSnapshot {
            served: a.served - b.served,
            hits: a.hits - b.hits,
            lateral_out: a.lateral_out - b.lateral_out,
            lateral_in: a.lateral_in - b.lateral_in,
            migrations_in: a.migrations_in - b.migrations_in,
            bytes: a.bytes - b.bytes,
            disk_reads: a.disk_reads - b.disk_reads,
            coalesced_waits: a.coalesced_waits - b.coalesced_waits,
        })
        .collect()
}

/// Plays `wl` within `budget` against a set-up rig, then checks the
/// correctness gate: every request served exactly once, and the drain
/// invariants other than the source count (see [`finish_rigs`]).
pub fn socket_phase(
    rig: &Rig,
    wl: &Workload,
    opts: &Options,
    budget: Budget,
    traced: bool,
) -> Phase {
    let cluster = &rig.cluster;
    let store = cluster.store().clone();
    let verifier = match opts.corrupt {
        Some(t) => Verifier::with_corrupted(store, t),
        None => Verifier::new(store),
    };
    let fe = cluster.frontend();
    let before = cluster.node_stats();
    let reports0 = fe.coherence().reports;
    let drive = drive(&DriveSpec {
        addrs: cluster.frontend_addrs(),
        conns: &wl.conns,
        protocol: wl.protocol,
        clients: opts.clients,
        budget,
        verifier: &verifier,
        traced: traced.then(|| fe.nodes()),
        epoch: Instant::now(),
        foreign: &rig.foreign,
    });
    let mut problems = Vec::new();
    if let Err(e) = check_quiesced(cluster, QUIESCE_TIMEOUT) {
        problems.push(e);
    }
    let nodes = delta(&cluster.node_stats(), &before);
    let served: u64 = nodes.iter().map(|n| n.served).sum();
    if drive.failed == 0 && served != drive.attempted {
        problems.push(format!(
            "the cluster served {served} requests, the played workload holds {}",
            drive.attempted
        ));
    }
    Phase {
        feedback_reports: fe.coherence().reports - reports0,
        replication_factor: fe.replication_factor(),
        mapping_divergence: fe.mapping_divergence(),
        drive,
        nodes,
        problems,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A latency percentile in microseconds, with its sample counts.
fn pct_us(sorted_ns: &[u64], q: f64) -> Metric {
    let mut m = Metric::new(
        percentile(sorted_ns, q).map_or(f64::NAN, us),
        "us",
        sorted_ns.len() as u64,
    );
    m.beyond = Some(beyond(sorted_ns.len(), q) as u64);
    m
}

fn finish(report: &mut Report, phases: &[&Phase], rig_problems: Vec<String>) {
    let (mut steal, mut ticks) = (0, 0);
    for p in phases {
        report.attempted += p.drive.attempted;
        report.failed += p.drive.failed;
        report.connect_retries += p.drive.connect_retries;
        steal += p.drive.host.steal;
        ticks += p.drive.host.total;
        report.problems.extend(p.problems.iter().cloned());
    }
    report.host_steal_ratio = ratio(steal as f64, ticks as f64);
    report.problems.extend(rig_problems);
    report.correct = report.failed == 0 && report.problems.is_empty();
}

/// The median over rounds of a per-round value.
fn median_of(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// The median over rounds of a per-round latency percentile, with the
/// total sample count and the fewest samples beyond it in any round.
fn latency_pct(phases: &[Phase], q: f64) -> Metric {
    let per_round: Vec<Metric> = phases
        .iter()
        .map(|p| pct_us(&p.drive.latencies_ns, q))
        .collect();
    let mut m = Metric::new(
        median(&per_round.iter().map(|m| m.value).collect::<Vec<_>>()),
        "us",
        per_round.iter().map(|m| m.samples).sum(),
    );
    m.beyond = per_round.iter().filter_map(|m| m.beyond).min();
    m
}

/// The untraced run: `rounds` rounds, each setting up a fresh cluster
/// and playing one round's budget.
pub fn run_e2e(wl: &Workload, opts: &Options) -> Result<Report, String> {
    let rounds = opts.rounds.max(1);
    let unplayed = opts.setups.saturating_sub(rounds).div_ceil(rounds);
    let mut rigs = Vec::new();
    let mut phases = Vec::new();
    let mut setups = Vec::new();
    for r in 0..rounds {
        let own = wl.for_round(r);
        let wl = own.as_ref().unwrap_or(wl);
        for _ in 0..unplayed {
            let (cluster, setup_s) = start_cluster(wl, opts)?;
            cluster.shutdown();
            setups.push(setup_s);
        }
        let rig = Rig::start(wl, opts)?;
        setups.push(rig.setup_s);
        phases.push(socket_phase(&rig, wl, opts, opts.round_budget(wl), false));
        rigs.push(rig);
    }
    let round_setups: Vec<f64> = rigs.iter().map(|r| r.setup_s).collect();
    let rig_problems = finish_rigs(rigs, wl.config.read_timeout);

    let ok: u64 = phases.iter().map(|p| p.drive.ok).sum();
    let attempted: u64 = phases.iter().map(|p| p.drive.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.drive.failed).sum();
    let client_ns: u64 = phases.iter().map(|p| p.drive.client_cpu_ns).sum();
    let mut report = Report {
        client_cpu_us_per_req: ratio(us(client_ns), attempted as f64),
        ..Report::default()
    };
    let m = &mut report.metrics;
    m.insert(
        "throughput_rps",
        Metric::new(median_of(&phases, Phase::throughput_rps), "1/s", ok),
    );
    m.insert("latency_p50_us", latency_pct(&phases, 0.50));
    m.insert("latency_p99_us", latency_pct(&phases, 0.99));
    m.insert(
        "server_cpu_us_per_req",
        Metric::new(
            median_of(&phases, Phase::server_cpu_us_per_req),
            "us",
            attempted,
        ),
    );
    m.insert(
        "setup_s",
        Metric::new(median(&setups), "s", setups.len() as u64),
    );
    report.notes.push(format!(
        "failed_ratio = {} ({failed} of {attempted} requests)",
        ratio(failed as f64, attempted as f64)
    ));
    for (i, p) in phases.iter().enumerate() {
        report.notes.push(format!(
            "round {i}: {:.1} rps, p50 {:.1} us, p99 {:.1} us, server cpu {:.3} us/req, setup {:.6} s, live hit_ratio {:.4}, disk_reads {}, lateral {}, host steal {:.3}",
            p.throughput_rps(),
            pct_us(&p.drive.latencies_ns, 0.5).value,
            pct_us(&p.drive.latencies_ns, 0.99).value,
            p.server_cpu_us_per_req(),
            round_setups[i],
            p.hit_ratio(),
            p.disk_reads(),
            p.sum(|n| n.lateral_out),
            ratio(p.drive.host.steal as f64, p.drive.host.total as f64)
        ));
    }
    let refs: Vec<&Phase> = phases.iter().collect();
    finish(&mut report, &refs, rig_problems);
    Ok(report)
}

/// The traced run: an untraced and a traced socket phase of the same
/// budget (their throughput ratio is the tracing overhead), for the hot
/// workloads a phase of the other protocol (for the measured cost
/// split), then the replay through each layer's functions.
pub fn run_traced(
    wl: &Workload,
    opts: &Options,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let budget = traced_budget(wl, opts.seconds);
    let mut rigs = Vec::new();
    let rig = Rig::start(wl, opts)?;
    let untraced = socket_phase(&rig, wl, opts, budget, false);
    rigs.push(rig);
    let rig = Rig::start(wl, opts)?;
    let traced = socket_phase(&rig, wl, opts, budget, true);
    rigs.push(rig);
    let sibling = match wl.kind.hot_sibling() {
        Some(kind) => {
            let sib = Workload::generate(kind, wl.seed, wl.scale);
            let rig = Rig::start(&sib, opts)?;
            let phase = socket_phase(&rig, &sib, opts, budget, false);
            rigs.push(rig);
            Some(phase)
        }
        None => None,
    };
    // The replay runs while the rigs' pooled lateral sessions idle out.
    let epoch = Instant::now();
    let cluster = Cluster::start(wl.config.clone(), &wl.trace)
        .map_err(|e| format!("cluster start: {e:?}"))?;
    let replayed = replay::replay(&cluster, wl, traced.drive.conns as usize, REPLAY_CAP, epoch);
    cluster.shutdown();
    let rig_problems = finish_rigs(rigs, wl.config.read_timeout);
    let replayed = replayed?;

    let mut report = Report {
        client_cpu_us_per_req: ratio(
            us(untraced.drive.client_cpu_ns),
            untraced.drive.attempted as f64,
        ),
        ..Report::default()
    };
    report.metrics = layer_metrics(&untraced, &traced, &replayed, report.client_cpu_us_per_req);
    if let Some(sib) = &sibling {
        report.notes.extend(cost_split(wl.kind, &untraced, sib));
    }
    if let Some(path) = spans_out {
        let mut spans: Vec<Span> = traced.drive.spans.clone();
        spans.extend_from_slice(&replayed.spans);
        span::write_csv(path, &spans)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    let mut phases = vec![&untraced, &traced];
    phases.extend(sibling.as_ref());
    finish(&mut report, &phases, rig_problems);
    Ok(report)
}

fn mean_ns(spans: &[Span], name: &str) -> (f64, u64) {
    let (sum, n) = span::total(spans, name);
    (ratio(sum as f64, n as f64), n)
}

fn layer_metrics(untraced: &Phase, traced: &Phase, r: &Replay, client_cpu: f64) -> Metrics {
    let mut m = Metrics::new();
    let spans = &traced.drive.spans;
    let n = traced.drive.attempted;
    let served = traced.served() as f64;
    let client_pct = |name: &str, q: f64| pct_us(&span::durations(spans, name), q);
    m.insert("client.connect_us_p50", client_pct("client.connect", 0.5));
    m.insert("client.ttfb_us_p50", client_pct("client.ttfb", 0.5));
    m.insert("client.ttfb_us_p99", client_pct("client.ttfb", 0.99));
    m.insert("client.transfer_us_p50", client_pct("client.transfer", 0.5));
    m.insert(
        "client.cpu_us_per_req",
        Metric::new(client_cpu, "us", untraced.drive.attempted),
    );

    let (parse, _) = span::total(&r.spans, "http.parse");
    m.insert(
        "http.parse_ns_per_req",
        Metric::new(ratio(parse as f64, r.parsed as f64), "ns", r.parsed),
    );
    let (head, heads) = mean_ns(&r.spans, "http.head");
    m.insert("http.head_ns_per_resp", Metric::new(head, "ns", heads));

    // P-HTTP requests after a connection's first are decided by
    // `assign_batch`; an HTTP/1.0 request is always its connection's
    // first, decided by `open_connection`.
    let (assign, assigned) = match r.assigned {
        0 => span::total(&r.spans, "frontend.open"),
        n => (span::total(&r.spans, "frontend.assign").0, n),
    };
    m.insert(
        "frontend.assign_ns_per_req",
        Metric::new(ratio(assign as f64, assigned as f64), "ns", assigned),
    );
    let (open, opens) = mean_ns(&r.spans, "frontend.open");
    m.insert("frontend.open_ns_per_conn", Metric::new(open, "ns", opens));
    let (close, closes) = mean_ns(&r.spans, "frontend.close");
    m.insert(
        "frontend.close_ns_per_conn",
        Metric::new(close, "ns", closes),
    );
    m.insert(
        "frontend.replication_factor",
        Metric::new(traced.replication_factor, "ratio", 1),
    );
    m.insert(
        "frontend.mapping_divergence",
        Metric::new(traced.mapping_divergence as f64, "count", 1),
    );
    m.insert(
        "frontend.feedback_reports_per_kreq",
        Metric::new(
            ratio(traced.feedback_reports as f64 * 1e3, n as f64),
            "1/kreq",
            n,
        ),
    );

    m.insert(
        "node.hit_ratio",
        Metric::new(traced.hit_ratio(), "ratio", served as u64),
    );
    m.insert(
        "node.lateral_ratio",
        Metric::new(
            ratio(traced.sum(|s| s.lateral_out), served),
            "ratio",
            served as u64,
        ),
    );
    m.insert(
        "node.disk_reads_per_kreq",
        Metric::new(
            ratio(traced.disk_reads() as f64 * 1e3, served),
            "1/kreq",
            served as u64,
        ),
    );
    let per_node: Vec<f64> = traced.nodes.iter().map(|s| s.served as f64).collect();
    let max = per_node.iter().copied().fold(0.0, f64::max);
    let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
    m.insert(
        "node.load_imbalance",
        Metric::new(ratio(max, mean), "ratio", per_node.len() as u64),
    );
    let (dq_sum, dq_n) = traced.drive.disk_queue;
    m.insert(
        "node.disk_queue_mean",
        Metric::new(ratio(dq_sum, dq_n as f64), "count", dq_n),
    );
    let (hit, hits) = mean_ns(&r.spans, "node.hit_serve");
    m.insert("node.hit_serve_ns", Metric::new(hit, "ns", hits));
    let (fill, fills) = span::total(&r.spans, "node.miss_fill");
    m.insert(
        "node.miss_fill_ns_per_kib",
        Metric::new(
            ratio(fill as f64, r.miss_fill_bytes as f64 / 1024.0),
            "ns/KiB",
            fills,
        ),
    );
    let (body, bodies) = span::total(&r.spans, "store.body");
    m.insert(
        "store.body_ns_per_kib",
        Metric::new(
            ratio(body as f64, r.store_body_bytes as f64 / 1024.0),
            "ns/KiB",
            bodies,
        ),
    );
    let lateral = span::durations(&r.spans, "node.lateral_fetch");
    m.insert("node.lateral_fetch_us_p50", pct_us(&lateral, 0.5));
    m.insert("node.lateral_fetch_us_p99", pct_us(&lateral, 0.99));

    let path_us = ratio(us(r.request_path_ns), r.requests as f64);
    m.insert(
        "reactor.residual_cpu_us_per_req",
        Metric::new(untraced.server_cpu_us_per_req() - path_us, "us", r.requests),
    );
    m.insert(
        "tracing.overhead_ratio",
        Metric::new(
            ratio(traced.throughput_rps(), untraced.throughput_rps()),
            "ratio",
            2,
        ),
    );
    m
}

/// The measured per-connection / per-request server CPU split, next to
/// the paper cost model's ratio. With `c` per connection and `r` per
/// request, HTTP/1.0 costs `r + c` per request and `phttp_hot` (32
/// requests per connection) `r + c/32`.
fn cost_split(kind: WorkloadKind, own: &Phase, sibling: &Phase) -> Vec<String> {
    let (phttp, http10) = match kind {
        WorkloadKind::PhttpHot => (own, sibling),
        _ => (sibling, own),
    };
    let per_conn_reqs = (HOT_BATCHES * HOT_BATCH_LEN) as f64;
    let p = phttp.server_cpu_us_per_req();
    let h = http10.server_cpu_us_per_req();
    let conn = (h - p) * per_conn_reqs / (per_conn_reqs - 1.0);
    let req = h - conn;
    let model = |c: ServerCosts| {
        (c.conn_establish_us + c.conn_teardown_us) as f64 / c.per_request_us as f64
    };
    vec![
        format!("cost split: server CPU per request phttp_hot {p:.3} us, http10_hot {h:.3} us"),
        format!(
            "cost split: measured per-connection {conn:.3} us, per-request {req:.3} us, ratio {:.3}",
            ratio(conn, req)
        ),
        format!(
            "cost split: cost model per-connection/per-request ratio apache {:.3}, flash {:.3}",
            model(ServerCosts::apache()),
            model(ServerCosts::flash())
        ),
    ]
}
