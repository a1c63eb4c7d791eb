//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload against the live loopback cluster and prints a
//! human-readable report, a `record` line with every stamp, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero when a response or an invariant is
//! wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{run_e2e, run_traced, Options, Report};
use perfbench::cpu::nproc;
use perfbench::stats::{json_num, json_str, metrics_json, ratio};
use perfbench::workload::{Scale, Workload, WorkloadKind};

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision, or `unknown` outside a git checkout.
fn git_rev() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = text.lines();
            let top = lines.next().map(|t| PathBuf::from(t).canonicalize().ok());
            match (top, lines.next()) {
                (Some(top), Some(rev)) if top == cwd => rev.to_owned(),
                _ => "unknown".into(),
            }
        }
        _ => "unknown".into(),
    }
}

fn print_report(args: &Args, wl: &Workload, opts: &Options, report: &Report) {
    let rev = git_rev();
    let date = phttp_bench::utc_date();
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "perfbench {} seed={} {mode} seconds={} nproc={} clients={} rev={rev} date={date}",
        wl.kind.name(),
        wl.seed,
        opts.seconds,
        nproc(),
        opts.clients
    );
    println!("config: {:?}", wl.config);
    for (name, m) in &report.metrics {
        let counts = match m.beyond {
            Some(b) => format!("n={} beyond={b}", m.samples),
            None => format!("n={}", m.samples),
        };
        println!(
            "{name:<36} {:>16} {:<7} {counts}",
            json_num(m.value),
            m.unit
        );
    }
    println!("client_cpu_us_per_req {}", report.client_cpu_us_per_req);
    println!("host_steal_ratio {}", report.host_steal_ratio);
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("BROKEN: {problem}");
    }
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \"clients\": {}, \
         \"git_rev\": {}, \"date\": {}, \"requests_per_pass\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_ratio\": {}, \"connect_retries\": {}, \"client_cpu_us_per_req\": {}, \"host_steal_ratio\": {}, \"proto_config\": {}, \
         \"metrics\": {}}}",
        json_str(wl.kind.name()),
        wl.seed,
        u8::from(args.trace),
        opts.seconds,
        nproc(),
        opts.clients,
        json_str(&rev),
        json_str(&date),
        wl.requests_per_pass(),
        report.attempted,
        report.failed,
        json_num(ratio(report.failed as f64, report.attempted as f64)),
        report.connect_retries,
        json_num(report.client_cpu_us_per_req),
        json_num(report.host_steal_ratio),
        json_str(&format!("{:?}", wl.config)),
        metrics_json(&report.metrics, true)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics, false)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <phttp_hot|phttp_trace|http10_hot> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let wl = Workload::generate(args.kind, args.seed, Scale::Full);
    let opts = Options::new(&wl, args.seconds);
    let spans = PathBuf::from(format!("perfbench/out/{}.spans.csv", wl.kind.name()));
    let result = if args.trace {
        run_traced(&wl, &opts, Some(&spans))
    } else {
        run_e2e(&wl, &opts)
    };
    match result {
        Ok(report) => {
            print_report(&args, &wl, &opts, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
