//! CPU time from the kernel's per-thread accounting in `/proc`.
//!
//! `schedstat`'s first field is the nanoseconds a task has run on a
//! CPU. The benchmark splits its own process into client threads and
//! everything else (the cluster's event loop, control and timer
//! threads), so server CPU is measured without changing the program.

use std::collections::HashMap;

/// The host's CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn schedstat_ns(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds the calling thread has run so far.
pub fn this_thread_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").expect("/proc/thread-self/schedstat is readable")
}

/// The calling thread's kernel task id.
pub fn this_thread_tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self is a link");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self ends in the task id")
}

/// Task ids of every live thread of this process.
pub fn live_tids() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(|n| n.parse().ok()))
        .collect()
}

/// The whole machine's CPU ticks from `/proc/stat`: the ticks the
/// hypervisor gave to other guests (steal) and all ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub steal: u64,
    pub total: u64,
}

impl HostTicks {
    /// Samples the `cpu` line: user, nice, system, idle, iowait, irq,
    /// softirq, steal (guest time is already counted in user).
    pub fn sample() -> HostTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The ticks from `self` to `later`.
    pub fn until(&self, later: &HostTicks) -> HostTicks {
        HostTicks {
            steal: later.steal.saturating_sub(self.steal),
            total: later.total.saturating_sub(self.total),
        }
    }
}

/// A sample of the CPU time of every thread of this process except
/// the excluded ones.
#[derive(Debug, Clone, Default)]
pub struct TaskCpu(HashMap<u32, u64>);

impl TaskCpu {
    /// Samples every live task not in `exclude`.
    pub fn sample(exclude: &[u32]) -> TaskCpu {
        let mut tasks = HashMap::new();
        for tid in live_tids() {
            if exclude.contains(&tid) {
                continue;
            }
            // A task may exit between the listing and the read.
            if let Some(ns) = schedstat_ns(&format!("/proc/self/task/{tid}/schedstat")) {
                tasks.insert(tid, ns);
            }
        }
        TaskCpu(tasks)
    }

    /// CPU nanoseconds the sampled tasks ran between `self` and
    /// `later`. A task born in between counts from zero; one that
    /// exited in between is lost, so sample while the tasks of interest
    /// are alive.
    pub fn delta_ns(&self, later: &TaskCpu) -> u64 {
        later
            .0
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum()
    }
}
