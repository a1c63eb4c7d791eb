//! In-memory spans: recorded by the benchmark around its own calls into
//! each layer, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` is
/// the `id` of the span that caused this one (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer with its own id space.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// High bits of every id this recorder hands out.
    base: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `thread` distinguishes the id spaces of concurrent recorders.
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            base: (thread + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        self.next += 1;
        let id = self.base | self.next;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
            req,
        });
        id
    }

    /// Reserves an id for a span recorded later (a parent whose end is
    /// not known yet), so children can name it.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.base | self.next
    }

    /// Records a span under an id from [`reserve`](Self::reserve).
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
            req,
        });
    }
}

/// Durations (ns) of every span called `name`, ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    d.sort_unstable();
    d
}

/// Sum of the durations (ns) of every span called `name`, and their count.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(sum, n), s| (sum + s.dur_ns(), n + 1))
}

/// Writes spans as CSV: `name,start_ns,end_ns,id,parent,req`.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,id,parent,req")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        )?;
    }
    out.flush()
}
