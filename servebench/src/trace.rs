//! Benchmark-side spans: recorded around each public call the benchmark
//! makes into a layer, kept in memory, and written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`engine.nninit` belongs
//! to `engine`). Self time is a span's duration minus the part covered by
//! its child spans.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// One thread's span log. Ids carry the recorder's index in their high
/// bits, so logs of different threads merge without collisions.
pub struct Recorder {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, index: u64) -> Recorder {
        Recorder { origin, next: (index << 40) | 1, spans: Vec::new() }
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    pub fn push(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        let span = Span { id, parent, name, start_ns: ns(start), end_ns: ns(end) };
        self.spans.push(span);
    }

    /// Records a span with a fresh id and returns that id.
    pub fn record(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.next_id();
        self.push(id, parent, name, start, end);
        id
    }
}

/// Runs `f` and, when a recorder is given, records it as one span.
pub fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    parent: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(rec) = rec.as_deref_mut() {
        rec.record(parent, name, start, end);
    }
    (out, end - start)
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        *children.entry(s.parent).or_default() += s.duration();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let covered = children.get(&s.id).copied().unwrap_or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += s.duration().saturating_sub(covered);
    }
    out
}

/// Self time summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (name, t) in totals_by_name(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_default() += t.self_time;
    }
    out
}

/// Writes every span as CSV (`id,parent,name,start_ns,end_ns`) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(out, "{},{},{},{},{}", s.id, s.parent, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}
