//! The benchmark's own spans: taken around its calls into each layer's
//! public functions (nothing inside the library crates is instrumented),
//! kept in memory, and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u64,
    /// Request id shared by the spans of one request (0 = none).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs the call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own children with (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking phase")
            .push(Span {
                id,
                parent,
                req,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking phase")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Durations (ns) of the spans whose parent is `parent`.
    pub fn children_ns(&self, parent: u64) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking phase")
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Write every span as tab-separated rows, ordered by start time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking phase")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
