//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions (directly, or through the metric
//! wrappers in [`crate::wrappers`]). Each span has a name, start, end,
//! parent span and request id; they stay in memory until the run ends and
//! are then aggregated into per-layer self times and written out.
//!
//! The recorder is thread-local: every workload runs on one thread. When
//! tracing is off, [`span`] is a single flag test around the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` value of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
        counters: BTreeMap::new(),
    });
}

/// `true` while spans and counters are being recorded.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Starts recording (discarding anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.request = 0;
        r.counters.clear();
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops recording and hands back everything recorded.
pub fn stop() -> Trace {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        Trace {
            spans: std::mem::take(&mut r.spans),
            counters: std::mem::take(&mut r.counters),
        }
    })
}

/// Runs `f` with recording suspended.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let was = enabled();
    ENABLED.with(|e| e.set(false));
    let result = f();
    ENABLED.with(|e| e.set(was));
    result
}

/// Tags the spans opened from now on with request id `id`.
pub fn set_request(id: u32) {
    if enabled() {
        RECORDER.with(|r| r.borrow_mut().request = id);
    }
}

/// Runs `f` inside a span called `name` (a plain call when tracing is off).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let request = r.request;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[idx as usize].end_ns = end_ns;
        r.open.pop();
    });
    out
}

/// Adds `delta` to counter `name` (no-op when tracing is off).
#[inline]
pub fn count(name: &'static str, delta: f64) {
    if enabled() {
        RECORDER.with(|r| *r.borrow_mut().counters.entry(name).or_insert(0.0) += delta);
    }
}

/// Everything one traced pass recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
}

/// Per-name aggregate of a [`Trace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl Trace {
    /// Counter value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name total and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span to `path` (creating its directory).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        start();
        set_request(7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            count("things", 2.0);
        });
        let trace = stop();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, 0);
        assert!(trace.spans.iter().all(|s| s.request == 7));
        let layers = trace.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(trace.counter("things"), 2.0);
        assert!(!enabled());
        span("ignored", || ());
        assert!(stop().spans.is_empty());
    }
}
