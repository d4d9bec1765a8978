//! In-memory span recorder for traced runs.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API: `(id, parent, name, start, end, thread)`. Spans are kept in
//! memory and written out once, when the run ends. Recording is off unless
//! [`enable`] was called, and then costs two clock reads and one short
//! mutex hold per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on or off for the whole process.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
            thread: THREAD.with(|t| *t),
        };
        // A poisoned sink only means another thread panicked mid-push;
        // the vector itself is still valid.
        sink().lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Opens a span named `name` under the innermost open span of this
/// thread. A no-op when recording is off.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now())),
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Takes every recorded span out of the recorder.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *sink().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer (the span name up to
/// its first `.`).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        // Children of one span run on its thread, one after another, so
        // their summed durations never exceed the parent's.
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer.to_string()).or_default() += own as f64 / 1e6;
    }
    out
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    w.flush()
}
