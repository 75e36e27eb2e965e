//! Span recording for the traced mode. A span wraps one benchmark call
//! into a layer's public function; spans stay in memory and are written
//! at exit as Chrome Trace Event JSON plus a per-layer self-time table.
//!
//! When tracing is off, [`span`] returns an inert guard and records
//! nothing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new
    /// span is the top of this stack.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub job: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_tag() -> u64 {
    thread_local!(static TAG: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span for one call into `layer`; it closes when the guard
/// drops. `job` groups the spans of one benchmark operation.
pub fn span(name: &'static str, layer: &'static str, job: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    let start_ns = now_ns();
    Guard(Some(Span {
        id,
        parent,
        name,
        layer,
        job,
        tid: thread_tag(),
        start_ns,
        end_ns: 0,
    }))
}

pub struct Guard(Option<Span>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut s) = self.0.take() {
            s.end_ns = now_ns();
            STACK.with(|st| st.borrow_mut().pop());
            if let Ok(mut all) = SPANS.lock() {
                all.push(s);
            }
        }
    }
}

/// Take every recorded span.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("trace spans lock"))
}

/// Per-layer self time in nanoseconds: a span's duration minus the part
/// its child spans cover (children nest on the parent's thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_layer: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_layer.entry(s.layer).or_default();
        e.0 += own;
        e.1 += 1;
    }
    by_layer
}

pub fn self_time_table(spans: &[Span]) -> String {
    let table = self_times(spans);
    let total: u64 = table.values().map(|v| v.0).sum::<u64>().max(1);
    let mut out = String::from("layer            spans     self_ms   share\n");
    for (layer, (ns, n)) in &table {
        let _ = writeln!(
            out,
            "{layer:<16} {n:>6} {:>11.3} {:>6.1}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total as f64
        );
    }
    out
}

/// Chrome Trace Event JSON ("X" complete events, microsecond times).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.job
        );
    }
    out.push_str("]}\n");
    out
}
