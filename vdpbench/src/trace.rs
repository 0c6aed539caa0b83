//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function runs
//! inside [`span`]. A span has a name, a start, an end, its parent span (the
//! one open on the same thread when it began) and the number of operations
//! it covers. Calls made once per report (`send_report`,
//! `append_framed_report`, `FrameReader::push`) are wrapped per run of
//! consecutive calls, with the run's length as the count: a span per
//! 50-nanosecond call would cost more than the call it times.
//!
//! Spans stay in a per-thread buffer; worker threads hand theirs to the
//! main thread with [`take_thread`] and [`absorb`], and [`write_jsonl`]
//! writes everything out when the run ends. With tracing off, [`span`] is a
//! single thread-local flag test around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept per run; beyond this, spans are counted as dropped and the
/// per-layer figures come from the spans kept.
const MAX_SPANS: usize = 2_000_000;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch, so spans from different threads share one clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: Option<usize>,
    pub count: u64,
    pub thread: u32,
}

#[derive(Default)]
struct Buffer {
    on: bool,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

thread_local! {
    static BUF: RefCell<Buffer> = RefCell::new(Buffer::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on or off for the calling thread, labelling its spans
/// with `thread`.
pub fn enable(on: bool, thread: u32) {
    epoch();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.on = on;
        b.thread = thread;
    });
}

/// Whether the calling thread records spans.
pub fn enabled() -> bool {
    BUF.with(|b| b.borrow().on)
}

/// Run `f` inside a span named `name` covering `count` operations.
pub fn span<R>(name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
    let idx = BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.on {
            return None;
        }
        if b.spans.len() >= MAX_SPANS {
            b.dropped += 1;
            return None;
        }
        let parent = b.open.last().copied();
        let thread = b.thread;
        let idx = b.spans.len();
        b.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            count,
            thread,
        });
        b.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.spans[idx].end_ns = now_ns();
            b.open.pop();
        });
    }
    out
}

/// A thread's finished spans, for handing to the main thread.
pub struct ThreadSpans {
    spans: Vec<Span>,
    dropped: u64,
}

/// Take the calling thread's spans out of its buffer.
pub fn take_thread() -> ThreadSpans {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        ThreadSpans {
            spans: std::mem::take(&mut b.spans),
            dropped: std::mem::take(&mut b.dropped),
        }
    })
}

/// Append another thread's spans to the calling thread's buffer, rebasing
/// their parent indices.
pub fn absorb(other: ThreadSpans) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let base = b.spans.len();
        b.dropped += other.dropped;
        b.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    });
}

/// Per-name totals: spans, operations, and self time (duration minus the
/// part covered by child spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub spans: u64,
    pub count: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Self time per operation in nanoseconds (0 with no operations).
    pub fn ns_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Aggregate the calling thread's buffer (after [`absorb`]) by span name.
pub fn totals() -> BTreeMap<&'static str, Totals> {
    BUF.with(|b| {
        let b = b.borrow();
        let mut child_ns = vec![0u64; b.spans.len()];
        for s in &b.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in b.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.count += s.count;
            t.self_ns += s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
        }
        out
    })
}

/// Spans recorded and spans dropped past the cap.
pub fn recorded() -> (usize, u64) {
    BUF.with(|b| {
        let b = b.borrow();
        (b.spans.len(), b.dropped)
    })
}

/// Write the calling thread's buffer as JSON lines, one span per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    BUF.with(|b| -> std::io::Result<()> {
        let b = b.borrow();
        for (i, s) in b.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.thread, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_threads_merge() {
        enable(true, 0);
        span("outer", 1, || {
            span("inner", 4, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let worker = std::thread::spawn(|| {
            enable(true, 1);
            span("worker", 2, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            take_thread()
        })
        .join()
        .expect("worker thread");
        absorb(worker);
        let t = totals();
        assert_eq!(t["inner"].count, 4);
        assert!(t["inner"].self_ns >= 5_000_000);
        assert!(t["outer"].self_ns < t["inner"].self_ns);
        assert_eq!(t["worker"].spans, 1);
        enable(false, 0);
        span("off", 1, || ());
        assert!(!totals().contains_key("off"));
        let _ = take_thread();
    }
}
