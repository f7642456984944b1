//! In-memory span recorder for the traced run.
//!
//! A span is a timed call into one public function. Spans nest per
//! thread: the innermost open span on the calling thread is the parent,
//! and every span carries the id of the operation (`op` root span) it
//! belongs to. Spans opened on threads the benchmark does not drive
//! (server connection threads) have no parent and op id 0; their cost
//! stays in whatever span encloses it on the client side.
//!
//! Recording is off unless [`set_enabled`] turned it on; an off span is
//! a single atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (starts at 1).
    pub id: u32,
    /// Enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Operation the span belongs to (0 = none).
    pub op: u64,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last, with their op ids.
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span store poisoned"))
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u32, Option<u32>, u64, &'static str, Instant)>,
}

/// Open a span named `name` under the current thread's innermost span.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Open the root span of operation `op`.
pub fn op(op: u64) -> Guard {
    open("op", Some(op))
}

fn open(name: &'static str, op: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, inherited) = match s.last() {
            Some(&(pid, pop)) => (Some(pid), pop),
            None => (None, 0),
        };
        let op = op.unwrap_or(inherited);
        s.push((id, op));
        (parent, op)
    });
    Guard {
        open: Some((id, parent, op, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(sid, _)| sid == id) {
                s.truncate(pos);
            }
        });
        let rec = recorder();
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: start.duration_since(rec.epoch).as_nanos() as u64,
            end_ns: end.duration_since(rec.epoch).as_nanos() as u64,
        };
        // A drop must not panic: a poisoned store loses the span.
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span_at(1, None, 0, 100),
            span_at(2, Some(1), 10, 40),
            span_at(3, Some(1), 50, 70),
            span_at(4, Some(2), 15, 35),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 20);
        assert_eq!(st[&2], 30 - 20);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 20);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_under_their_op() {
        set_enabled(true);
        {
            let _op = op(42);
            let _a = span("a");
            let _b = span("b");
        }
        set_enabled(false);
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.op == 42).collect();
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, a, b) = (find("op"), find("a"), find("b"));
        assert_eq!(root.parent, None);
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert!(root.start_ns <= a.start_ns && b.end_ns <= root.end_ns);
    }
}
