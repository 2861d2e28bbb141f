//! The traced run's recorder: a span around every call the harness makes
//! into a layer, kept in one preallocated vector and written out when the
//! benchmark ends. Off (the untraced run) a span costs one relaxed load.

use crate::json::Json;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Id of the span open on this thread when this one began; 0 for none.
    pub parent: u32,
    /// The workload call this span belongs to (0 when unknown, as for the
    /// servant, which runs on a server thread and sees no call id).
    pub call: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans beyond this are counted as dropped, not recorded: the vector never
/// reallocates inside a timed loop.
const CAPACITY: usize = 1 << 20;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static DROPPED: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording into an empty, preallocated vector.
pub fn start() {
    let mut spans = SPANS.lock().expect("no span holder panics");
    spans.clear();
    spans.reserve(CAPACITY);
    DROPPED.store(0, Ordering::Relaxed);
    now_ns();
    ON.store(true, Ordering::SeqCst);
}

/// Stops recording and takes what was recorded, plus the dropped count.
pub fn stop() -> (Vec<Span>, u32) {
    ON.store(false, Ordering::SeqCst);
    let spans = std::mem::take(&mut *SPANS.lock().expect("no span holder panics"));
    (spans, DROPPED.load(Ordering::Relaxed))
}

/// An open span; recorded when dropped.
pub struct Open {
    live: Option<(Span, u32)>,
}

/// Opens a span named `name` for workload call `call`, child of whatever
/// span this thread has open.
pub fn span(name: &'static str, call: u64) -> Open {
    if !ON.load(Ordering::Relaxed) {
        return Open { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.replace(id);
    Open { live: Some((Span { name, id, parent, call, start_ns: now_ns(), end_ns: 0 }, parent)) }
}

impl Drop for Open {
    fn drop(&mut self) {
        let Some((mut span, parent)) = self.live.take() else {
            return;
        };
        span.end_ns = now_ns();
        CURRENT.set(parent);
        // A poisoned lock means a recorder panicked: drop the span rather
        // than panic inside drop.
        if let Ok(mut spans) = SPANS.lock() {
            if spans.len() < CAPACITY {
                spans.push(span);
                return;
            }
        }
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per span name: how many, and the median of duration and of self time
/// (duration minus the part its child spans cover).
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub p50_ns: u64,
    pub self_p50_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: Vec<(&'static str, Vec<u64>, Vec<u64>)> = Vec::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, totals, owns)) => {
                totals.push(total);
                owns.push(own);
            }
            None => by_name.push((s.name, vec![total], vec![own])),
        }
    }
    by_name
        .into_iter()
        .map(|(name, mut totals, mut owns)| {
            totals.sort_unstable();
            owns.sort_unstable();
            NameSummary {
                name,
                count: totals.len(),
                p50_ns: crate::stats::percentile(&totals, 0.5),
                self_p50_ns: crate::stats::percentile(&owns, 0.5),
            }
        })
        .collect()
}

/// The trace file keeps the first spans only: enough to read a timeline,
/// small enough to write on every traced run.
const FILE_SPANS: usize = 20_000;

pub fn to_json(workload: &str, spans: &[Span], dropped: u32) -> Json {
    let rows = spans.iter().take(FILE_SPANS).map(|s| {
        Json::obj([
            ("name", Json::Str(s.name.to_owned())),
            ("id", Json::Num(f64::from(s.id))),
            ("parent", Json::Num(f64::from(s.parent))),
            ("call", Json::Num(s.call as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ])
    });
    Json::obj([
        ("workload", Json::Str(workload.to_owned())),
        ("recorded", Json::Num(spans.len() as f64)),
        ("dropped", Json::Num(f64::from(dropped))),
        ("written", Json::Num(spans.len().min(FILE_SPANS) as f64)),
        ("spans", Json::Arr(rows.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            call: 1,
            start_ns,
            end_ns,
        };
        let spans = [
            s("call", 1, 0, 0, 100),
            s("wire.marshal", 2, 1, 5, 15),
            s("orb.invoke", 3, 1, 20, 90),
            s("servant", 4, 0, 40, 45),
        ];
        let sum = summarize(&spans);
        let get = |n: &str| sum.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!((get("call").p50_ns, get("call").self_p50_ns), (100, 20));
        assert_eq!((get("orb.invoke").p50_ns, get("orb.invoke").self_p50_ns), (70, 70));
        assert_eq!(get("servant").count, 1);
    }

    #[test]
    fn nested_spans_record_their_parent_and_off_costs_nothing() {
        assert!(span("ignored", 0).live.is_none());
        start();
        {
            let _outer = span("outer", 9);
            let _inner = span("inner", 9);
        }
        let (spans, dropped) = stop();
        assert_eq!(dropped, 0);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((outer.parent, inner.parent, inner.call), (0, outer.id, 9));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
