//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call into a layer
//! (a `simulate` call, a hypervisor cell, a workload `fill`, an RPC and
//! its send and receive halves). Each has a name, start, end, parent
//! and a request id shared by the spans of one request. They stay in
//! memory on the recording thread and are written out as JSON lines
//! when the run ends; self time is derived from them. Nothing is
//! recorded unless [`start`] installed a recorder on this thread, and
//! the untraced run never does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span (times in ns since the recorder started).
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the spans opened by [`enter`] and not yet closed.
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Removes this thread's recorder and returns its spans.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

fn ns_since(t0: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(t0).as_nanos() as u64
}

/// Opens a span nested in the innermost open one; it closes when the
/// guard drops. A no-op without a recorder.
pub fn enter(name: &'static str, req: u64) -> Guard {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let start_ns = ns_since(rec.t0, Instant::now());
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            req,
            parent: rec.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(idx);
        Some(idx)
    });
    Guard(idx)
}

/// Closes the span it was returned for.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = ns_since(rec.t0, Instant::now());
                rec.open.retain(|&i| i != idx);
            }
        });
    }
}

/// Records a finished span whose interval is known, for work that
/// does not nest on a stack (pipelined requests overlap each other).
/// Returns its index, for use as a parent. `None` without a recorder.
pub fn record(
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            req,
            parent,
            start_ns: ns_since(rec.t0, start),
            end_ns: ns_since(rec.t0, end),
        });
        Some(idx)
    })
}

/// Per span name: (spans, total ns, self ns). Self time is a span's
/// duration minus the durations of its children.
#[derive(Clone, Copy, Default)]
pub struct NameTimes {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn times_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTimes> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(kids);
    }
    out
}

/// Writes the spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        start();
        {
            let _outer = enter("outer", 1);
            let _inner = enter("inner", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let t = times_by_name(&spans);
        assert!(t["inner"].self_ns >= 2_000_000);
        assert!(t["outer"].self_ns < t["outer"].total_ns);
        assert!(enter("after_stop", 0).0.is_none());
    }
}
