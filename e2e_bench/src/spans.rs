//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer of the program (or one whole
//! request). Each span records its name, start, end, the span that was
//! open when it started (its parent), the request it belongs to, how
//! many items the call processed (a batch call covers many traces) and
//! the phase it ran in. Spans stay in memory; the runner writes them
//! out when the run ends. With recording off a span is just the call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Which part of a run a span was recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The workload's own timed loop.
    Loop,
    /// Layer probes after the loop, for calls the loop does not make.
    Probe,
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub items: u32,
    pub phase: Phase,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans from one thread (every workload is a closed
/// loop with a single caller).
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    phase: Cell<Phase>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            phase: Cell::new(Phase::Loop),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Turns recording on or off between requests.
    pub fn set_on(&self, on: bool) {
        debug_assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.on.set(on);
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `items` items.
    pub fn span<R>(&self, name: &'static str, items: usize, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request: self.request.get(),
                items: items.max(1) as u32,
                phase: self.phase.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        // Stamp the start last, so bookkeeping above is not charged.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Runs `f` as a new request: a root span whose descendants share
    /// a fresh request id.
    pub fn request<R>(&self, name: &'static str, items: usize, f: impl FnOnce() -> R) -> R {
        self.request.set(self.request.get() + 1);
        self.span(name, items, f)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes spans as tab-separated lines:
/// `name  start_ns  end_ns  parent  request  items  phase`.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest\titems\tphase")?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let phase = match s.phase {
            Phase::Loop => "loop",
            Phase::Probe => "probe",
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.request, s.items, phase
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            items: 1,
            phase: Phase::Loop,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) > embed [10,30) > inner [12,20); search [40,90).
        let spans = vec![
            span("request", 0, 100, None),
            span("embed", 10, 30, Some(0)),
            span("inner", 12, 20, Some(1)),
            span("search", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 8, 50]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 95, 120, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 5);
    }

    #[test]
    fn tracer_nests_and_shares_request_ids() {
        let t = Tracer::new(true);
        t.request("request", 1, || {
            t.span("a", 1, || t.span("b", 4, || ()));
            t.span("c", 1, || ());
        });
        t.request("request", 1, || ());
        let spans = t.take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "a", "b", "c", "request"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0), None]);
        let requests: Vec<_> = spans.iter().map(|s| s.request).collect();
        assert_eq!(requests, [1, 1, 1, 1, 2]);
        assert_eq!(spans[2].items, 4);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", 1, || 7), 7);
        assert!(t.take().is_empty());
    }
}
