//! In-memory spans recorded by the benchmark's own code around its
//! calls into each layer, and the self-time arithmetic over them.
//!
//! A disabled tracer records nothing, so the end-to-end runs pay one
//! predictable branch per would-be span.

use std::time::Instant;

use crate::json::Value;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request share this id (0 = not tied to a request).
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. All tracers of one run share `origin`,
/// so their timestamps are comparable after merging.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between phases.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request_id: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Records an already-measured root interval (asynchronous work
    /// such as a client's send→reply wait, which does not nest).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request_id: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                request_id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are counted once,
/// and a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of the self times of all spans with this name, nanoseconds.
pub fn self_total_ns(spans: &[Span], name: &str) -> u64 {
    self_times_ns(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| *t)
        .sum()
}

/// Durations (ns) of all spans with this name.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The trace file: every span with its self time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    Value::obj([
        ("workload", Value::from(workload)),
        ("seed", Value::from(seed.to_string())),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .map(|(s, self_ns)| {
                        Value::obj([
                            ("name", Value::from(s.name)),
                            ("start_ns", Value::from(s.start_ns as f64)),
                            ("end_ns", Value::from(s.end_ns as f64)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Value::Null
                                } else {
                                    Value::from(f64::from(s.parent))
                                },
                            ),
                            ("request_id", Value::from(s.request_id as f64)),
                            ("self_ns", Value::from(self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; children 10..30 and 50..70; grandchild 12..20.
        let spans = vec![
            span(0, 100, NO_PARENT),
            span(10, 30, 0),
            span(50, 70, 0),
            span(12, 20, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children 10..40 and 30..60 overlap by 10; 90..120 overhangs
        // the parent by 20 and is clipped to 90..100.
        let spans = vec![
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(30, 60, 0),
            span(90, 120, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn open_close_nests_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.open("outer", 7);
        t.open("inner", 7);
        t.close();
        t.close();
        t.record("wait", 5, 9, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[2].dur_ns(), 4);

        let mut off = Tracer::new(false, Instant::now());
        off.open("x", 0);
        off.close();
        off.record("y", 0, 1, 0);
        assert!(off.spans().is_empty());
    }
}
