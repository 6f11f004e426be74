//! In-memory span recording and self-time attribution for traced runs.
//!
//! Each thread of a traced pass records into its own [`ThreadTrace`]
//! (no locking on the hot path). A span has a name (the layer), start
//! and end, its parent span on the same thread, and the id of the cell
//! it belongs to. A layer's self time is its span's duration minus the
//! part of that interval its children cover; because every span of a
//! thread descends from one root, the self times of a thread add up to
//! the root's wall time, which [`ThreadTrace::self_time_residual_ns`]
//! checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `sim.workload` (see `traced::LAYERS`).
    pub name: &'static str,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<usize>,
    /// Cell id shared by every span of one cell.
    pub cell: Option<u64>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while open).
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one thread, recorded with a strict open/close stack.
#[derive(Debug)]
pub struct ThreadTrace {
    /// Thread label, e.g. `main` or `worker-1`.
    pub label: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl ThreadTrace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(label: impl Into<String>, epoch: Instant) -> ThreadTrace {
        ThreadTrace {
            label: label.into(),
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<u64>,
        f: impl FnOnce(&mut ThreadTrace) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start,
            end: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in stack order");
        self.spans[idx].end = end;
        out
    }

    /// Append an already closed span (tests build nested layouts with
    /// exact times this way).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, each clipped to the parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.dur() - covered(&mut kids))
            .collect()
    }

    /// Wall time of the thread: the summed duration of its root spans.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// |sum of self times - wall time| in ns; 0 when the parts add up
    /// to the whole.
    pub fn self_time_residual_ns(&self) -> u64 {
        let total: u64 = self.self_times().iter().sum();
        total.abs_diff(self.wall_ns())
    }

    /// Self time summed per layer name.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Render threads as Chrome trace-event JSON (loadable in Perfetto).
pub fn chrome_json(threads: &[ThreadTrace], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, t) in threads.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            if first { "" } else { "," },
            t.label
        );
        first = false;
        for (i, s) in t.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"cell\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cell.map_or("null".to_string(), |c| c.to_string()),
            );
        }
    }
    out.push_str("],\"metadata\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{k}\":\"{}\"",
            if i == 0 { "" } else { "," },
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            cell: None,
            start,
            end,
        }
    }

    /// root [0,100) > a [10,60) > b [20,30), b2 [40,50); root > c [70,90).
    fn nested() -> ThreadTrace {
        let mut t = ThreadTrace::new("w", Instant::now());
        let root = t.push(span("root", None, 0, 100));
        let a = t.push(span("a", Some(root), 10, 60));
        t.push(span("b", Some(a), 20, 30));
        t.push(span("b", Some(a), 40, 50));
        t.push(span("c", Some(root), 70, 90));
        t
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = nested();
        // root: 100 - (50 + 20); a: 50 - (10 + 10); b, b, c: leaves.
        assert_eq!(t.self_times(), vec![30, 30, 10, 10, 20]);
        let by = t.self_by_layer();
        assert_eq!(by["root"], 30);
        assert_eq!(by["a"], 30);
        assert_eq!(by["b"], 20);
        assert_eq!(by["c"], 20);
    }

    #[test]
    fn self_times_add_up_to_the_thread_wall() {
        let t = nested();
        assert_eq!(t.wall_ns(), 100);
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
        assert_eq!(t.self_time_residual_ns(), 0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut t = ThreadTrace::new("w", Instant::now());
        let root = t.push(span("root", None, 0, 100));
        t.push(span("x", Some(root), 10, 50));
        t.push(span("y", Some(root), 30, 70));
        // Children cover [10,70) once: root self = 40.
        assert_eq!(t.self_times()[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = ThreadTrace::new("w", Instant::now());
        let root = t.push(span("root", None, 10, 20));
        t.push(span("x", Some(root), 0, 15));
        assert_eq!(t.self_times()[0], 5);
    }

    #[test]
    fn recorded_spans_nest_and_add_up() {
        let mut t = ThreadTrace::new("w", Instant::now());
        t.span("root", None, |t| {
            t.span("a", Some(1), |t| t.span("b", Some(1), |_| ()));
            t.span("c", Some(2), |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(t.self_time_residual_ns(), 0);
    }

    #[test]
    fn chrome_json_is_valid() {
        let json = chrome_json(&[nested()], &[("host", "a \"b\"".into())]);
        qprac_obs::json::validate(&json).expect("valid JSON");
    }
}
