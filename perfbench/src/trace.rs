//! Spans the benchmark records around its own calls into the
//! crates' public functions. Nothing inside the program is instrumented:
//! a span covers one outside call (an experiment, a grid point, a probe
//! loop), so "self time" is the part of a span no child span covers.
//!
//! Recording is off in untraced runs (`--trace 0`): `span` then costs
//! one branch and the span list stays empty.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Dotted metric-style name, e.g. `experiments.fig6.17`.
    pub name: String,
    /// The pass or run the span belongs to.
    pub run: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store, shared by reference across pool workers.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id (for its own children). Returns `f`'s value.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u32>,
        run: u32,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span store").push(Span {
            id,
            parent,
            name: name.to_string(),
            run,
            start_ns,
            end_ns,
        });
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Sum of the durations (seconds) of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Spans as one JSON document (written out at the end of a traced
    /// run), each with its self time.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"run\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                crate::json::string(&s.name),
                s.run,
                s.start_ns,
                s.end_ns,
                self_time_ns(s, &spans),
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of it covered by its
/// direct children. Children that overlap one another (pool workers
/// running points concurrently) are merged first, so concurrent children
/// are not subtracted twice; child time outside the parent is ignored.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in kids {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.end_ns
        .saturating_sub(span.start_ns)
        .saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_duration() {
        let p = span(1, None, 100, 400);
        assert_eq!(self_time_ns(&p, std::slice::from_ref(&p)), 300);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 70);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Two pool workers run children concurrently: [10,60) and [40,90)
        // cover 80 ns together, not 100.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 90),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 20);
        // A child nested inside another is covered once.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(1), 10, 20),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 50);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_clips_children() {
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 20, 40),
            span(3, Some(2), 0, 100),  // grandchild: counted under 2, not 1
            span(4, Some(1), 90, 130), // overhangs the parent's end
        ];
        assert_eq!(self_time_ns(&all[0], &all), 70);
        assert_eq!(self_time_ns(&all[1], &all), 0);
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, 0, |id| id), None);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", None, 3, |outer| {
            on.span("inner", outer, 3, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.run, 3);
        assert!(on.to_json().contains("\"name\": \"inner\""));
    }
}
