//! The traced run's span recorder: spans are taken in the benchmark's
//! own code around each call into a layer's public functions, kept in
//! memory, and written out when the run ends — as Chrome trace-event
//! JSON and as a per-layer self-time table.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans when enabled; when disabled, `span` only runs
/// its closure, so an untraced pass executes the same calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Total seconds and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur().as_secs_f64(), n + 1))
    }

    /// Per-span self time: duration minus the part its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur().as_secs_f64()).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur().as_secs_f64();
            }
        }
        own
    }

    /// The root span each span descends from.
    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Self time by span name under each root span (the run's phases),
    /// with each name's share of its phase's duration.
    pub fn self_time_table(&self) -> String {
        let own = self.self_times();
        let mut phases: BTreeMap<usize, BTreeMap<&'static str, (f64, usize)>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = phases
                .entry(self.root_of(i))
                .or_default()
                .entry(s.name)
                .or_default();
            entry.0 += own[i].max(0.0);
            entry.1 += 1;
        }
        let mut out = String::new();
        for (root, rows) in phases {
            let total = self.spans[root].dur().as_secs_f64();
            let _ = writeln!(
                out,
                "  phase {:<10} {:>10.3} s",
                self.spans[root].name, total
            );
            let mut rows: Vec<_> = rows.into_iter().collect();
            rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
            for (name, (secs, calls)) in rows {
                let _ = writeln!(
                    out,
                    "    {name:<34} {calls:>8} calls {secs:>10.4} s self {:>6.1}%",
                    if total > 0.0 {
                        100.0 * secs / total
                    } else {
                        0.0
                    }
                );
            }
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events in microseconds);
    /// `args` carries each span's id and its parent's id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"end_us\":{:.3}}}}}",
                json_str(s.name),
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_times();
        assert!(own[0] < own[1], "outer self {} inner {}", own[0], own[1]);
        assert!(t.chrome_json().contains("\"parent\":0"));
        assert!(t.self_time_table().contains("phase outer"));
    }

    #[test]
    fn disabled_tracer_runs_closures_without_spans() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
