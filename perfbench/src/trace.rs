//! In-memory spans and counts for the traced run.
//!
//! A span has a name, a start, an end and the span that caused it.  The
//! benchmark opens spans around its own calls into each layer's public
//! functions; nothing inside the program is instrumented.  Spans stay in
//! memory until [`Tracer::write`] dumps them, with a per-name summary of
//! total and self time (a span's duration minus the part of it its child
//! spans cover).  A disabled tracer records nothing and costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle of an open or closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    log: Mutex<Log>,
}

const DISABLED: SpanId = SpanId(usize::MAX);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("no thread panics while holding the trace log")
    }

    /// Opens a span; close it with [`end`](Tracer::end).
    pub fn start(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let start = self.origin.elapsed();
        let mut log = self.log();
        log.spans.push(Span {
            name,
            parent: parent.filter(|p| *p != DISABLED),
            start,
            end: None,
        });
        SpanId(log.spans.len() - 1)
    }

    /// Closes a span and returns its duration (zero when disabled).
    pub fn end(&self, id: SpanId) -> Duration {
        if id == DISABLED {
            return Duration::ZERO;
        }
        let end = self.origin.elapsed();
        let mut log = self.log();
        let span = &mut log.spans[id.0];
        span.end = Some(end);
        end - span.start
    }

    /// Runs `f` inside a span and returns its result with its duration.
    /// The duration is measured even when tracing is off.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let clock = Instant::now();
        let id = self.start(name, parent);
        let out = f(id);
        self.end(id);
        (out, clock.elapsed())
    }

    /// Adds `value` to the named count.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.log().counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Writes every span (`span id parent name start_ns end_ns`), every
    /// count, and a per-name summary of total and self time, as
    /// tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let log = self.log();
        let ns = |d: Duration| d.as_nanos();
        let mut out = String::from("# kind\tid\tparent\tname\tstart_ns\tend_ns\n");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); log.spans.len()];
        for (i, span) in log.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p.0].push(i);
            }
            let parent = span.parent.map_or("-".to_owned(), |p| p.0.to_string());
            let end = span.end.unwrap_or(span.start);
            writeln!(
                out,
                "span\t{i}\t{parent}\t{}\t{}\t{}",
                span.name,
                ns(span.start),
                ns(end)
            )
            .expect("writing to a String cannot fail");
        }
        for (name, value) in &log.counts {
            writeln!(out, "count\t{name}\t{value}").expect("writing to a String cannot fail");
        }
        // name → (spans, total, self)
        let mut summary: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
        for (i, span) in log.spans.iter().enumerate() {
            let end = span.end.unwrap_or(span.start);
            let total = end - span.start;
            let covered = union_length(
                children[i]
                    .iter()
                    .map(|&c| {
                        (
                            log.spans[c].start,
                            log.spans[c].end.unwrap_or(log.spans[c].start),
                        )
                    })
                    .collect(),
            );
            let entry = summary.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(covered);
        }
        for (name, (spans, total, own)) in summary {
            writeln!(
                out,
                "summary\t{name}\tspans={spans}\ttotal_ns={}\tself_ns={}",
                ns(total),
                ns(own)
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Total length covered by a set of intervals.
fn union_length(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_intervals() {
        let d = Duration::from_millis;
        assert_eq!(
            union_length(vec![(d(0), d(2)), (d(1), d(3)), (d(5), d(6))]),
            d(4)
        );
        assert_eq!(union_length(Vec::new()), Duration::ZERO);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.start("x", None);
        assert_eq!(t.end(id), Duration::ZERO);
        t.count("c", 1.0);
        let log = t.log();
        assert!(log.spans.is_empty() && log.counts.is_empty());
    }
}
