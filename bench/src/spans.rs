//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer — not `astro_telemetry::span`, which a later change will
//! reshape. A disabled recorder costs one branch per call, so the same
//! workload code runs traced and untraced.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes into the recorder (`None` = root);
/// `request` groups the spans of one request (0 = not request-scoped).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Append-only span store; written out once, when the run ends.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds between the recorder's creation and `t`.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a closed span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_us: f64,
        end_us: f64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us,
            end_us,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span named `name`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        self.record(name, parent, 0, start, end);
        out
    }

    /// Open a span whose children are recorded before it closes: reserves
    /// the index now, [`Recorder::close`] stamps the end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = self.now_us();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in microseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, us) in self
            .spans
            .iter()
            .map(|s| s.name)
            .zip(self_times(&self.spans))
        {
            *out.entry(name).or_insert(0.0) += us;
        }
        out
    }

    /// One JSON object per span: name, start, end, parent, request, self.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_us)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{self_us:.1}}}",
                s.name, s.request, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (requests
/// in flight together) and may stick out of the parent; the *union* of
/// their intervals, clipped to the parent, is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut edge = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 40.0),
            span("b", Some(0), 30.0, 60.0),  // overlaps a by 10
            span("c", Some(0), 80.0, 120.0), // sticks out of the root by 20
            span("a.inner", Some(1), 15.0, 20.0),
        ];
        let st = self_times(&spans);
        // Children cover [10,60] and [80,100]: 70 of the root's 100.
        assert_eq!(st[0], 30.0);
        assert_eq!(st[1], 25.0); // 30 minus the 5 of a.inner
        assert_eq!(st[2], 30.0);
        assert_eq!(st[3], 40.0);
        assert_eq!(st[4], 5.0);
    }

    #[test]
    fn nested_child_inside_a_sibling_is_not_subtracted_twice() {
        let spans = vec![
            span("root", None, 0.0, 50.0),
            span("wide", Some(0), 0.0, 50.0),
            span("narrow", Some(0), 10.0, 20.0), // wholly inside `wide`
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_still_runs_the_closure() {
        let mut rec = Recorder::new(false);
        let id = rec.open("x", None, 1);
        assert_eq!(rec.within("y", id, || 7), 7);
        rec.close(id);
        assert!(rec.spans().is_empty());
    }
}
