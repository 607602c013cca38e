//! Hierarchical wall-clock spans with a thread-safe, **bounded** global
//! registry: the summary tree of an offline run.
//!
//! A span measures one *stage* of the pipeline (`study.cpt`, `train`,
//! `eval`, `serve.score_batch`, `gateway.drain`, …). Spans nest: each
//! thread keeps a stack of open spans, and a new span's parent is whatever
//! is on top of the creating thread's stack, so spans opened on worker
//! threads are roots there. Requests are not spans: a served request is
//! described by its trace ([`crate::trace`]) and nothing else, and this
//! module shares no state with that one.
//!
//! Closing a span (RAII drop) stamps its end time, emits a `span_end`
//! event to the sink, and leaves the record in the registry for the
//! end-of-run summary tree ([`crate::summary`]). The registry holds at
//! most [`SPAN_CAPACITY`] records; past that a new span is an inert guard
//! (no record, no event) counted in `span.dropped`. A serving process
//! opens no span per request, so the bound is never met there; a span's
//! id is its position in the registry.

use crate::event::Event;
use std::cell::RefCell;
use std::sync::Mutex;

/// One recorded span. `end_us` is `None` while the span is open.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id: the record's position in the registry.
    pub id: usize,
    /// Parent span id, if any (same-thread nesting).
    pub parent: Option<usize>,
    /// Span name, e.g. `study.cpt`.
    pub name: String,
    /// String attributes attached at creation (`tier = "S70b"`).
    pub attrs: Vec<(String, String)>,
    /// Numeric measurements recorded during the span (`tokens`, …).
    pub nums: Vec<(String, f64)>,
    /// Start, microseconds since process epoch.
    pub start_us: u64,
    /// End, microseconds since process epoch.
    pub end_us: Option<u64>,
}

impl SpanRecord {
    /// Wall-clock duration in microseconds (up to now if still open).
    pub fn duration_us(&self) -> u64 {
        self.end_us.unwrap_or_else(crate::elapsed_us).saturating_sub(self.start_us)
    }

    /// Look up a numeric measurement by key.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.nums.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Most records the registry holds; spans opened past it are inert.
pub const SPAN_CAPACITY: usize = 8192;

/// Every span opened since start/reset; `REGISTRY[i]` has id `i`.
static REGISTRY: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard: the span closes when the guard drops.
#[must_use = "a span closes when its guard drops; bind it with `let _g = ...`"]
pub struct SpanGuard {
    id: usize,
}

/// Open a span with no attributes.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Open a span with string attributes; the parent is the top of the
/// calling thread's span stack.
pub fn span_with(name: &str, attrs: Vec<(String, String)>) -> SpanGuard {
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_us = crate::elapsed_us();
    let id = {
        let (_order, mut reg) =
            crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
        let id = reg.len();
        if id < SPAN_CAPACITY {
            reg.push(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                attrs,
                nums: Vec::new(),
                start_us,
                end_us: None,
            });
        }
        id
    };
    if id < SPAN_CAPACITY {
        STACK.with(|s| s.borrow_mut().push(id));
    } else {
        // Registry full: no record will ever sit at `id`, so the guard is
        // inert (every lookup misses).
        crate::metrics::counter("span.dropped").inc();
    }
    SpanGuard { id }
}

impl SpanGuard {
    /// The span's registry id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Record a numeric measurement on the open span (e.g. tokens
    /// processed, so the summary can derive a rate over the span's wall
    /// time).
    pub fn record_f64(&self, key: &str, v: f64) {
        let (_order, mut reg) =
            crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
        let Some(rec) = reg.get_mut(self.id) else { return };
        if let Some(slot) = rec.nums.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            rec.nums.push((key.to_string(), v));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = crate::elapsed_us();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        // Copy what the event needs, then release the lock before emitting.
        // An inert guard, or one outliving a `reset()`, finds no record;
        // close silently.
        let info = {
            let (_order, mut reg) =
                crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
            reg.get_mut(self.id).map(|rec| {
                rec.end_us = Some(end_us);
                (
                    rec.name.clone(),
                    rec.attrs.clone(),
                    rec.nums.clone(),
                    end_us.saturating_sub(rec.start_us),
                )
            })
        };
        let Some((name, attrs, nums, dur_us)) = info else { return };
        if crate::sink::is_active() {
            let mut e = Event::new("span_end")
                .str_field("span", &name)
                .u64_field("dur_us", dur_us);
            for (k, v) in &attrs {
                e = e.str_field(k, v);
            }
            for (k, v) in &nums {
                e = e.f64_field(k, *v);
            }
            e.emit();
        }
    }
}

/// Open a span, optionally with `key = value` attributes (values are
/// formatted with `Display`):
///
/// ```
/// let _g = astro_telemetry::span!("cpt", tier = "S70b", steps = 200);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span::span_with(
            $name,
            vec![$((stringify!($k).to_string(), $v.to_string())),+],
        )
    };
}

/// Snapshot the registry (open spans included).
pub fn snapshot() -> Vec<SpanRecord> {
    let (_order, reg) = crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
    reg.clone()
}

/// Clear the registry and the calling thread's span stack (tests and
/// multi-run binaries); ids restart from 0.
pub fn reset() {
    let (_order, mut reg) = crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
    reg.clear();
    drop(reg);
    drop(_order);
    STACK.with(|s| s.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test owns all assertions about the shared registry to avoid
    /// cross-test interference on the global state.
    #[test]
    fn nesting_timing_and_records() {
        let (outer_id, inner_id) = {
            let outer = crate::span!("outer", tier = "S7b");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let inner = crate::span!("inner");
            inner.record_f64("tokens", 1000.0);
            inner.record_f64("tokens", 2000.0); // overwrite, not duplicate
            (outer.id(), inner.id())
        };
        let spans = snapshot();
        let outer = spans.iter().find(|s| s.id == outer_id).unwrap();
        let inner = spans.iter().find(|s| s.id == inner_id).unwrap();

        // Nesting: inner's parent is outer; outer is a root.
        assert_eq!(inner.parent, Some(outer_id));
        assert!(outer.parent.is_none());
        assert_eq!(outer.attrs, vec![("tier".to_string(), "S7b".to_string())]);

        // Timing monotonicity: start <= inner start <= inner end <= outer end.
        let (os, oe) = (outer.start_us, outer.end_us.unwrap());
        let (is_, ie) = (inner.start_us, inner.end_us.unwrap());
        assert!(os <= is_ && is_ <= ie && ie <= oe, "{os} {is_} {ie} {oe}");
        assert!(outer.duration_us() >= inner.duration_us());
        assert!(outer.duration_us() >= 2000, "slept 2ms: {}", outer.duration_us());

        // Recorded numbers: overwritten, not duplicated.
        assert_eq!(inner.num("tokens"), Some(2000.0));
        assert_eq!(inner.nums.len(), 1);

        // Spans opened on another thread are roots.
        let handle = std::thread::spawn(|| {
            let g = crate::span!("worker");
            g.id()
        });
        let worker_id = handle.join().unwrap();
        let spans = snapshot();
        let worker = spans.iter().find(|s| s.id == worker_id).unwrap();
        assert!(worker.parent.is_none());
    }

    #[test]
    fn open_span_duration_grows() {
        let g = span("open");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let d1 = snapshot().iter().find(|s| s.id == g.id()).unwrap().duration_us();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let d2 = snapshot().iter().find(|s| s.id == g.id()).unwrap().duration_us();
        assert!(d2 > d1);
    }
}
