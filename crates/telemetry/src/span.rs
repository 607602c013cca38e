//! Hierarchical wall-clock spans with a thread-safe, **bounded** global
//! registry.
//!
//! A span measures one stage of the pipeline (`study.cpt`,
//! `eval.full_instruct`, …). Spans nest: each thread keeps a stack of open
//! spans, and a new span's parent is whatever is on top of the creating
//! thread's stack. Spans opened on worker threads therefore become roots
//! there; what ties a request's work on several threads together is its
//! trace ([`crate::trace`]), which a span joins with
//! [`SpanGuard::set_trace`].
//!
//! Closing a span (RAII drop) stamps its end time, emits a `span_end`
//! event to the sink, and leaves the record in the registry for the
//! end-of-run summary tree ([`crate::summary`]). The registry holds at
//! most [`set_capacity`] records: once over capacity, the oldest *closed*
//! spans retire into the bounded ring in [`crate::trace`]
//! ([`crate::trace::retired_spans`]), so a long-running server does not
//! leak span memory. Span ids are stable across retirement (they are
//! allocation-ordered, not positional).

use crate::event::Event;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One recorded span. `end_us` is `None` while the span is open.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Allocation-ordered span id (stable across registry retirement).
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
    /// The trace this span belongs to, if any.
    pub trace: Option<u128>,
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

/// Default registry capacity; override with [`set_capacity`].
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

struct Registry {
    /// Live records; `spans[i]` has id `base + i`.
    spans: VecDeque<SpanRecord>,
    /// Id of the oldest record still in `spans`.
    base: usize,
    /// Retirement threshold.
    capacity: usize,
}

impl Registry {
    fn get_mut(&mut self, id: usize) -> Option<&mut SpanRecord> {
        let idx = id.checked_sub(self.base)?;
        self.spans.get_mut(idx)
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    spans: VecDeque::new(),
    base: 0,
    capacity: DEFAULT_SPAN_CAPACITY,
});

/// Pop closed spans off the front while over capacity. Only a contiguous
/// closed prefix retires (ids are `base`-offset positions, so retirement
/// must not punch holes); a long-open front span pins what follows, which
/// is bounded by the number of live guards.
fn retire_excess(reg: &mut Registry) -> Vec<SpanRecord> {
    let mut retired = Vec::new();
    while reg.spans.len() > reg.capacity {
        match reg.spans.front() {
            Some(front) if front.end_us.is_some() => {
                if let Some(s) = reg.spans.pop_front() {
                    reg.base += 1;
                    retired.push(s);
                }
            }
            _ => break,
        }
    }
    retired
}

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
        let id = reg.base + reg.spans.len();
        reg.spans.push_back(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            attrs,
            nums: Vec::new(),
            start_us,
            end_us: None,
            trace: None,
        });
        id
    };
    STACK.with(|s| s.borrow_mut().push(id));
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

    /// Associate the span with a trace.
    pub fn set_trace(&self, trace: u128) {
        let (_order, mut reg) =
            crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
        if let Some(rec) = reg.get_mut(self.id) {
            rec.trace = Some(trace);
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
        // A guard outliving a `reset()` finds no record; close silently.
        let (info, retired) = {
            let (_order, mut reg) =
                crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
            let info = match reg.get_mut(self.id) {
                Some(rec) => {
                    rec.end_us = Some(end_us);
                    Some((
                        rec.name.clone(),
                        rec.attrs.clone(),
                        rec.nums.clone(),
                        end_us.saturating_sub(rec.start_us),
                        rec.trace,
                    ))
                }
                None => None,
            };
            // Retire past-capacity closed spans now that this one closed
            // (outside the lock below: the trace ring has a lower rank).
            (info, retire_excess(&mut reg))
        };
        if !retired.is_empty() {
            crate::trace::retire_spans(retired);
        }
        let Some((name, attrs, nums, dur_us, trace)) = info else { return };
        if crate::sink::is_active() {
            let mut e = Event::new("span_end")
                .str_field("span", &name)
                .u64_field("dur_us", dur_us);
            if let Some(t) = trace {
                e = e.str_field("trace", &crate::trace::TraceId(t).to_hex());
            }
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

/// Set the registry's retirement threshold (min 16). Shrinking retires
/// immediately; retired spans land in [`crate::trace::retired_spans`].
pub fn set_capacity(capacity: usize) {
    let retired = {
        let (_order, mut reg) =
            crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
        reg.capacity = capacity.max(16);
        retire_excess(&mut reg)
    };
    crate::trace::retire_spans(retired);
}

/// Snapshot the live registry (open spans included; retired spans are in
/// [`crate::trace::retired_spans`]).
pub fn snapshot() -> Vec<SpanRecord> {
    let (_order, reg) = crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
    reg.spans.iter().cloned().collect()
}

/// Clear the registry and the calling thread's span stack (tests and
/// multi-run binaries). Capacity is kept; ids restart from 0.
pub fn reset() {
    let (_order, mut reg) = crate::lockcheck::lock_ranked("telemetry.span.registry", &REGISTRY);
    reg.spans.clear();
    reg.base = 0;
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
            inner.set_trace(0xdef);
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
        assert_eq!((outer.trace, inner.trace), (None, Some(0xdef)));

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

    /// Retirement policy on a local registry (the global one is shared
    /// with concurrently running tests, so capacity is not shrunk here).
    #[test]
    fn retire_excess_pops_only_closed_prefix_and_keeps_ids_stable() {
        let mk = |id: usize, closed: bool| SpanRecord {
            id,
            parent: None,
            name: format!("s{id}"),
            attrs: Vec::new(),
            nums: Vec::new(),
            start_us: id as u64,
            end_us: closed.then_some(id as u64 + 1),
            trace: None,
        };
        let mut reg = Registry { spans: VecDeque::new(), base: 0, capacity: 2 };
        for (id, closed) in [(0, true), (1, true), (2, false), (3, true), (4, true)] {
            reg.spans.push_back(mk(id, closed));
        }
        let retired = retire_excess(&mut reg);
        // 0 and 1 retire; 2 is open and pins 3 and 4 despite capacity 2.
        assert_eq!(retired.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(reg.base, 2);
        assert_eq!(reg.spans.len(), 3);
        // Ids remain addressable after the base shift.
        assert_eq!(reg.get_mut(3).map(|s| s.id), Some(3));
        assert!(reg.get_mut(1).is_none(), "retired id no longer addressable");
        assert!(reg.get_mut(99).is_none());
        // Closing the pin lets the rest retire.
        if let Some(s) = reg.get_mut(2) {
            s.end_us = Some(10);
        }
        let retired = retire_excess(&mut reg);
        assert_eq!(retired.iter().map(|s| s.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(reg.base, 3);
        assert_eq!(reg.spans.len(), 2);
    }
}
