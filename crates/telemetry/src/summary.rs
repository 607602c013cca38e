//! Human-readable end-of-run summary: the span tree with wall times and
//! derived rates, followed by a metrics table.
//!
//! ```text
//! ── run summary ──────────────────────────────────
//! study.pretrain_native tier=S7b        12.42s
//!   train kind=lm                       12.40s  [tokens 53760, 4.3k tok/s]
//! study.cpt recipe=aic                   4.01s
//! ...
//! counters:
//!   train.tokens                      215040
//! histograms (n, mean, p50/p95/p99, max):
//!   gateway.queue_wait_us          n=600      mean=120.0      84/412/980 max=1100
//! ```

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;

/// Render the full summary (span tree + metrics) from the current global
/// state.
pub fn render() -> String {
    render_from(&crate::span::snapshot(), &crate::metrics::snapshot())
}

/// Render from explicit snapshots (testable without global state).
pub fn render_from(spans: &[SpanRecord], metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("── run summary ─────────────────────────────────────────────\n");
    // Children sorted by start time under each parent; roots at depth 0.
    // A span's id is its position in the registry, so `parent` indexes
    // `spans` directly.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if p < spans.len() && p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let by_start = |xs: &mut Vec<usize>| xs.sort_by_key(|&i| spans[i].start_us);
    by_start(&mut roots);
    for c in children.iter_mut() {
        by_start(c);
    }
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        out.push_str(&render_span_line(s, depth));
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }

    if !metrics.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &metrics.counters {
            out.push_str(&format!("  {name:<42} {v}\n"));
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &metrics.gauges {
            out.push_str(&format!("  {name:<42} {v}\n"));
        }
    }
    let live_hists: Vec<_> = metrics.histograms.iter().filter(|(_, h)| h.count > 0).collect();
    if !live_hists.is_empty() {
        out.push_str("histograms (n, mean, p50/p95/p99, max):\n");
        for (name, h) in live_hists {
            out.push_str(&format!(
                "  {name:<30} n={:<8} mean={:<10.1} {:.0}/{:.0}/{:.0} max={:.0}\n",
                h.count, h.mean, h.p50, h.p95, h.p99, h.max
            ));
        }
    }
    out
}

fn render_span_line(s: &SpanRecord, depth: usize) -> String {
    let indent = "  ".repeat(depth);
    let mut label = s.name.clone();
    for (k, v) in &s.attrs {
        label.push_str(&format!(" {k}={v}"));
    }
    let dur_s = s.duration_us() as f64 / 1e6;
    let mut line = format!("{indent}{label:<46} {:>9}", human_secs(dur_s));
    if s.end_us.is_none() {
        line.push_str("  (open)");
    }
    let mut extras: Vec<String> = Vec::new();
    for (k, v) in &s.nums {
        extras.push(format!("{k} {}", human_count(*v)));
        // A recorded token count gets a derived rate over the span's wall
        // time — the number perf PRs will quote.
        if k == "tokens" && dur_s > 0.0 {
            extras.push(format!("{} tok/s", human_count(*v / dur_s)));
        }
    }
    if !extras.is_empty() {
        line.push_str(&format!("  [{}]", extras.join(", ")));
    }
    line.push('\n');
    line
}

fn human_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

fn human_count(v: f64) -> String {
    if v.abs() >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v.abs() >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistSummary, MetricsSnapshot};

    fn rec(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            attrs: Vec::new(),
            nums: Vec::new(),
            start_us: start,
            end_us: Some(end),
        }
    }

    #[test]
    fn tree_indents_children_and_orders_by_start() {
        let mut a = rec(0, None, "study.pretrain", 0, 2_000_000);
        a.attrs.push(("tier".into(), "S7b".into()));
        let mut b = rec(1, Some(0), "train", 100, 1_900_000);
        b.nums.push(("tokens".into(), 9000.0));
        let c = rec(2, None, "study.cpt", 2_000_001, 3_000_000);
        let out = render_from(&[a, b, c], &MetricsSnapshot::default());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("study.pretrain tier=S7b"), "{out}");
        assert!(lines[2].starts_with("  train"), "{out}");
        assert!(lines[2].contains("tok/s"), "{out}");
        assert!(lines[3].starts_with("study.cpt"), "{out}");
    }

    #[test]
    fn metrics_sections_render() {
        let snap = MetricsSnapshot {
            counters: vec![("train.tokens".into(), 215040)],
            gauges: vec![("gateway.queue_depth".into(), 0)],
            histograms: vec![
                (
                    "gateway.queue_wait_us".into(),
                    HistSummary {
                        count: 600,
                        mean: 120.0,
                        p50: 84.0,
                        p95: 412.0,
                        p99: 980.0,
                        min: 60.0,
                        max: 1100.0,
                        exemplar: None,
                    },
                ),
                (
                    "empty.hist".into(),
                    HistSummary {
                        count: 0,
                        mean: 0.0,
                        p50: 0.0,
                        p95: 0.0,
                        p99: 0.0,
                        min: 0.0,
                        max: 0.0,
                        exemplar: None,
                    },
                ),
            ],
        };
        let out = render_from(&[], &snap);
        assert!(out.contains("train.tokens"), "{out}");
        assert!(out.contains("gateway.queue_depth"), "{out}");
        assert!(out.contains("84/412/980"), "{out}");
        assert!(!out.contains("empty.hist"), "zero-count histograms are elided: {out}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_secs(0.000001), "1µs");
        assert_eq!(human_secs(0.0123), "12.3ms");
        assert_eq!(human_secs(75.0), "75.00s");
        assert_eq!(human_count(999.0), "999");
        assert_eq!(human_count(4300.0), "4.3k");
        assert_eq!(human_count(2_500_000.0), "2.5M");
    }
}
