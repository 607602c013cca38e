//! Offline analyzer for the telemetry trace stream.
//!
//! The gateway writes finished request traces as single-line `trace`
//! events (see `astro_telemetry::trace::TraceRecord::to_json_line`).
//! This module reads those lines back — with the repo's own JSON-subset
//! parser, no new dependencies — and turns them into the three artifacts
//! operators actually look at (`astro-bench trace` is its CLI):
//!
//! * **waterfalls** ([`render_waterfall`]) — one ASCII timeline per
//!   trace, each phase a proportional bar, for eyeballing where a slow
//!   request spent its time;
//! * **a phase table** ([`render_phase_table`]) — exact p50/p95/p99/max
//!   per phase across every trace, the aggregate latency-attribution
//!   view `astro-bench trace phases` prints;
//! * **Chrome Trace Event JSON** ([`chrome_trace_json`]) — a
//!   `{"traceEvents":[...]}` export loadable in `chrome://tracing` /
//!   Perfetto, one complete (`"ph":"X"`) event per phase plus one per
//!   trace, grouped so each trace gets its own row.
//!
//! Parsing is tolerant by design: non-trace lines (spans, metrics, log
//! events share the same JSONL sink) are skipped, and a count of skipped
//! lines is reported rather than failing the file.

use astro_telemetry::event::write_json_string;
use astromlab::eval::json::Json;

/// One phase of a parsed trace: name plus `[start_us, end_us]` in the
/// emitting process's monotonic clock.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSlice {
    /// Phase name (`queue_wait`, `prefill`, …).
    pub name: String,
    /// Phase start, µs since the emitting process's epoch.
    pub start_us: u64,
    /// Phase end, µs; always `>= start_us`.
    pub end_us: u64,
}

impl PhaseSlice {
    /// Phase duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One parsed `trace` event.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedTrace {
    /// 32-hex-char trace id.
    pub id: String,
    /// Trace name, e.g. `gateway./v1/score`.
    pub name: String,
    /// Final status (HTTP status for gateway traces; 0 = dropped).
    pub status: u16,
    /// Trace start, µs since the emitting process's epoch.
    pub start_us: u64,
    /// Trace end, µs.
    pub end_us: u64,
    /// Why tail sampling kept this trace (`deadline`/`error`/`fault`/
    /// `slow`/`sampled`).
    pub keep: String,
    /// Flag labels set on the trace (`error`, `deadline`, `fault`, `slow`).
    pub flags: Vec<String>,
    /// Phases in recording order.
    pub phases: Vec<PhaseSlice>,
}

impl ParsedTrace {
    /// End-to-end duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Sum of phase durations; for gateway traces the phases tile the
    /// request's wall time, so this approximates [`Self::duration_us`].
    pub fn phase_total_us(&self) -> u64 {
        self.phases.iter().map(PhaseSlice::duration_us).sum()
    }
}

/// Result of reading a JSONL file: the traces plus a count of lines that
/// were not trace events (spans, metrics, logs, blanks).
#[derive(Clone, Debug, Default)]
pub struct ParseReport {
    /// Every successfully parsed trace, in file order.
    pub traces: Vec<ParsedTrace>,
    /// Lines skipped because they were not `trace` events.
    pub skipped: usize,
    /// Lines that looked like trace events but failed to parse, with
    /// 1-based line numbers and reasons.
    pub malformed: Vec<(usize, String)>,
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Json::Number(n)) if *n >= 0.0 && n.is_finite() => Ok(*n as u64),
        Some(_) => Err(format!("field {key:?} is not a non-negative number")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Json::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Parse one JSONL line as a trace event. `Ok(None)` means the line is
/// valid JSON but not a trace event (some other telemetry line).
pub fn parse_trace_line(line: &str) -> Result<Option<ParsedTrace>, String> {
    let v = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.get("event").and_then(Json::as_str) != Some("trace") {
        return Ok(None);
    }
    let mut phases = Vec::new();
    if let Some(Json::Array(items)) = v.get("phases") {
        for p in items {
            phases.push(PhaseSlice {
                name: field_str(p, "name")?,
                start_us: field_u64(p, "start_us")?,
                end_us: field_u64(p, "end_us")?,
            });
        }
    }
    let mut flags = Vec::new();
    if let Some(Json::Array(items)) = v.get("flags") {
        for f in items {
            if let Some(s) = f.as_str() {
                flags.push(s.to_string());
            }
        }
    }
    Ok(Some(ParsedTrace {
        id: field_str(&v, "trace")?,
        name: field_str(&v, "name")?,
        status: field_u64(&v, "status")? as u16,
        start_us: field_u64(&v, "start_us")?,
        end_us: field_u64(&v, "end_us")?,
        keep: field_str(&v, "keep")?,
        flags,
        phases,
    }))
}

/// Parse a whole JSONL document (one event per line).
pub fn parse_jsonl(text: &str) -> ParseReport {
    let mut report = ParseReport::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_trace_line(line) {
            Ok(Some(t)) => report.traces.push(t),
            Ok(None) => report.skipped += 1,
            Err(e) => report.malformed.push((i + 1, e)),
        }
    }
    report
}

/// Aggregate latency statistics for one phase name across many traces.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// How many traces recorded this phase at least once.
    pub count: usize,
    /// Median per-trace duration, µs.
    pub p50_us: u64,
    /// 95th-percentile per-trace duration, µs.
    pub p95_us: u64,
    /// 99th-percentile per-trace duration, µs.
    pub p99_us: u64,
    /// Maximum per-trace duration, µs.
    pub max_us: u64,
    /// Sum across all traces, µs — the attribution denominator.
    pub total_us: u64,
}

/// Exact (nearest-rank) percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Compute per-phase statistics. A trace contributes one sample per
/// phase name (durations summed if the phase repeats within the trace);
/// phases appear in first-seen order across the file.
pub fn phase_stats(traces: &[ParsedTrace]) -> Vec<PhaseStat> {
    let mut order: Vec<String> = Vec::new();
    let mut samples: std::collections::HashMap<String, Vec<u64>> =
        std::collections::HashMap::new();
    for t in traces {
        let mut per_trace: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for p in &t.phases {
            *per_trace.entry(p.name.as_str()).or_insert(0) += p.duration_us();
        }
        // Preserve first-seen order via the trace's own phase sequence.
        for p in &t.phases {
            if !order.iter().any(|n| n == &p.name) {
                order.push(p.name.clone());
            }
        }
        for (name, dur) in per_trace {
            samples.entry(name.to_string()).or_default().push(dur);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let mut xs = samples.remove(&name).unwrap_or_default();
            xs.sort_unstable();
            PhaseStat {
                count: xs.len(),
                p50_us: percentile(&xs, 50.0),
                p95_us: percentile(&xs, 95.0),
                p99_us: percentile(&xs, 99.0),
                max_us: xs.last().copied().unwrap_or(0),
                total_us: xs.iter().sum(),
                name,
            }
        })
        .collect()
}

/// Render the per-phase attribution table: p50/p95/p99/max per phase plus
/// each phase's share of total attributed time.
pub fn render_phase_table(traces: &[ParsedTrace]) -> String {
    let stats = phase_stats(traces);
    let grand_total: u64 = stats.iter().map(|s| s.total_us).sum();
    let mut out = format!(
        "phase attribution over {} traces (µs):\n{:<12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        traces.len(),
        "phase",
        "count",
        "p50",
        "p95",
        "p99",
        "max",
        "share"
    );
    for s in &stats {
        let share = if grand_total > 0 {
            100.0 * s.total_us as f64 / grand_total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>6.1}%\n",
            s.name, s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us, share
        ));
    }
    out
}

/// Render one trace as an ASCII waterfall: a header line, then one
/// proportional bar per phase on a shared `width`-column timeline.
pub fn render_waterfall(t: &ParsedTrace, width: usize) -> String {
    let width = width.max(10);
    let span = t.duration_us().max(1) as f64;
    let mut out = format!(
        "{} {} status={} {}µs keep={}{}\n",
        t.id,
        t.name,
        t.status,
        t.duration_us(),
        t.keep,
        if t.flags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", t.flags.join(","))
        }
    );
    for p in &t.phases {
        let rel0 = p.start_us.saturating_sub(t.start_us) as f64 / span;
        let rel1 = p.end_us.saturating_sub(t.start_us) as f64 / span;
        let a = ((rel0 * width as f64) as usize).min(width - 1);
        let b = (((rel1 * width as f64).ceil()) as usize).clamp(a + 1, width);
        let mut bar = String::with_capacity(width);
        for i in 0..width {
            bar.push(if i >= a && i < b { '#' } else { '.' });
        }
        out.push_str(&format!(
            "  {:<12} |{bar}| {}µs\n",
            p.name,
            p.duration_us()
        ));
    }
    out
}

/// Render waterfalls for the `limit` slowest traces, slowest first.
pub fn render_waterfalls(traces: &[ParsedTrace], width: usize, limit: usize) -> String {
    let mut by_dur: Vec<&ParsedTrace> = traces.iter().collect();
    by_dur.sort_by_key(|t| std::cmp::Reverse(t.duration_us()));
    let mut out = String::new();
    for t in by_dur.into_iter().take(limit) {
        out.push_str(&render_waterfall(t, width));
        out.push('\n');
    }
    out
}

/// Export traces in the Chrome Trace Event Format (the JSON Object
/// variant): one complete event (`"ph":"X"`) per phase plus one per
/// trace, all on `pid` 1 with each trace on its own `tid` row so
/// `chrome://tracing` and Perfetto render one lane per request.
pub fn chrome_trace_json(traces: &[ParsedTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_event =
        |out: &mut String, name: &str, cat: &str, ts: u64, dur: u64, tid: usize, id: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            write_json_string(out, name);
            out.push_str(",\"cat\":");
            write_json_string(out, cat);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":"
            ));
            write_json_string(out, id);
            out.push_str("}}");
        };
    for (tid, t) in traces.iter().enumerate() {
        push_event(
            &mut out,
            &t.name,
            "request",
            t.start_us,
            t.duration_us().max(1),
            tid,
            &t.id,
        );
        for p in &t.phases {
            push_event(
                &mut out,
                &p.name,
                "phase",
                p.start_us,
                p.duration_us().max(1),
                tid,
                &t.id,
            );
        }
    }
    out.push_str("]}");
    out
}

/// Validate a Chrome export: parses as JSON and contains exactly the
/// expected number of events (one per trace plus one per phase). Returns
/// the event count.
pub fn validate_chrome_json(chrome: &str, traces: &[ParsedTrace]) -> Result<usize, String> {
    let v = Json::parse(chrome).map_err(|e| format!("chrome export is not valid JSON: {e}"))?;
    let Some(Json::Array(events)) = v.get("traceEvents") else {
        return Err("chrome export lacks a traceEvents array".to_string());
    };
    let expected: usize = traces.iter().map(|t| 1 + t.phases.len()).sum();
    if events.len() != expected {
        return Err(format!(
            "chrome export has {} events, expected {expected}",
            events.len()
        ));
    }
    for e in events {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("chrome event missing {key:?}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_telemetry::trace::{TraceFlags, TraceId, TraceRecord};

    fn sample_record(id: u128, status: u16) -> TraceRecord {
        TraceRecord {
            id: TraceId(id),
            name: "gateway./v1/score".to_string(),
            span: 7,
            parent_span: None,
            start_us: 1000,
            end_us: 1400,
            status,
            flags: TraceFlags {
                error: status >= 500,
                deadline: false,
                fault: false,
                slow: false,
            },
            keep: if status >= 500 { "error" } else { "sampled" },
            attrs: Vec::new(),
            nums: Vec::new(),
            phases: vec![
                astro_telemetry::trace::Phase {
                    name: "recv",
                    start_us: 1000,
                    end_us: 1100,
                },
                astro_telemetry::trace::Phase {
                    name: "prefill",
                    start_us: 1100,
                    end_us: 1350,
                },
                astro_telemetry::trace::Phase {
                    name: "write",
                    start_us: 1350,
                    end_us: 1400,
                },
            ],
        }
    }

    #[test]
    fn round_trips_the_telemetry_emitter() {
        let rec = sample_record(0xabc, 200);
        let line = rec.to_json_line();
        let parsed = parse_trace_line(&line).unwrap().expect("is a trace");
        assert_eq!(parsed.id, rec.id.to_hex());
        assert_eq!(parsed.name, "gateway./v1/score");
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.duration_us(), 400);
        assert_eq!(parsed.phases.len(), 3);
        assert_eq!(parsed.phases[1].name, "prefill");
        assert_eq!(parsed.phases[1].duration_us(), 250);
        assert_eq!(parsed.phase_total_us(), 400);
    }

    #[test]
    fn jsonl_mixes_trace_and_other_events() {
        let text = format!(
            "{}\n{{\"event\":\"span_end\",\"name\":\"x\"}}\n\nnot json at all\n{}\n",
            sample_record(1, 200).to_json_line(),
            sample_record(2, 500).to_json_line()
        );
        let report = parse_jsonl(&text);
        assert_eq!(report.traces.len(), 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.malformed.len(), 1);
        assert_eq!(report.malformed[0].0, 4);
        assert_eq!(report.traces[1].flags, vec!["error".to_string()]);
    }

    #[test]
    fn phase_table_has_exact_percentiles_and_shares() {
        let traces: Vec<ParsedTrace> = (0..4)
            .map(|i| parse_trace_line(&sample_record(i, 200).to_json_line()).unwrap().unwrap())
            .collect();
        let stats = phase_stats(&traces);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].name, "recv");
        assert_eq!(stats[0].count, 4);
        assert_eq!(stats[0].p50_us, 100);
        assert_eq!(stats[0].p99_us, 100);
        let table = render_phase_table(&traces);
        assert!(table.contains("recv"), "{table}");
        assert!(table.contains("25.0%"), "{table}"); // 100 of 400 µs
        assert!(table.contains("62.5%"), "{table}"); // 250 of 400 µs
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn waterfall_bars_are_proportional() {
        let t = parse_trace_line(&sample_record(3, 200).to_json_line()).unwrap().unwrap();
        let out = render_waterfall(&t, 40);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("status=200"), "{out}");
        assert!(lines[0].contains("400µs"), "{out}");
        // recv covers the first quarter: 10 of 40 columns.
        let recv_cols = lines[1].matches('#').count();
        assert!((9..=11).contains(&recv_cols), "{out}");
        // prefill is the biggest phase: more columns than recv.
        let prefill_cols = lines[2].matches('#').count();
        assert!(prefill_cols > recv_cols, "{out}");
    }

    #[test]
    fn chrome_export_round_trips_and_counts() {
        let traces: Vec<ParsedTrace> = (0..3)
            .map(|i| parse_trace_line(&sample_record(i, 200).to_json_line()).unwrap().unwrap())
            .collect();
        let chrome = chrome_trace_json(&traces);
        // 3 traces × (1 request event + 3 phase events) = 12.
        assert_eq!(validate_chrome_json(&chrome, &traces), Ok(12));
        let v = Json::parse(&chrome).unwrap();
        let Some(Json::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("trace_id")).and_then(Json::as_str),
            Some(traces[0].id.as_str())
        );
    }
}
