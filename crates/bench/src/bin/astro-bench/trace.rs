//! `trace` — analyze a telemetry JSONL file's trace events
//! (`astro_bench::trace`).
//!
//! ```sh
//! astro-bench trace phases    telemetry.jsonl            # per-phase p50/p95/p99/max table
//! astro-bench trace waterfall telemetry.jsonl [limit]    # slowest-N ASCII waterfalls (default 10)
//! astro-bench trace chrome    telemetry.jsonl [out.json] # Chrome Trace Event export
//! ```
//!
//! The input is any JSONL stream produced by the telemetry sink (trace
//! events mixed with spans/metrics/logs is fine; non-trace lines are
//! skipped). `chrome` writes `trace_chrome.json` by default — load it in
//! `chrome://tracing` or Perfetto. An unreadable file or one without
//! trace events exits 1.

use crate::usage;
use astro_bench::trace::{
    chrome_trace_json, parse_jsonl, render_phase_table, render_waterfalls, validate_chrome_json,
};

const USAGE: &str = "trace <phases|waterfall|chrome> <file.jsonl> [limit|out.json]";

/// Read `args[1]` and print or export what `args[0]` names.
pub fn main(args: &[String]) {
    let [cmd, path, rest @ ..] = args else { usage(USAGE) };
    // Every argument is checked before the file is read; only `waterfall`
    // reads `limit`.
    let limit = match (cmd.as_str(), rest) {
        ("phases", []) | ("chrome", [] | [_]) => 0,
        ("waterfall", []) => 10,
        ("waterfall", [n]) => n.parse().unwrap_or_else(|_| usage(USAGE)),
        _ => usage(USAGE),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("astro-trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = parse_jsonl(&text);
    if !report.malformed.is_empty() {
        for (line, why) in report.malformed.iter().take(5) {
            eprintln!("astro-trace: line {line}: {why}");
        }
        eprintln!(
            "astro-trace: {} malformed line(s); continuing with {} traces",
            report.malformed.len(),
            report.traces.len()
        );
    }
    if report.traces.is_empty() {
        eprintln!("astro-trace: no trace events in {path} ({} other lines)", report.skipped);
        std::process::exit(1);
    }

    match cmd.as_str() {
        "phases" => print!("{}", render_phase_table(&report.traces)),
        "waterfall" => print!("{}", render_waterfalls(&report.traces, 60, limit)),
        _ => {
            let out_path = rest.first().map_or("trace_chrome.json", String::as_str);
            let chrome = chrome_trace_json(&report.traces);
            match validate_chrome_json(&chrome, &report.traces) {
                Ok(n) => {
                    if let Err(e) = std::fs::write(out_path, &chrome) {
                        eprintln!("astro-trace: cannot write {out_path}: {e}");
                        std::process::exit(1);
                    }
                    println!(
                        "astro-trace: wrote {n} events for {} traces to {out_path}",
                        report.traces.len()
                    );
                }
                Err(e) => {
                    eprintln!("astro-trace: export failed self-validation: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
