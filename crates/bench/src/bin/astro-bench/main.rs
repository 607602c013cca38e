//! `astro-bench` — regenerate the paper's tables and figures, and read
//! request traces back.
//!
//! ```sh
//! cargo run --release -p astro-bench -- <subcommand> [args]
//!
//! astro-bench table1     [micro|smoke|fast|full] [seed]  # E1 Table I, E2 Figure 1, E4
//! astro-bench costs      [micro|smoke|fast|full] [seed]  # E3 §III compute costs
//! astro-bench forgetting [micro|smoke|fast|full] [seed]  # E1b forgetting in loss space
//! astro-bench ablation   <data-quality|sft-mixture|eval-method> [preset] [seed]  # A1, A2, A4
//! astro-bench trace      <phases|waterfall|chrome> <file.jsonl> [limit|out.json]
//! ```
//!
//! The preset defaults to `fast` and the seed to 42. An argument that does
//! not parse prints the subcommand's usage line on stderr and exits 2
//! before any work starts.
//!
//! The preset-driven subcommands follow the observability protocol of
//! `docs/OBSERVABILITY.md`: [`instrumented_run`] opens a `telemetry.jsonl`
//! sink in the working directory and starts a run manifest;
//! [`BenchRun::finish`] writes `run_manifest.json`, flushes the sink and
//! prints the span/metric summary tree.
//!
//! `table1`, `forgetting` and `ablation` take every model they need from
//! one run directory, `runs/<preset>-<seed>` under the working directory
//! (checkpoints + `ledger.jsonl`): each model, Table I's or an
//! ablation's, is trained once per preset and seed, and a re-run resumes. `rm -rf
//! runs/<preset>-<seed>` forces a fresh run. `table1` over a complete run
//! directory trains nothing: it re-renders Table I and Figure 1 from the
//! ledger's per-question outcomes.

mod ablation;
mod costs;
mod forgetting;
mod table1;
mod trace;

use astromlab::{StudyConfig, StudyError};
use std::path::{Path, PathBuf};

/// The arguments every preset-driven subcommand takes.
const PRESET_ARGS: &str = "[micro|smoke|fast|full] [seed]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    match cmd {
        "table1" => table1::main(rest),
        "costs" => costs::main(rest),
        "forgetting" => forgetting::main(rest),
        "ablation" => ablation::main(rest),
        "trace" => trace::main(rest),
        _ => usage("<table1|costs|forgetting|ablation|trace> [args]"),
    }
}

/// Print `usage: astro-bench <line>` on stderr and exit 2.
fn usage(line: &str) -> ! {
    eprintln!("usage: astro-bench {line}");
    std::process::exit(2);
}

/// Argument `i` parsed as a `T`, or `default` when it is absent; a value
/// that does not parse is a usage error.
fn arg_or<T: std::str::FromStr>(args: &[String], i: usize, default: T, line: &str) -> T {
    match args.get(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| usage(line)),
    }
}

/// Telemetry lifecycle of one experiment-regeneration run.
struct BenchRun {
    manifest: astro_telemetry::RunManifest,
}

/// Parse `[micro|smoke|fast|full] [seed]` (anything else is a usage error
/// of `cmd`) and start an instrumented run named `binary`: opens the
/// `telemetry.jsonl` sink in the working directory and begins the run
/// manifest (config-hashed over the preset's `Debug` representation).
fn instrumented_run(binary: &str, cmd: &str, args: &[String]) -> (StudyConfig, BenchRun) {
    let line = format!("{cmd} {PRESET_ARGS}");
    if args.len() > 2 {
        usage(&line);
    }
    let preset = args.first().map_or("fast", String::as_str);
    let seed = arg_or(args, 1, 42, &line);
    let config = match preset {
        "micro" => StudyConfig::micro(seed),
        "smoke" => StudyConfig::smoke(seed),
        "fast" => StudyConfig::fast(seed),
        "full" => StudyConfig::full(seed),
        _ => usage(&line),
    };
    astro_telemetry::init_clock();
    astro_telemetry::info!("{binary}: preset={preset} seed={seed}");
    if let Err(e) = astro_telemetry::sink::init_file(Path::new("telemetry.jsonl")) {
        astro_telemetry::info!("{binary}: telemetry.jsonl unavailable ({e}); events dropped");
    }
    let manifest =
        astro_telemetry::RunManifest::begin(binary, preset, config.seed, &format!("{config:?}"));
    (config, BenchRun { manifest })
}

/// The value of a study step, or exit 1 with its error on stderr. A run
/// directory whose ledger cannot be used (another config or build, an
/// unparseable line) is never deleted here: the message names it.
fn or_exit<T>(result: Result<T, StudyError>, dir: &Path) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("astro-bench: {e}");
        if matches!(e, StudyError::Ledger(_)) {
            eprintln!("astro-bench: remove {} to start a fresh run", dir.display());
        }
        std::process::exit(1)
    })
}

impl BenchRun {
    /// The run directory of this preset and seed: `runs/<preset>-<seed>`.
    fn run_dir(&self) -> PathBuf {
        Path::new("runs").join(format!("{}-{}", self.manifest.preset, self.manifest.seed))
    }

    /// Write a machine-readable result object (`BENCH_*.json`, one line)
    /// to the working directory and name it in the manifest as
    /// `bench_json`.
    fn write_bench_json(&mut self, file: &str, json: &str) {
        match std::fs::write(file, format!("{json}\n")) {
            Ok(()) => self.manifest.add("bench_json", file),
            Err(e) => astro_telemetry::info!("{file} not written: {e}"),
        }
    }

    /// Stamp the manifest, write `run_manifest.json`, flush the JSONL
    /// sink, and print the end-of-run span/metric summary.
    fn finish(mut self) {
        self.manifest.finish();
        if let Err(e) = self.manifest.write(Path::new("run_manifest.json")) {
            astro_telemetry::info!("run_manifest.json not written: {e}");
        }
        astro_telemetry::Event::new("run_end")
            .str_field("binary", &self.manifest.binary)
            .f64_field("wall_secs", self.manifest.wall_secs)
            .u64_field("peak_rss_kb", self.manifest.peak_rss_kb)
            .emit();
        for line in astro_telemetry::summary::render().lines() {
            astro_telemetry::info!("{line}");
        }
        astro_telemetry::info!(
            "manifest: preset={} seed={} config={} wall={:.1}s peak_rss={}MB \
             (telemetry.jsonl, run_manifest.json)",
            self.manifest.preset,
            self.manifest.seed,
            self.manifest.config_hash,
            self.manifest.wall_secs,
            self.manifest.peak_rss_kb / 1024
        );
        astro_telemetry::sink::flush();
    }
}

/// Minimal JSON-object emitter for the machine-readable outputs
/// (`BENCH_table1.json`, `BENCH_costs.json`). Writes the same JSON subset
/// `astro_eval::json` parses.
struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Start an empty object.
    fn new() -> JsonObject {
        JsonObject { out: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        astro_telemetry::event::write_json_string(&mut self.out, k);
        self.out.push(':');
    }

    /// Add a string field.
    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        astro_telemetry::event::write_json_string(&mut self.out, v);
        self
    }

    /// Add a numeric field (non-finite values become `null`).
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Insert a pre-serialised JSON value (object, array, ...).
    fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Close the object and return the serialised JSON.
    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_emits_parseable_subset() {
        let mut o = JsonObject::new();
        o.str("name", "table1").num("score", 62.5).raw("stages", "[1,2]");
        let s = o.finish();
        assert_eq!(s, "{\"name\":\"table1\",\"score\":62.5,\"stages\":[1,2]}");
    }
}
