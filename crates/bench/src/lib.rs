//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every regeneration binary follows the same observability protocol
//! (see `docs/OBSERVABILITY.md`): [`instrumented_run`] parses the
//! `[smoke|fast|full] [seed]` arguments, opens a `telemetry.jsonl` sink
//! in the working directory and starts a run manifest; [`BenchRun::finish`]
//! writes `run_manifest.json`, flushes the sink and prints the span/metric
//! summary tree.

use astromlab::StudyConfig;
use std::path::Path;

/// Parse `[smoke|fast|full] [seed]` from the command line; defaults to
/// `fast 42`. Logs the choice so runs are self-describing.
pub fn preset_from_args(binary: &str) -> StudyConfig {
    parse_preset(binary).1
}

fn parse_preset(binary: &str) -> (String, StudyConfig) {
    let args: Vec<String> = std::env::args().collect();
    let preset = args.get(1).map(|s| s.as_str()).unwrap_or("fast");
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);
    let config = match preset {
        "micro" => StudyConfig::micro(seed),
        "smoke" => StudyConfig::smoke(seed),
        "fast" => StudyConfig::fast(seed),
        "full" => StudyConfig::full(seed),
        other => {
            astro_telemetry::info!("{binary}: unknown preset {other:?}; use micro|smoke|fast|full");
            std::process::exit(2);
        }
    };
    astro_telemetry::info!("{binary}: preset={preset} seed={seed}");
    (preset.to_string(), config)
}

/// Telemetry lifecycle of one experiment-regeneration run.
pub struct BenchRun {
    manifest: astro_telemetry::RunManifest,
}

/// Parse the preset arguments and start an instrumented run: opens the
/// `telemetry.jsonl` JSONL sink in the working directory and begins the
/// run manifest (config-hashed over the preset's `Debug` representation).
pub fn instrumented_run(binary: &str) -> (StudyConfig, BenchRun) {
    astro_telemetry::init_clock();
    let (preset, config) = parse_preset(binary);
    if let Err(e) = astro_telemetry::sink::init_file(Path::new("telemetry.jsonl")) {
        astro_telemetry::info!("{binary}: telemetry.jsonl unavailable ({e}); events dropped");
    }
    let manifest = astro_telemetry::RunManifest::begin(
        binary,
        &preset,
        config.seed,
        &format!("{config:?}"),
    );
    (config, BenchRun { manifest })
}

impl BenchRun {
    /// Attach an extra key/value to the manifest (output files, stage
    /// stats, ...).
    pub fn add(&mut self, key: &str, value: &str) {
        self.manifest.add(key, value);
    }

    /// Stamp the manifest, write `run_manifest.json`, flush the JSONL
    /// sink, and print the end-of-run span/metric summary.
    pub fn finish(mut self) {
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

/// Minimal JSON-object emitter for machine-readable bench outputs
/// (`BENCH_table1.json`). Writes the same JSON subset
/// `astro_eval::json` parses.
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
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
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        astro_telemetry::event::write_json_string(&mut self.out, v);
        self
    }

    /// Add a numeric field (non-finite values become `null`).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Insert a pre-serialised JSON value (object, array, ...).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Close the object and return the serialised JSON.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_presets_construct() {
        let _ = StudyConfig::smoke(42);
        let _ = StudyConfig::fast(42);
        let _ = StudyConfig::full(42);
    }

    #[test]
    fn json_object_emits_parseable_subset() {
        let mut o = JsonObject::new();
        o.str("name", "table1").num("score", 62.5).raw("stages", "[1,2]");
        let s = o.finish();
        assert_eq!(s, "{\"name\":\"table1\",\"score\":62.5,\"stages\":[1,2]}");
    }
}
