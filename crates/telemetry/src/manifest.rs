//! Per-experiment run manifests.
//!
//! A manifest records what a run *was* — binary, preset, seed, a hash of
//! the full config, wall-clock interval, peak RSS — so an output directory
//! is self-describing and two runs can be compared without spelunking
//! through shell history. Written as a single JSON object (same subset the
//! in-repo parser reads) next to the experiment outputs.

use crate::event::write_json_string;
use std::io::Write;
use std::path::Path;

/// 64-bit FNV-1a (the repo's standard content hash: no dependency, stable
/// across platforms).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), 0
/// when unavailable (non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// One experiment run's identity and resource envelope.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Binary name (`table1`, `costs`, …).
    pub binary: String,
    /// Preset label (`smoke|fast|full`).
    pub preset: String,
    /// Master seed.
    pub seed: u64,
    /// FNV-1a hash (hex) of the full config's `Debug` representation —
    /// changes whenever any knob changes, like a `git describe` for the
    /// configuration.
    pub config_hash: String,
    /// Unix seconds at start.
    pub started_unix: u64,
    /// Unix seconds at finish (0 while running).
    pub ended_unix: u64,
    /// Wall-clock seconds (0 while running).
    pub wall_secs: f64,
    /// Peak RSS in kB at finish.
    pub peak_rss_kb: u64,
    /// Threads the host exposes.
    pub host_threads: usize,
    /// Free-form extra fields (stage stats, output files, …).
    pub extra: Vec<(String, String)>,
    start: std::time::Instant,
}

impl RunManifest {
    /// Start a manifest; `config_repr` is hashed (pass the config's
    /// `Debug` formatting).
    pub fn begin(binary: &str, preset: &str, seed: u64, config_repr: &str) -> RunManifest {
        crate::init_clock();
        RunManifest {
            binary: binary.to_string(),
            preset: preset.to_string(),
            seed,
            config_hash: format!("{:016x}", fnv1a_64(config_repr.as_bytes())),
            started_unix: crate::unix_time_secs(),
            ended_unix: 0,
            wall_secs: 0.0,
            peak_rss_kb: 0,
            host_threads: crate::cores::host_threads(),
            extra: Vec::new(),
            start: std::time::Instant::now(),
        }
    }

    /// Attach an extra key/value pair.
    pub fn add(&mut self, key: &str, value: &str) {
        self.extra.push((key.to_string(), value.to_string()));
    }

    /// Stamp the end time and resource peaks.
    pub fn finish(&mut self) {
        self.ended_unix = crate::unix_time_secs();
        self.wall_secs = self.start.elapsed().as_secs_f64();
        self.peak_rss_kb = peak_rss_kb();
    }

    /// Serialise as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let field = |out: &mut String, k: &str, v: &str, raw: bool| {
            if out.len() > 1 {
                out.push(',');
            }
            write_json_string(out, k);
            out.push(':');
            if raw {
                out.push_str(v);
            } else {
                write_json_string(out, v);
            }
        };
        field(&mut out, "binary", &self.binary, false);
        field(&mut out, "preset", &self.preset, false);
        field(&mut out, "seed", &self.seed.to_string(), true);
        field(&mut out, "config_hash", &self.config_hash, false);
        field(&mut out, "started_unix", &self.started_unix.to_string(), true);
        field(&mut out, "ended_unix", &self.ended_unix.to_string(), true);
        field(&mut out, "wall_secs", &format!("{:.3}", self.wall_secs), true);
        field(&mut out, "peak_rss_kb", &self.peak_rss_kb.to_string(), true);
        field(&mut out, "host_threads", &self.host_threads.to_string(), true);
        for (k, v) in &self.extra {
            field(&mut out, k, v, false);
        }
        out.push('}');
        out
    }

    /// Write the manifest to `path` (overwrites).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn peak_rss_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn manifest_lifecycle_and_json() {
        let mut m = RunManifest::begin("table1", "fast", 42, "StudyConfig { seed: 42 }");
        m.add("outputs", "telemetry.jsonl");
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.finish();
        assert!(m.ended_unix >= m.started_unix);
        assert!(m.wall_secs > 0.0);
        let j = m.to_json();
        assert!(j.contains("\"binary\":\"table1\""), "{j}");
        assert!(j.contains("\"seed\":42"), "{j}");
        assert!(j.contains("\"outputs\":\"telemetry.jsonl\""), "{j}");
        assert_eq!(m.config_hash.len(), 16);
        // Same config → same hash; different config → different hash.
        let m2 = RunManifest::begin("table1", "fast", 42, "StudyConfig { seed: 42 }");
        assert_eq!(m.config_hash, m2.config_hash);
        let m3 = RunManifest::begin("table1", "fast", 43, "StudyConfig { seed: 43 }");
        assert_ne!(m.config_hash, m3.config_hash);
    }
}
