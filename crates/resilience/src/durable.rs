//! Crash-safe file writes and fault-aware reads.
//!
//! [`write_atomic`] follows the classic durable-write protocol: write the
//! payload to a sibling temp file, `fsync` it, `rename` over the final
//! path (atomic on POSIX within a filesystem), then `fsync` the parent
//! directory so the rename itself survives power loss. A reader therefore
//! observes either the old complete file or the new complete file — never
//! a torn one.
//!
//! Two fault sites live here:
//!
//! * `ckpt.write_truncate` — simulates a crash mid-write under a
//!   *non*-atomic protocol: half the payload lands at the final path and
//!   the call errors, exercising the caller's torn-artifact detection.
//! * `io.partial_read` — [`read_all`] returns only half the file,
//!   exercising checksum/length validation on the load path.

use astro_telemetry::fault;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically (tmp + fsync + rename + directory
/// fsync). On success a concurrent or post-crash reader sees either the
/// previous contents or `bytes`, never a prefix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if fault::should_fault("ckpt.write_truncate") {
        // Injected crash mid-write: a torn file at the final path, as a
        // non-atomic writer would leave behind.
        fs::write(path, &bytes[..bytes.len() / 2])?;
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "injected fault: ckpt.write_truncate (simulated crash mid-write)",
        ));
    }
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync is advisory on some platforms; opening a
        // directory read-only can fail (e.g. on Windows) — best effort.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read the whole file, subject to the `io.partial_read` fault (which
/// truncates the returned bytes to half, simulating a short read of a
/// torn artifact).
pub fn read_all(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = fs::read(path)?;
    if fault::should_fault("io.partial_read") {
        bytes.truncate(bytes.len() / 2);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_telemetry::fault::{FaultPlan, Faults};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("astro_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trip_and_overwrite() {
        let d = tmpdir("rt");
        let p = d.join("artifact.bin");
        write_atomic(&p, b"first contents").unwrap();
        assert_eq!(read_all(&p).unwrap(), b"first contents");
        write_atomic(&p, b"second").unwrap();
        assert_eq!(read_all(&p).unwrap(), b"second");
        // No temp file left behind.
        assert!(!tmp_sibling(&p).exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_truncate_leaves_torn_file_and_errors() {
        let d = tmpdir("torn");
        let p = d.join("artifact.bin");
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("ckpt.write_truncate", 1));
        let err = write_atomic(&p, &[7u8; 100]).expect_err("injected fault must error");
        faults.clear();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(fs::read(&p).unwrap().len(), 50, "torn artifact must be half-written");
        // A clean rewrite repairs it.
        write_atomic(&p, &[7u8; 100]).unwrap();
        assert_eq!(read_all(&p).unwrap().len(), 100);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_partial_read_halves_the_bytes() {
        let d = tmpdir("short");
        let p = d.join("artifact.bin");
        write_atomic(&p, &[9u8; 64]).unwrap();
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("io.partial_read", 1));
        assert_eq!(read_all(&p).unwrap().len(), 32);
        faults.clear();
        assert_eq!(read_all(&p).unwrap().len(), 64);
        let _ = fs::remove_dir_all(&d);
    }
}
