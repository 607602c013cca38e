//! Binary model checkpoints — versioned, checksummed, written atomically.
//!
//! Format **v2** (little-endian):
//! ```text
//! magic       u32 = 0x414d4c32 ("AML2")
//! version     u32 = 2
//! vocab_size  u32
//! d_model     u32
//! n_layers    u32
//! n_heads     u32
//! d_ff        u32
//! max_seq     u32
//! weights     f32 × param_count
//! checksum    u64 — FNV-1a 64 over every preceding byte
//! ```
//!
//! The v1 format had no version word or checksum trailer; a v1 blob is
//! recognised (its second word is a vocab size, far above any version
//! number we will ever use) and rejected as
//! [`CkptError::VersionMismatch`]. Loading validates length against the
//! embedded config *before* the checksum, so a torn file reports
//! [`CkptError::Truncated`] while bit rot in a complete file reports
//! [`CkptError::Corrupt`].
//!
//! [`save_checkpoint`] goes through `astro_resilience::durable`
//! (tmp + fsync + rename), so a crash mid-save can never tear a
//! previously good checkpoint; [`load_checkpoint`] reads through the
//! fault-injectable path (`io.partial_read`).

use crate::params::{Layout, Params};
use crate::{ModelConfig, WeightPrecision};
use astro_resilience::fnv64;

const MAGIC: u32 = 0x414d_4c32;
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 2;
/// Header length in bytes: magic, version, six config words.
const HEADER: usize = 32;
/// Checksum trailer length in bytes.
const TRAILER: usize = 8;

/// Typed checkpoint load/save failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The underlying file could not be read or written.
    Io(String),
    /// The file is shorter than its header/config demands (torn write
    /// or partial read).
    Truncated {
        /// Bytes actually present.
        len: usize,
        /// Bytes the format requires.
        want: usize,
    },
    /// The file is complete but its contents are inconsistent (bad
    /// magic, invalid config, checksum mismatch, trailing garbage).
    Corrupt(String),
    /// The file is a checkpoint of a different format version.
    VersionMismatch {
        /// Version word found in the file (0 for v1 blobs, which had no
        /// version word).
        found: u32,
        /// Version this build writes and reads.
        want: u32,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::Truncated { len, want } => {
                write!(f, "checkpoint truncated: {len} bytes, want {want}")
            }
            CkptError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            CkptError::VersionMismatch { found, want } => {
                write!(f, "checkpoint version {found}, this build reads {want}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

fn word(bytes: &[u8], idx: usize) -> Result<u32, CkptError> {
    let off = idx * 4;
    bytes
        .get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(CkptError::Truncated { len: bytes.len(), want: off + 4 })
}

/// Serialise parameters (config + weights) in the current format.
pub fn params_to_bytes(p: &Params) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + p.data.len() * 4 + TRAILER);
    for v in [
        MAGIC,
        CKPT_VERSION,
        p.cfg.vocab_size as u32,
        p.cfg.d_model as u32,
        p.cfg.n_layers as u32,
        p.cfg.n_heads as u32,
        p.cfg.d_ff as u32,
        p.cfg.max_seq as u32,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &w in &p.data {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let checksum = fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Deserialise parameters from [`params_to_bytes`] output, verifying
/// magic, version, config consistency, length and content checksum.
pub fn params_from_bytes(bytes: &[u8]) -> Result<Params, CkptError> {
    if word(bytes, 0)? != MAGIC {
        return Err(CkptError::Corrupt(format!(
            "bad magic {:#x}",
            word(bytes, 0).unwrap_or(0)
        )));
    }
    let version = word(bytes, 1)?;
    if version != CKPT_VERSION {
        // A v1 blob has vocab_size here — far above any plausible
        // version number (vocab is always >= 256 + specials). Report it
        // as version 0 ("pre-versioning") rather than a nonsense number.
        let found = if version > 256 { 0 } else { version };
        return Err(CkptError::VersionMismatch { found, want: CKPT_VERSION });
    }
    let cfg = ModelConfig {
        vocab_size: word(bytes, 2)? as usize,
        d_model: word(bytes, 3)? as usize,
        n_layers: word(bytes, 4)? as usize,
        n_heads: word(bytes, 5)? as usize,
        d_ff: word(bytes, 6)? as usize,
        max_seq: word(bytes, 7)? as usize,
        // Precision is a runtime serving choice, not a checkpoint
        // property: blobs always carry the exact f32 weights, and a
        // loaded model starts on the golden f32 path until the caller
        // opts into `Params::quantized`.
        precision: WeightPrecision::F32,
    };
    cfg.validate().map_err(CkptError::Corrupt)?;
    let layout = Layout::new(&cfg);
    let want = HEADER + layout.total * 4 + TRAILER;
    if bytes.len() < want {
        return Err(CkptError::Truncated { len: bytes.len(), want });
    }
    if bytes.len() > want {
        return Err(CkptError::Corrupt(format!(
            "{} trailing bytes after checksum",
            bytes.len() - want
        )));
    }
    let body = &bytes[..want - TRAILER];
    let stored = bytes
        .get(want - TRAILER..)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or(CkptError::Truncated { len: bytes.len(), want })?;
    let computed = fnv64(body);
    if stored != computed {
        return Err(CkptError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let data: Vec<f32> = body[HEADER..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Params { cfg, layout, data, quant: None })
}

/// Write a checkpoint to a file atomically (tmp + fsync + rename); a
/// crash mid-save leaves any previous checkpoint at `path` intact.
pub fn save_checkpoint(p: &Params, path: &std::path::Path) -> Result<(), CkptError> {
    astro_resilience::durable::write_atomic(path, &params_to_bytes(p))
        .map_err(|e| CkptError::Io(format!("write {}: {e}", path.display())))
}

/// Load and fully validate a checkpoint from a file.
pub fn load_checkpoint(path: &std::path::Path) -> Result<Params, CkptError> {
    let bytes = astro_resilience::durable::read_all(path)
        .map_err(|e| CkptError::Io(format!("read {}: {e}", path.display())))?;
    params_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_prng::Rng;

    #[test]
    fn round_trip_exact() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(1));
        let q = params_from_bytes(&params_to_bytes(&p)).unwrap();
        assert_eq!(p.cfg, q.cfg);
        assert_eq!(p.data, q.data);
    }

    #[test]
    fn rejects_bad_magic() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(2));
        let mut b = params_to_bytes(&p);
        b[0] ^= 0xff;
        assert!(matches!(params_from_bytes(&b), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn rejects_truncation_as_truncated() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(3));
        let b = params_to_bytes(&p);
        // Any torn prefix long enough to carry a valid header must be
        // reported as Truncated, not Corrupt.
        for cut in [b.len() - 1, b.len() - 4, b.len() / 2, HEADER + 3] {
            match params_from_bytes(&b[..cut]) {
                Err(CkptError::Truncated { len, want }) => {
                    assert_eq!(len, cut);
                    assert_eq!(want, b.len());
                }
                other => panic!("cut={cut}: want Truncated, got {other:?}"),
            }
        }
        assert!(matches!(
            params_from_bytes(&[]),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(4));
        let mut b = params_to_bytes(&p);
        // Corrupt n_heads (word 5: bytes 20..24) so d_model % n_heads != 0.
        b[20..24].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(params_from_bytes(&b), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn zero_heads_and_width_header_is_corrupt_not_a_panic() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(8));
        let mut b = params_to_bytes(&p);
        // d_model (word 3) and n_heads (word 5) both 0.
        b[12..16].copy_from_slice(&0u32.to_le_bytes());
        b[20..24].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(params_from_bytes(&b), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn detects_weight_bit_rot_via_checksum() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(6));
        let mut b = params_to_bytes(&p);
        let mid = HEADER + (b.len() - HEADER - TRAILER) / 2;
        b[mid] ^= 0x01;
        match params_from_bytes(&b) {
            Err(CkptError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("want checksum Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_v1_blob_as_version_mismatch() {
        // Reconstruct the v1 layout: magic + 6 config words + weights,
        // no version, no checksum.
        let cfg = ModelConfig::tiny(300);
        let p = Params::init(cfg, &mut Rng::seed_from(7));
        let mut v1 = Vec::new();
        for v in [
            MAGIC,
            p.cfg.vocab_size as u32,
            p.cfg.d_model as u32,
            p.cfg.n_layers as u32,
            p.cfg.n_heads as u32,
            p.cfg.d_ff as u32,
            p.cfg.max_seq as u32,
        ] {
            v1.extend_from_slice(&v.to_le_bytes());
        }
        for &w in &p.data {
            v1.extend_from_slice(&w.to_le_bytes());
        }
        assert!(matches!(
            params_from_bytes(&v1),
            Err(CkptError::VersionMismatch { found: 0, want: CKPT_VERSION })
        ));
    }

    #[test]
    fn file_round_trip_is_atomic_and_validated() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(5));
        let dir = std::env::temp_dir().join("astro_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        save_checkpoint(&p, &path).unwrap();
        let q = load_checkpoint(&path).unwrap();
        assert_eq!(p.data, q.data);
        let _ = std::fs::remove_file(&path);
    }
}
