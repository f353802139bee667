//! Content-addressed result cache, keyed by scenario digest.
//!
//! The cache key is [`oasis_fuzz::scenario_digest`] — the FNV-1a of the
//! scenario's canonical `oasis-fuzz-scenario-v1` wire line — so two
//! submissions are "the same job" exactly when their wire bytes are the
//! same. Each adjudicated result is one file, `<%016x>.res` under the
//! server's `cache/` directory, written with [`oasis_engine::atomic_write`]
//! so a crash mid-write leaves either the old entry or none, never a torn
//! one visible under the final name.
//!
//! Reads re-verify anyway: every entry carries a magic, a version, its own
//! key, and a trailing FNV-1a checksum over everything before it. An entry
//! that fails any of those checks is reported as [`CacheRead::Corrupt`]
//! with a reason — the server logs a typed warning, recomputes, and
//! overwrites the bad entry. A corrupt cache can cost time, never
//! correctness, and never a crash.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use oasis_engine::codec::{ByteReader, ByteWriter};
use oasis_engine::{atomic_write, fnv1a, AdjudicatedOutcome};

/// Entry-file magic ("OASISRES").
const MAGIC: &[u8; 8] = b"OASISRES";
/// Entry format version.
const VERSION: u32 = 1;

/// One cached adjudication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// The supervisor's verdict class.
    pub outcome: AdjudicatedOutcome,
    /// Attempts the pool consumed before adjudicating.
    pub attempts: u32,
    /// The rendered verdict string (`clean`, `violation ...`, or the
    /// supervision failure), already wire-sanitized.
    pub verdict: String,
}

/// What a cache lookup produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheRead {
    /// A verified entry; serve it with zero recompute.
    Hit(CachedResult),
    /// No entry for this digest.
    Miss,
    /// An entry exists but failed verification (torn write survived a
    /// crash of the *filesystem's* guarantees, manual tampering, or a
    /// format from the future). Carries the reason; the caller warns and
    /// recomputes.
    Corrupt(String),
}

/// The on-disk cache. Cheap to clone paths from; all state is the
/// directory itself.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cache: cannot create {}: {e}", dir.display()))?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry path for a digest.
    pub fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.res"))
    }

    fn encode(digest: u64, result: &CachedResult) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(digest);
        w.u8(result.outcome.as_u8());
        w.u32(result.attempts);
        // `ByteWriter::str` carries a u16 length; verdicts are short, but
        // clamp defensively so a pathological detail can never panic the
        // encoder.
        let verdict: String = result.verdict.chars().take(4096).collect();
        w.str(&verdict);
        let checksum = fnv1a(w.as_slice());
        w.u64(checksum);
        w.into_vec()
    }

    fn decode(digest: u64, bytes: &[u8]) -> Result<CachedResult, String> {
        // magic 8 + version 4 + digest 8 + outcome 1 + attempts 4 +
        // str length 2 + checksum 8.
        if bytes.len() < 35 {
            return Err(format!(
                "entry is {} bytes, shorter than any valid entry",
                bytes.len()
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut t = ByteReader::new("cache-checksum", tail);
        let stored = t.u64().map_err(|e| format!("checksum field: {e}"))?;
        let actual = fnv1a(body);
        if stored != actual {
            return Err(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            ));
        }
        let mut r = ByteReader::new("cache-entry", body);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.u8().map_err(|e| format!("magic: {e}"))?;
        }
        if &magic != MAGIC {
            return Err("bad magic".to_string());
        }
        let version = r.u32().map_err(|e| format!("version: {e}"))?;
        if version != VERSION {
            return Err(format!("unsupported entry version {version}"));
        }
        let key = r.u64().map_err(|e| format!("key: {e}"))?;
        if key != digest {
            return Err(format!(
                "entry claims digest {key:#018x} but was filed under {digest:#018x}"
            ));
        }
        let outcome = AdjudicatedOutcome::from_u8(r.u8().map_err(|e| format!("outcome: {e}"))?)
            .ok_or_else(|| "unknown outcome byte".to_string())?;
        let attempts = r.u32().map_err(|e| format!("attempts: {e}"))?;
        let verdict = r.str().map_err(|e| format!("verdict: {e}"))?;
        if !r.is_empty() {
            return Err("trailing bytes after verdict".to_string());
        }
        Ok(CachedResult {
            outcome,
            attempts,
            verdict,
        })
    }

    /// Looks up a digest. Never panics and never errors: a bad entry is a
    /// typed [`CacheRead::Corrupt`], an unreadable file a miss-shaped
    /// corrupt report, an absent file a [`CacheRead::Miss`].
    pub fn read(&self, digest: u64) -> CacheRead {
        let path = self.entry_path(digest);
        if let Err(e) = oasis_engine::failpoint::on_io("serve.cache.read", &path) {
            return CacheRead::Corrupt(format!("unreadable: {e}"));
        }
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => return CacheRead::Miss,
            Err(e) => return CacheRead::Corrupt(format!("unreadable: {e}")),
        };
        match Self::decode(digest, &bytes) {
            Ok(result) => CacheRead::Hit(result),
            Err(reason) => CacheRead::Corrupt(reason),
        }
    }

    /// Stores (or overwrites) the entry for a digest, atomically.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure; the caller treats a failed cache write as
    /// a warning, not a job failure — the journal already holds the
    /// durable adjudication.
    pub fn write(&self, digest: u64, result: &CachedResult) -> Result<(), String> {
        let path = self.entry_path(digest);
        oasis_engine::failpoint::on_io("serve.cache.write", &path)
            .and_then(|()| atomic_write(&path, &Self::encode(digest, result)))
            .map_err(|e| format!("cache: cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("oasis-serve-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(&dir).expect("create cache dir")
    }

    fn sample() -> CachedResult {
        CachedResult {
            outcome: AdjudicatedOutcome::Completed,
            attempts: 2,
            verdict: "violation replay_divergence: step 41".to_string(),
        }
    }

    #[test]
    fn round_trips_and_misses() {
        let cache = temp_cache("roundtrip");
        assert_eq!(cache.read(7), CacheRead::Miss);
        cache.write(7, &sample()).unwrap();
        assert_eq!(cache.read(7), CacheRead::Hit(sample()));
        // Overwrite is allowed and atomic.
        let clean = CachedResult {
            outcome: AdjudicatedOutcome::Failed,
            attempts: 3,
            verdict: "failed: oom".to_string(),
        };
        cache.write(7, &clean).unwrap();
        assert_eq!(cache.read(7), CacheRead::Hit(clean));
    }

    #[test]
    fn corruption_is_typed_never_fatal() {
        let cache = temp_cache("corrupt");
        cache.write(9, &sample()).unwrap();
        let path = cache.entry_path(9);
        let good = fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        bad[12] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        match cache.read(9) {
            CacheRead::Corrupt(reason) => assert!(reason.contains("checksum"), "{reason}"),
            other => panic!("expected corrupt, got {other:?}"),
        }

        // Truncate: too short / checksum mismatch, still typed.
        fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(cache.read(9), CacheRead::Corrupt(_)));

        // Empty file (classic torn state without atomic_write).
        fs::write(&path, b"").unwrap();
        assert!(matches!(cache.read(9), CacheRead::Corrupt(_)));

        // An entry filed under the wrong digest is rejected by its key.
        cache.write(9, &sample()).unwrap();
        fs::copy(cache.entry_path(9), cache.entry_path(10)).unwrap();
        match cache.read(10) {
            CacheRead::Corrupt(reason) => assert!(reason.contains("claims digest"), "{reason}"),
            other => panic!("expected corrupt, got {other:?}"),
        }

        // Recompute path: overwriting the corrupt entry heals it.
        cache.write(10, &sample()).unwrap();
        assert_eq!(cache.read(10), CacheRead::Hit(sample()));
    }

    #[test]
    fn future_version_is_corrupt_not_crash() {
        let cache = temp_cache("version");
        cache.write(3, &sample()).unwrap();
        let path = cache.entry_path(3);
        let mut bytes = fs::read(&path).unwrap();
        // Bump the version field (bytes 8..12, little-endian) and re-seal
        // the checksum so only the version check can object.
        bytes[8] = 0xEE;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&checksum);
        fs::write(&path, &bytes).unwrap();
        match cache.read(3) {
            CacheRead::Corrupt(reason) => assert!(reason.contains("version"), "{reason}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
