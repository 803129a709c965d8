//! The content-addressed artifact store.
//!
//! A directory of self-checking record files, one per key: verified
//! artifacts under content keys, and the per-point records of crash-safe
//! resumable sweeps under point keys. The file discipline is hardened
//! for a cache whose *contents* are trusted artifacts (a decoded
//! artifact skips live verification):
//!
//! * **Atomic writes** — payloads go to a `.tmp` sibling first and are
//!   `rename`d into place, so readers observe a complete file or none.
//! * **Self-checking files** — magic/format version, the full content
//!   key echoed back (a renamed or hash-colliding file cannot
//!   impersonate another key), the payload, and an FNV-1a checksum.
//! * **Invalid reads as absent** — truncation, corruption, a stale
//!   format version, a key mismatch: every failure mode returns `None`,
//!   and the caller re-verifies live. A poisoned cache can cost time,
//!   never correctness.
//!
//! Artifact content keys are derived by callers from a SHA-256 over the
//! artifact *inputs* (program bytes, ISE mappings, plan, arch parameters, and
//! `stitch_verify::VERIFIER_VERSION`), so any mutated input — or a
//! verifier upgrade — misses the cache by construction.

use crate::{fnv1a64, DecodeError, Rec, RecView};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic + format version of an artifact file (bumping the version
/// retires every existing artifact at once).
const MAGIC: &[u8; 8] = b"STCHART1";

/// Extension of completed artifact files.
const ART_EXT: &str = "art";

/// A directory of atomically written, self-checking artifact files,
/// plus hit/miss counters (shared by every handle through the `Arc`
/// callers wrap the store in).
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads served from a valid artifact file so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found no (valid) artifact so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// File path for a content key. Keys are hex digests in practice,
    /// but hostile keys stay safe: characters outside `[A-Za-z0-9._-]`
    /// are replaced and a hash of the original key disambiguates.
    fn path_for(&self, key: &str) -> PathBuf {
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let name = if safe == key {
            format!("{safe}.{ART_EXT}")
        } else {
            format!("{safe}-{:016x}.{ART_EXT}", fnv1a64(key.as_bytes()))
        };
        self.dir.join(name)
    }

    /// Returns the payload stored for `key`, or `None` when no valid
    /// artifact exists — which includes every failure mode (missing
    /// file, truncation, corruption, wrong key, stale format version):
    /// an invalid artifact is indistinguishable from work still to do,
    /// and re-verifying live is always correct.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let payload = self.load_inner(key);
        match payload {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        payload
    }

    fn load_inner(&self, key: &str) -> Option<Vec<u8>> {
        let bytes = fs::read(self.path_for(key)).ok()?;
        Some(payload_of(&bytes, key).ok()?.to_vec())
    }

    /// Atomically records `payload` as the artifact for `key`: the bytes
    /// are written to a temporary sibling and renamed into place, so
    /// concurrent readers observe either the complete file or nothing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/rename failure.
    pub fn store(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let path = self.path_for(key);
        let mut rec = Rec::new();
        rec.raw(MAGIC);
        rec.str(key);
        rec.blob(payload);
        let sum = fnv1a64(rec.as_bytes());
        rec.u64(sum);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, rec.into_bytes())?;
        fs::rename(&tmp, &path)
    }

    /// The one resume step of a crash-safe sweep: returns the record
    /// stored for `key` when it loads and `decode`s cleanly; otherwise
    /// runs `compute` and atomically persists `encode` of its result
    /// before returning it. A missing, corrupt or stale record is
    /// therefore recomputed and healed. Callers should build their
    /// reports from the returned records only (floats round-trip as
    /// bit patterns through [`Rec`]), so a resumed sweep emits the same
    /// bytes as an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Propagates the [`ArtifactStore::store`] failure.
    pub fn load_or_store<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> T,
    ) -> io::Result<T> {
        if let Some(t) = self.load(key).and_then(|b| decode(&b).ok()) {
            return Ok(t);
        }
        let t = compute();
        self.store(key, &encode(&t))?;
        Ok(t)
    }

    /// Number of artifact files currently in the store.
    #[must_use]
    pub fn completed(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == ART_EXT))
            .count()
    }

    /// Removes every artifact (and leftover temporary) file.
    ///
    /// # Errors
    ///
    /// Propagates the first removal failure.
    pub fn clear(&self) -> io::Result<()> {
        for e in fs::read_dir(&self.dir)?.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == ART_EXT || x == "tmp") {
                fs::remove_file(&p)?;
            }
        }
        Ok(())
    }
}

/// Checks an artifact file's framing — magic, echoed key, checksum,
/// nothing trailing — and returns its payload.
fn payload_of<'a>(bytes: &'a [u8], key: &str) -> Result<&'a [u8], DecodeError> {
    let mut v = RecView::new(bytes);
    if v.bytes(MAGIC.len())? != MAGIC {
        return Err(DecodeError::corrupt("file magic"));
    }
    if v.str()? != key {
        return Err(DecodeError::corrupt("echoed key"));
    }
    let payload = v.blob()?;
    let sum = v.u64()?;
    v.finish()?;
    if sum != fnv1a64(&bytes[..bytes.len() - 8]) {
        return Err(DecodeError::corrupt("checksum"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("stitch-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    #[test]
    fn store_then_load_round_trips_and_counts_hits() {
        let s = tmp_store("roundtrip");
        assert_eq!(s.load("k"), None);
        assert_eq!((s.hits(), s.misses()), (0, 1));
        s.store("k", b"artifact").expect("store");
        assert_eq!(s.load("k").as_deref(), Some(&b"artifact"[..]));
        assert_eq!((s.hits(), s.misses()), (1, 1));
        assert_eq!(s.completed(), 1);
        let _ = fs::remove_dir_all(s.dir());
    }

    /// The poisoning corpus: truncated, bit-flipped, version-bumped, and
    /// impersonating files must all read as absent — the caller then
    /// re-verifies live, so a poisoned cache can never serve a stale or
    /// corrupt artifact.
    #[test]
    fn truncated_and_bitflipped_artifacts_read_as_absent() {
        let s = tmp_store("poison");
        s.store("pt", b"payload").expect("store");
        let path = s.path_for("pt");
        let full = fs::read(&path).expect("read back");

        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).expect("truncate");
            assert_eq!(s.load_inner("pt"), None, "cut at {cut} accepted");
        }
        for i in 0..full.len() {
            let mut dented = full.clone();
            dented[i] ^= 0x40;
            fs::write(&path, &dented).expect("corrupt");
            assert_eq!(s.load_inner("pt"), None, "flip at {i} accepted");
        }
        fs::write(&path, &full).expect("restore");
        assert_eq!(s.load_inner("pt").as_deref(), Some(&b"payload"[..]));
        let _ = fs::remove_dir_all(s.dir());
    }

    /// A file written under an older (or newer) format version must be
    /// invisible, even with a correct checksum for its own bytes.
    #[test]
    fn version_bumped_artifacts_read_as_absent() {
        let s = tmp_store("version");
        for stale_magic in [b"STCHART0", b"STCHART2", b"STCHPT01"] {
            let mut rec = Rec::new();
            rec.raw(stale_magic);
            rec.str("vkey");
            rec.blob(b"old payload");
            let sum = fnv1a64(rec.as_bytes());
            rec.u64(sum);
            fs::write(s.path_for("vkey"), rec.into_bytes()).expect("write stale");
            assert_eq!(
                s.load("vkey"),
                None,
                "stale magic {:?} accepted",
                std::str::from_utf8(stale_magic)
            );
        }
        let _ = fs::remove_dir_all(s.dir());
    }

    /// A renamed artifact (the on-disk shape of a filename/hash
    /// collision) cannot impersonate another key: the echoed key wins.
    #[test]
    fn renamed_artifacts_cannot_impersonate_other_keys() {
        let s = tmp_store("rename");
        s.store("key-a", b"aaa").expect("store");
        fs::rename(s.path_for("key-a"), s.path_for("key-b")).expect("rename");
        assert_eq!(s.load("key-b"), None, "key binding not enforced");
        // And the original key now misses too (its file is gone).
        assert_eq!(s.load("key-a"), None);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn hostile_keys_map_to_distinct_files() {
        let s = tmp_store("keys");
        s.store("a/b", b"one").expect("store");
        s.store("a_b", b"two").expect("store");
        s.store("a:b", b"three").expect("store");
        assert_eq!(s.load("a/b").as_deref(), Some(&b"one"[..]));
        assert_eq!(s.load("a_b").as_deref(), Some(&b"two"[..]));
        assert_eq!(s.load("a:b").as_deref(), Some(&b"three"[..]));
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn clear_removes_artifacts_and_leftover_tmps() {
        let s = tmp_store("clear");
        s.store("x", b"1").expect("store");
        fs::write(s.dir().join("y.tmp"), b"partial").expect("tmp");
        assert_eq!(s.completed(), 1);
        s.clear().expect("clear");
        assert_eq!(s.completed(), 0);
        assert_eq!(s.load("x"), None);
        assert!(!s.dir().join("y.tmp").exists());
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn overwriting_is_atomic_last_writer_wins() {
        let s = tmp_store("overwrite");
        s.store("k", b"old").expect("store");
        s.store("k", b"new").expect("store");
        assert_eq!(s.load("k").as_deref(), Some(&b"new"[..]));
        assert_eq!(s.completed(), 1);
        let _ = fs::remove_dir_all(s.dir());
    }
}
