//! Checked-in minimized corpus.
//!
//! Layout: `crates/fuzz/corpus/<target>/<class>-<n>.bin` — the file
//! name's leading `<class>` (up to the last `-`) is the classification
//! the input must still produce when replayed, which turns the corpus
//! into a set of pinned regression cases. The driver binary
//! (`stitch-fuzz <target> --write-corpus`) regenerates each directory's
//! harvested inputs, `<class>-<n>.bin` with a numeric `<n>`: it keeps
//! one minimal representative per classification (plus, for the
//! differential target, per new-coverage input) and greedily shrinks
//! word images while the classification is preserved. Hand-made blobs
//! carry a non-numeric tag without a `-` instead (`<class>-<tag>.bin`,
//! e.g. `snap-restore-err-spm_length.bin`) and survive regeneration.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::targets::{self, Target};

/// Root of the checked-in corpus (inside the crate, so replay tests
/// find it from `CARGO_MANIFEST_DIR` without configuration).
#[must_use]
pub fn corpus_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Directory holding one target's corpus.
#[must_use]
pub fn corpus_dir(target: Target) -> PathBuf {
    corpus_root().join(target.name())
}

/// Loads a target's corpus as `(expected classification, bytes)`
/// pairs, sorted by file name for determinism. Missing directories
/// yield an empty corpus (the harness still runs seeded sweeps).
#[must_use]
pub fn load(target: Target) -> Vec<(String, Vec<u8>)> {
    let dir = corpus_dir(target);
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
        .into_iter()
        .filter_map(|path| {
            let stem = path.file_stem()?.to_str()?.to_owned();
            let class = match stem.rsplit_once('-') {
                Some((class, _)) => class.to_owned(),
                None => stem,
            };
            let bytes = fs::read(&path).ok()?;
            Some((class, bytes))
        })
        .collect()
}

/// Keeps `bytes` as `class`'s representative when it is the first or
/// the smallest input seen with that class.
pub fn keep_smallest(
    seen: &mut BTreeMap<&'static str, Vec<u8>>,
    class: &'static str,
    bytes: Vec<u8>,
) {
    if seen.get(class).is_none_or(|old| bytes.len() < old.len()) {
        seen.insert(class, bytes);
    }
}

/// Runs the snapshot target on `seed` and keeps in `seen`, per class
/// [`targets::run_snapshot`] gave an input, the smallest such input —
/// the inputs the sweep classified, structure-aware corruptions
/// included. Returns the seed's class. A blob lands on a fresh chip
/// when replayed, so its corpus file is named by
/// [`targets::replay_snapshot`]'s class, not by the key it is kept
/// under.
pub fn harvest_snapshot(seed: u64, seen: &mut BTreeMap<&'static str, Vec<u8>>) -> &'static str {
    let (class, inputs) = targets::run_snapshot(seed);
    for (class, blob) in inputs {
        keep_smallest(seen, class, blob);
    }
    class
}

/// Writes a freshly minimized corpus into `dir`, replacing the
/// previously harvested inputs there; hand-made blobs are kept.
pub fn store(dir: &Path, inputs: &[(String, Vec<u8>)]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if is_harvested(&path) {
            fs::remove_file(&path)?;
        }
    }
    for (n, (class, bytes)) in inputs.iter().enumerate() {
        fs::write(dir.join(format!("{class}-{n}.bin")), bytes)?;
    }
    Ok(())
}

/// True for a harvested input's file name, `<class>-<n>.bin`.
fn is_harvested(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "bin")
        && path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit_once('-'))
            .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_keeps_hand_made_blobs() {
        let dir = std::env::temp_dir().join(format!("stitch-fuzz-corpus-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        fs::write(dir.join("snap-restore-err-spm_length.bin"), b"hand").expect("write");
        fs::write(dir.join("snap-ok-7.bin"), b"stale").expect("write");
        store(&dir, &[("snap-err".to_owned(), b"new".to_vec())]).expect("store");
        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        let hand = fs::read(dir.join("snap-restore-err-spm_length.bin"));
        fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(names, ["snap-err-0.bin", "snap-restore-err-spm_length.bin"]);
        assert_eq!(hand.expect("hand-made blob survives"), b"hand");
    }
}
