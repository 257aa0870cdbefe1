//! Content-addressed result cache.
//!
//! One file per entry, named by the 64-bit content key of the full case
//! descriptor (see [`crate::digest`]). Because the *key* carries all the
//! inputs — workload, dataset, variant, thread count, every `SocConfig`
//! timing parameter, the fault schedule, a schema version — there is no
//! invalidation logic at all: editing a configuration changes the keys of
//! exactly the affected cases, whose old entries simply become garbage
//! that a later [`ResultCache::clear`] can sweep. The old ad-hoc
//! per-suite TSV caches required a manual delete to pick up config
//! edits; this cache cannot serve a stale row by construction.
//!
//! Writes go through a temp file + rename so concurrent writers (e.g.
//! two fleet workers finishing the same key after a racey double miss)
//! leave a complete entry either way.
//!
//! Entries carry an integrity header (`maple-fleet-entry v2
//! len=<bytes> sum=<digest>`): a load that finds a truncated, corrupt,
//! or headerless file — a writer killed before the rename on a
//! filesystem that reordered the data flush, bit-rot, or a
//! pre-integrity-era entry — treats it as a **miss and evicts the
//! entry**, never a panic or a garbage row bubbling into a batch. The
//! caller recomputes and overwrites, so a process killed at any point of
//! a `put` leaves the cache usable.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::digest::Digest;

/// Schema tag of the entry checksum digest; bumping it invalidates every
/// on-disk entry (they evict as corrupt on first touch).
const ENTRY_SCHEMA: u64 = 2;

/// Magic first header field of a well-formed entry.
const ENTRY_MAGIC: &str = "maple-fleet-entry v2";

fn entry_sum(payload: &str) -> u64 {
    Digest::new(ENTRY_SCHEMA).str(payload).finish()
}

/// The workspace root, derived from this crate's compile-time manifest
/// directory (`crates/fleet` → two `pop`s).
#[must_use]
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// The default cache directory: `<target>/fleet-cache`, where `<target>`
/// honors a runtime `CARGO_TARGET_DIR` (absolute, or relative to the
/// workspace root) and otherwise falls back to the workspace `target/`.
///
/// This replaces the old hard-coded `../../target/bench-cache`, which
/// broke whenever the binary's working directory was not the crate root.
#[must_use]
pub fn default_cache_dir() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                workspace_root().join(dir)
            }
        }
        None => workspace_root().join("target"),
    };
    target.join("fleet-cache")
}

/// A directory of content-addressed entries: `get`/`put` by 64-bit key,
/// values are opaque strings (the bench layer stores TSV rows).
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// Opens the workspace-default cache (see [`default_cache_dir`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open_default() -> io::Result<Self> {
        Self::open(default_cache_dir())
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.entry"))
    }

    /// Looks up an entry. `None` on a miss; an unreadable, truncated, or
    /// corrupt entry is a miss **and is evicted** — the caller will
    /// recompute and overwrite it. Never panics and never returns a
    /// payload that fails its integrity check.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<String> {
        let path = self.entry_path(key);
        let bytes = fs::read(&path).ok()?;
        match Self::parse_entry(&bytes) {
            Some(payload) => Some(payload),
            None => {
                // Corrupt or pre-integrity entry: evict so the slot heals
                // on the next put instead of failing every lookup.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Validates and extracts the payload of an on-disk entry; `None` on
    /// any deviation from the v2 format.
    fn parse_entry(bytes: &[u8]) -> Option<String> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (header, payload) = text.split_once('\n')?;
        let rest = header.strip_prefix(ENTRY_MAGIC)?;
        let rest = rest.strip_prefix(" len=")?;
        let (len, rest) = rest.split_once(" sum=")?;
        let len: usize = len.parse().ok()?;
        let sum = u64::from_str_radix(rest, 16).ok()?;
        if payload.len() != len || entry_sum(payload) != sum {
            return None;
        }
        Some(payload.to_owned())
    }

    /// Stores an entry, replacing any previous value at this key.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the entry cannot be
    /// written.
    pub fn put(&self, key: u64, value: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let tmp = self.root.join(format!(
            ".{key:016x}.{}.tmp",
            std::process::id()
        ));
        let entry = format!(
            "{ENTRY_MAGIC} len={} sum={:016x}\n{value}",
            value.len(),
            entry_sum(value)
        );
        fs::write(&tmp, entry)?;
        fs::rename(&tmp, &path)
    }

    /// Removes one entry if present.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (not-found is *not* an error).
    pub fn remove(&self, key: u64) -> io::Result<()> {
        match fs::remove_file(self.entry_path(key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Removes every entry (sweeps garbage left behind by key changes).
    ///
    /// # Errors
    ///
    /// Returns the first underlying I/O error.
    pub fn clear(&self) -> io::Result<()> {
        for dirent in fs::read_dir(&self.root)? {
            let path = dirent?.path();
            if path.extension().is_some_and(|e| e == "entry") {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Number of entries currently stored.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// read.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for dirent in fs::read_dir(&self.root)? {
            if dirent?.path().extension().is_some_and(|e| e == "entry") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the cache holds no entries.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// read.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maple-fleet-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_miss() {
        let cache = ResultCache::open(scratch("rt")).unwrap();
        assert_eq!(cache.get(42), None);
        cache.put(42, "spmv\t2\t123\n").unwrap();
        assert_eq!(cache.get(42).as_deref(), Some("spmv\t2\t123\n"));
        assert_eq!(cache.get(43), None, "other keys unaffected");
        cache.remove(42).unwrap();
        assert_eq!(cache.get(42), None);
        cache.remove(42).unwrap();
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn clear_and_len() {
        let cache = ResultCache::open(scratch("clear")).unwrap();
        for k in 0..5u64 {
            cache.put(k, "x").unwrap();
        }
        assert_eq!(cache.len().unwrap(), 5);
        assert!(!cache.is_empty().unwrap());
        cache.clear().unwrap();
        assert!(cache.is_empty().unwrap());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entries_are_misses_and_are_evicted() {
        let cache = ResultCache::open(scratch("corrupt")).unwrap();
        cache.put(7, "good row\n").unwrap();
        let path = cache.root().join(format!("{:016x}.entry", 7u64));

        // Truncated mid-write: drop the tail of a valid entry.
        let full = fs::read(&path).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(cache.get(7), None, "cut at {cut} must be a miss");
            assert!(!path.exists(), "cut at {cut} must be evicted");
            cache.put(7, "good row\n").unwrap(); // heals
            assert_eq!(cache.get(7).as_deref(), Some("good row\n"));
        }

        // Bit-rot: flip a payload byte under an otherwise intact header.
        let mut rotted = fs::read(&path).unwrap();
        let last = rotted.len() - 2;
        rotted[last] ^= 0x40;
        fs::write(&path, &rotted).unwrap();
        assert_eq!(cache.get(7), None, "checksum mismatch is a miss");
        assert!(!path.exists());

        // Garbage bytes (not even UTF-8), and a headerless v1-era entry.
        fs::write(&path, [0xFF, 0xFE, 0x00, 0x9C]).unwrap();
        assert_eq!(cache.get(7), None);
        assert!(!path.exists());
        fs::write(&path, "bare v1 payload with no header\n").unwrap();
        assert_eq!(cache.get(7), None, "pre-integrity entries evict as misses");
        assert!(!path.exists());

        // The slot still works after all that abuse.
        cache.put(7, "recomputed\n").unwrap();
        assert_eq!(cache.get(7).as_deref(), Some("recomputed\n"));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn header_cannot_be_spoofed_by_payload_content() {
        // A payload that *contains* an entry header must round-trip
        // verbatim — framing is by the outer header's length field.
        let cache = ResultCache::open(scratch("spoof")).unwrap();
        let tricky = format!("{ENTRY_MAGIC} len=0 sum=0000000000000000\nrow\n");
        cache.put(9, &tricky).unwrap();
        assert_eq!(cache.get(9).as_deref(), Some(tricky.as_str()));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn default_dir_lives_under_a_target_dir() {
        let dir = default_cache_dir();
        assert_eq!(dir.file_name().unwrap(), "fleet-cache");
        let parent = dir.parent().unwrap().to_string_lossy().into_owned();
        assert!(
            parent.contains("target") || std::env::var_os("CARGO_TARGET_DIR").is_some(),
            "unexpected cache parent: {parent}"
        );
    }

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
