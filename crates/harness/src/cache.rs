//! Content-addressed on-disk result store.
//!
//! Layout (under the root, conventionally `results/cache/`):
//!
//! ```text
//! results/cache/<first two hex chars>/<stage>-<32-hex-digest>.json
//! results/cache/<first two hex chars>/trace-<32-hex-digest>.bin
//! ```
//!
//! Keys come from [`crate::key`]; `.json` values are the JSON encodings
//! from [`crate::codec`] (a transform entry is the transformed program's
//! digest and its report, not the program), `.bin` values are binary
//! trace blobs in the [`guardspec_interp::tracefile`] format.  Blobs are
//! the only entries with meaningful size, so [`DiskCache::gc_blobs`] caps
//! their total footprint (oldest evicted first); the JSON entries are
//! never evicted.  The cap is checked by walking every file, so the
//! runner walks only after a run that stored a blob.  Writes go through a
//! temp file + rename so concurrent writers of the same key (two worker
//! threads, or two bench binaries running at once) can never expose a
//! torn entry — last writer wins with identical contents, since contents
//! are a pure function of the key.
//!
//! Hit/miss counters are atomic and feed the run artifact, which is how the
//! acceptance criterion "a warm run performs zero re-profiles/re-simulations"
//! is made observable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
pub struct DiskCache {
    root: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    race_lost: AtomicU64,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DiskCache {
    /// A cache rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> DiskCache {
        DiskCache {
            root: Some(root.into()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            race_lost: AtomicU64::new(0),
        }
    }

    /// A disabled cache: every `get` misses, every `put` is dropped.
    pub fn disabled() -> DiskCache {
        DiskCache {
            root: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            race_lost: AtomicU64::new(0),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.root.is_some()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Writes whose target already existed when the rename landed: another
    /// writer of the same key got there first.  Contents are a pure
    /// function of the key, so losing the race is harmless — the counter
    /// exists so the server's dedup efficacy is observable (a hot daemon
    /// should keep this near zero; every increment is a duplicated
    /// computation the in-flight dedup layer failed to coalesce).
    pub fn race_lost(&self) -> u64 {
        self.race_lost.load(Ordering::Relaxed)
    }

    fn path_for_ext(&self, key: &str, ext: &str) -> Option<PathBuf> {
        let root = self.root.as_ref()?;
        // Shard on the first two digest characters to keep directories small.
        let digest = key.rsplit('-').next().unwrap_or(key);
        let shard = digest.get(0..2).unwrap_or("xx");
        Some(root.join(shard).join(format!("{key}.{ext}")))
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.path_for_ext(key, "json")
    }

    /// Look up a key, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<String> {
        let path = self.path_for(key)?;
        match std::fs::read_to_string(&path) {
            Ok(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a value.  I/O failures are non-fatal (the cache is an
    /// accelerator, not a source of truth) but reported on stderr.
    pub fn put(&self, key: &str, contents: &str) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        match write_atomic(&path, contents.as_bytes()) {
            Ok(raced) => {
                if raced {
                    self.race_lost.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => crate::log::warn(
                "cache.write_failed",
                &[
                    ("path", crate::json::Json::str(path.display().to_string())),
                    ("error", crate::json::Json::str(e.to_string())),
                ],
            ),
        }
    }

    /// Raw lookup for serving entries to a peer daemon: tries the `.json`
    /// form first, then `.bin`, and touches **no** hit/miss counters — a
    /// peer probing for keys it may not have must not skew the local
    /// cache-efficacy numbers.
    pub fn peek(&self, key: &str) -> Option<Vec<u8>> {
        let json = self.path_for(key)?;
        if let Ok(b) = std::fs::read(&json) {
            return Some(b);
        }
        std::fs::read(self.path_for_ext(key, "bin")?).ok()
    }

    /// Look up a binary blob (`.bin` entries — trace files), counting the
    /// hit or miss on the shared counters.
    pub fn get_bytes(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.path_for_ext(key, "bin")?;
        match std::fs::read(&path) {
            Ok(b) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(b)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a binary blob under `<key>.bin`; failures are non-fatal.
    pub fn put_bytes(&self, key: &str, contents: &[u8]) {
        let Some(path) = self.path_for_ext(key, "bin") else {
            return;
        };
        match write_atomic(&path, contents) {
            Ok(raced) => {
                if raced {
                    self.race_lost.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => crate::log::warn(
                "cache.write_failed",
                &[
                    ("path", crate::json::Json::str(path.display().to_string())),
                    ("error", crate::json::Json::str(e.to_string())),
                ],
            ),
        }
    }

    /// Evict oldest-first binary blobs until their total size is at most
    /// `max_total_bytes`.  JSON stage entries are tiny and never evicted;
    /// trace blobs are the only entries that can grow without bound (one
    /// per distinct program text × scale).  Returns the bytes deleted.
    pub fn gc_blobs(&self, max_total_bytes: u64) -> u64 {
        let Some(root) = self.root.as_ref() else {
            return 0;
        };
        let mut blobs: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let Ok(shards) = std::fs::read_dir(root) else {
            return 0;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_none_or(|e| e != "bin") {
                    continue;
                }
                if let Ok(meta) = f.metadata() {
                    let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    blobs.push((mtime, meta.len(), path));
                }
            }
        }
        let mut total: u64 = blobs.iter().map(|b| b.1).sum();
        if total <= max_total_bytes {
            return 0;
        }
        blobs.sort(); // oldest mtime first; path breaks ties deterministically
        let mut deleted = 0u64;
        for (_, size, path) in blobs {
            if total <= max_total_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= size;
                deleted += size;
            }
        }
        deleted
    }
}

/// Write `contents` to `path` via a unique temp file + rename, so readers
/// can never observe a torn entry.  Returns whether the target already
/// existed just before the rename landed — i.e. whether some other writer
/// of the same key won the race (contents are a pure function of the key,
/// so last-writer-wins is identical either way; the flag only feeds the
/// `race_lost` counter).
fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<bool> {
    let dir = path.parent().expect("cache path has a parent");
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    let raced = path.exists();
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(raced),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("guardspec-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn get_put_get() {
        let root = scratch_dir("basic");
        let c = DiskCache::new(&root);
        assert_eq!(c.get("profile-aabbcc"), None);
        c.put("profile-aabbcc", "{\"x\":1}");
        assert_eq!(c.get("profile-aabbcc").as_deref(), Some("{\"x\":1}"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Sharded under the digest prefix.
        assert!(root.join("aa").join("profile-aabbcc.json").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_blobs_roundtrip_beside_json() {
        let root = scratch_dir("bytes");
        let c = DiskCache::new(&root);
        assert_eq!(c.get_bytes("trace-ddeeff"), None);
        c.put_bytes("trace-ddeeff", &[1, 2, 0xff]);
        assert_eq!(
            c.get_bytes("trace-ddeeff").as_deref(),
            Some(&[1, 2, 0xff][..])
        );
        // Same key space, different extension: no collision with JSON.
        c.put("trace-ddeeff", "{}");
        assert_eq!(c.get("trace-ddeeff").as_deref(), Some("{}"));
        assert_eq!(
            c.get_bytes("trace-ddeeff").as_deref(),
            Some(&[1, 2, 0xff][..])
        );
        assert!(root.join("dd").join("trace-ddeeff.bin").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_caps_blob_bytes_oldest_first_and_spares_json() {
        let root = scratch_dir("gc");
        let c = DiskCache::new(&root);
        c.put("sim-aa11", "{\"kept\":true}");
        for (i, key) in ["trace-00aa", "trace-11bb", "trace-22cc"]
            .iter()
            .enumerate()
        {
            c.put_bytes(key, &vec![0u8; 1000]);
            // Distinct mtimes so eviction order is the write order.
            let path = root.join(&key[6..8]).join(format!("{key}.bin"));
            let t =
                std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i as u64);
            let f = std::fs::File::open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        // Cap at 2 blobs' worth: the oldest one goes.
        assert_eq!(c.gc_blobs(2000), 1000);
        assert_eq!(c.get_bytes("trace-00aa"), None);
        assert!(c.get_bytes("trace-11bb").is_some());
        assert!(c.get_bytes("trace-22cc").is_some());
        assert!(
            c.get("sim-aa11").is_some(),
            "JSON entries are never evicted"
        );
        // Under the cap: nothing further deleted.
        assert_eq!(c.gc_blobs(2000), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn peek_reads_both_forms_without_counting() {
        let root = scratch_dir("peek");
        let c = DiskCache::new(&root);
        assert_eq!(c.peek("sim-0011"), None);
        c.put("sim-0011", "{\"v\":1}");
        c.put_bytes("trace-2233", &[9, 8, 7]);
        assert_eq!(c.peek("sim-0011").as_deref(), Some(&b"{\"v\":1}"[..]));
        assert_eq!(c.peek("trace-2233").as_deref(), Some(&[9, 8, 7][..]));
        assert_eq!((c.hits(), c.misses()), (0, 0), "peek must not count");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = DiskCache::disabled();
        c.put("k", "v");
        assert_eq!(c.get("k"), None);
        assert!(!c.is_enabled());
    }

    #[test]
    fn second_writer_of_same_key_counts_race_lost() {
        let root = scratch_dir("race-seq");
        let c = DiskCache::new(&root);
        c.put("sim-beef00", "{\"v\":1}");
        assert_eq!(c.race_lost(), 0, "first write has no one to race");
        c.put("sim-beef00", "{\"v\":1}");
        assert_eq!(c.race_lost(), 1, "overwrite means someone got there first");
        // Different key: no race.
        c.put_bytes("trace-cafe00", &[1]);
        assert_eq!(c.race_lost(), 1);
        c.put_bytes("trace-cafe00", &[1]);
        assert_eq!(c.race_lost(), 2, "blob writes share the counter");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_same_key_puts_never_tear_the_entry() {
        // Two threads racing hammer the same key; every intermediate read
        // must see one of the two complete payloads — never a torn mix —
        // and the final entry must be intact.  This is the server path:
        // concurrent requests that slipped past in-flight dedup (e.g. one
        // arrived after the flight published) both write their results.
        let root = scratch_dir("race-thr");
        let c = std::sync::Arc::new(DiskCache::new(&root));
        let payload = "x".repeat(64 * 1024); // big enough to tear if unbuffered
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = c.clone();
            let payload = payload.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    c.put("sim-feed01", &payload);
                }
            }));
        }
        let reader = {
            let c = c.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                let mut seen = 0u32;
                while seen < 20 {
                    if let Some(got) = c.get("sim-feed01") {
                        assert_eq!(got, payload, "reader observed a torn entry");
                        seen += 1;
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(c.get("sim-feed01").as_deref(), Some(payload.as_str()));
        assert!(
            c.race_lost() >= 1,
            "100 same-key writes must have raced at least once"
        );
        // No temp droppings left behind.
        let shard = root.join("fe");
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .flatten()
            .filter(|f| f.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
