//! Content-addressed on-disk artifact store.
//!
//! Layout: one flat `objects/` directory under the store root, one file
//! per artifact named by the stage fingerprint's 64-char hex. A file's
//! content is
//!
//! ```text
//! payload ‖ sha256(payload) ‖ payload_len:u64-le ‖ b"TSTORE1\n"
//! ```
//!
//! The 48-byte footer makes truncation and corruption *detectable*: a
//! kill mid-write can never leave bytes that validate (writes go to a
//! same-directory `*.tmp` file and are renamed into place, and even a
//! torn rename target fails the hash check). Invalid entries are
//! treated as misses — deleted on sight and recomputed — never as
//! errors, because a store is a cache, not a source of truth.
//!
//! Hits touch the entry's mtime so [`Store::gc`] can evict in
//! least-recently-used order when the store exceeds a byte budget.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use crate::hash::{sha256, Fingerprint};

/// Trailing magic identifying a complete store entry.
const MAGIC: &[u8; 8] = b"TSTORE1\n";
/// Footer size: 32-byte hash + 8-byte length + 8-byte magic.
const FOOTER_LEN: usize = 48;

/// An immutable artifact payload: the bytes a stage produced.
///
/// Cheap to clone (shared buffer) — the executor hands the same
/// artifact to every downstream stage without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact(Arc<Vec<u8>>);

impl Artifact {
    /// Wraps produced bytes.
    pub fn new(bytes: Vec<u8>) -> Artifact {
        Artifact(Arc::new(bytes))
    }

    /// The payload.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl AsRef<[u8]> for Artifact {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// What happened to the entries during a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries removed (oldest mtime first).
    pub evicted_files: usize,
    /// Payload+footer bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries left in the store.
    pub kept_files: usize,
    /// Bytes still held after eviction.
    pub kept_bytes: u64,
}

/// A content-addressed artifact store rooted at a directory.
#[derive(Debug, Clone)]
pub struct Store {
    objects: PathBuf,
}

/// Per-process tmp-file nonce so parallel saves never collide.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        let objects = dir.join("objects");
        fs::create_dir_all(&objects)?;
        Ok(Store { objects })
    }

    /// Opens an existing store, erroring if `dir` is not already one.
    ///
    /// `--resume` uses this: resuming against a mistyped path would
    /// silently recompute everything, which is exactly what the flag
    /// promises not to do.
    pub fn open_existing(dir: &Path) -> io::Result<Store> {
        let objects = dir.join("objects");
        if !objects.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no artifact store at {} (missing objects/)", dir.display()),
            ));
        }
        Ok(Store { objects })
    }

    /// The `objects/` directory holding the entries.
    pub fn objects_dir(&self) -> &Path {
        &self.objects
    }

    fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.objects.join(fp.hex())
    }

    /// Whether a **valid** entry exists for `fp` (footer and hash
    /// checked). Does not touch the mtime; used by plan/explain.
    pub fn contains(&self, fp: Fingerprint) -> bool {
        let path = self.entry_path(fp);
        match fs::read(&path) {
            Ok(bytes) => validate(&bytes).is_some(),
            Err(_) => false,
        }
    }

    /// Loads the entry for `fp`, or `None` on miss/corruption.
    ///
    /// A corrupt or truncated entry is deleted and reported as a miss
    /// so the scheduler transparently recomputes it. A hit refreshes
    /// the entry's mtime (the LRU clock for [`Store::gc`]).
    pub fn load(&self, fp: Fingerprint) -> Option<Artifact> {
        let path = self.entry_path(fp);
        let bytes = fs::read(&path).ok()?;
        match validate(&bytes) {
            Some(payload_len) => {
                let mut payload = bytes;
                payload.truncate(payload_len);
                touch(&path);
                Some(Artifact::new(payload))
            }
            None => {
                transit_obs::counter!("stage.store.corrupt").inc();
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes `artifact` under `fp` atomically (tmp + rename).
    pub fn save(&self, fp: Fingerprint, artifact: &Artifact) -> io::Result<()> {
        let final_path = self.entry_path(fp);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self.objects.join(format!(
            ".{}.{}.{nonce}.tmp",
            fp.short(),
            std::process::id()
        ));
        let payload = artifact.bytes();
        let digest = sha256(payload);
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(payload)?;
            f.write_all(&digest)?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(MAGIC)?;
            f.sync_all()?;
        }
        match fs::rename(&tmp_path, &final_path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used entries until the store holds at most
    /// `max_bytes` (on-disk size including footers). Stray `*.tmp`
    /// files from killed writers are always removed first.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcStats> {
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        let mut total: u64 = 0;
        for entry in fs::read_dir(&self.objects)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            let meta = match entry.metadata() {
                Ok(m) if m.is_file() => m,
                _ => continue,
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            entries.push((mtime, meta.len(), path));
        }
        entries.sort(); // oldest mtime first; size+path break ties deterministically
        let mut stats = GcStats::default();
        let mut iter = entries.into_iter();
        while total > max_bytes {
            let Some((_, size, path)) = iter.next() else {
                break;
            };
            if fs::remove_file(&path).is_ok() {
                transit_obs::counter!("stage.store.evicted").inc();
                stats.evicted_files += 1;
                stats.evicted_bytes += size;
                total -= size;
            }
        }
        stats.kept_bytes = total;
        stats.kept_files = iter.count();
        Ok(stats)
    }
}

/// Checks the footer; returns the payload length if the entry is whole.
fn validate(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < FOOTER_LEN {
        return None;
    }
    let (rest, magic) = bytes.split_at(bytes.len() - MAGIC.len());
    if magic != MAGIC {
        return None;
    }
    let (rest, len_bytes) = rest.split_at(rest.len() - 8);
    let payload_len = u64::from_le_bytes(len_bytes.try_into().expect("8-byte slice")) as usize;
    let (payload, digest) = rest.split_at(rest.len().checked_sub(32)?);
    if payload.len() != payload_len {
        return None;
    }
    if sha256(payload) != *digest {
        return None;
    }
    Some(payload_len)
}

/// Best-effort mtime refresh (the LRU clock). Failures are ignored —
/// a read-only store still serves hits, it just can't be GC-ordered.
fn touch(path: &Path) {
    if let Ok(f) = fs::File::options().append(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256 as h;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir =
            std::env::temp_dir().join(format!("transit-stage-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn fp(tag: &[u8]) -> Fingerprint {
        Fingerprint(h(tag))
    }

    #[test]
    fn save_then_load_roundtrips() {
        let (dir, store) = tmp_store("roundtrip");
        let art = Artifact::new(b"payload bytes".to_vec());
        store.save(fp(b"a"), &art).unwrap();
        assert!(store.contains(fp(b"a")));
        assert_eq!(store.load(fp(b"a")).unwrap(), art);
        assert!(!store.contains(fp(b"b")));
        assert!(store.load(fp(b"b")).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_payload_is_a_valid_entry() {
        let (dir, store) = tmp_store("empty");
        store.save(fp(b"e"), &Artifact::new(Vec::new())).unwrap();
        let back = store.load(fp(b"e")).unwrap();
        assert!(back.is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_and_corrupt_entries_read_as_misses_and_are_removed() {
        let (dir, store) = tmp_store("corrupt");
        let art = Artifact::new(vec![7u8; 1000]);
        let id = fp(b"c");
        let path = store.objects_dir().join(id.hex());

        // Truncate at every interesting boundary: inside payload,
        // inside hash, inside length, inside magic, zero bytes.
        let full = {
            store.save(id, &art).unwrap();
            fs::read(&path).unwrap()
        };
        for keep in [0, 1, 999, 1000, 1015, 1031, 1032, 1039, full.len() - 1] {
            store.save(id, &art).unwrap();
            fs::write(&path, &full[..keep]).unwrap();
            assert!(store.load(id).is_none(), "keep={keep} must invalidate");
            assert!(!path.exists(), "keep={keep} must be deleted on sight");
        }

        // Single-bit payload corruption with an intact footer.
        store.save(id, &art).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[500] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(id).is_none());

        // After the miss, a recompute-save makes it valid again.
        store.save(id, &art).unwrap();
        assert_eq!(store.load(id).unwrap(), art);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn open_existing_requires_a_real_store() {
        let dir = std::env::temp_dir().join(format!(
            "transit-stage-store-{}-missing",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        assert!(Store::open_existing(&dir).is_err());
        let store = Store::open(&dir).unwrap();
        drop(store);
        assert!(Store::open_existing(&dir).is_ok());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_evicts_oldest_first_and_clears_tmp_litter() {
        let (dir, store) = tmp_store("gc");
        let ids: Vec<Fingerprint> = (0u8..4).map(|i| fp(&[i])).collect();
        for (i, &id) in ids.iter().enumerate() {
            store.save(id, &Artifact::new(vec![i as u8; 100])).unwrap();
            // Distinct mtimes, oldest first (coarse-filesystem safe).
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + i as u64);
            fs::File::options()
                .append(true)
                .open(store.objects_dir().join(id.hex()))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        fs::write(store.objects_dir().join(".litter.tmp"), b"junk").unwrap();

        // Each entry is 148 bytes on disk; budget for two of them.
        let stats = store.gc(2 * 148).unwrap();
        assert_eq!(stats.evicted_files, 2);
        assert_eq!(stats.kept_files, 2);
        assert!(
            !store.contains(ids[0]) && !store.contains(ids[1]),
            "oldest evicted"
        );
        assert!(
            store.contains(ids[2]) && store.contains(ids[3]),
            "newest kept"
        );
        assert!(!store.objects_dir().join(".litter.tmp").exists());

        // A zero budget empties the store.
        let stats = store.gc(0).unwrap();
        assert_eq!(stats.kept_files, 0);
        assert_eq!(stats.kept_bytes, 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_hit_refreshes_mtime_for_lru() {
        let (dir, store) = tmp_store("touch");
        let id = fp(b"t");
        store.save(id, &Artifact::new(vec![1, 2, 3])).unwrap();
        let path = store.objects_dir().join(id.hex());
        let old = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1);
        fs::File::options()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        store.load(id).unwrap();
        let refreshed = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(refreshed > old, "hit must advance the LRU clock");
        let _ = fs::remove_dir_all(dir);
    }
}
