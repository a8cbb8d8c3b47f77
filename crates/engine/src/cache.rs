//! The warm-start artifact cache.
//!
//! Keyed by a content hash of the model **source text**, the cache
//! maps a source to the flattened [`Module`] of its first successful
//! compile. A warm job compiles that module with `allow_deadlock`: the
//! entry exists only because a cold compile of this exact source passed
//! the totality check, so the warm job skips parse, flatten and the
//! reachability fixpoint that the check runs. Nothing BDD-shaped is
//! cached: the checking and witness fixpoints range over all states
//! and never read the reachable set.
//!
//! Only *successful* compiles are cached: a model that failed to parse,
//! deadlocked, or tripped its budget leaves no artifact behind.
//!
//! ## Long-lived processes (`smc serve`)
//!
//! Three hardening properties make the cache safe under a persistent
//! server rather than a one-shot batch:
//!
//! - **Crash-safe writes.** Disk artifacts are written to a
//!   process-private `.tmp` name, fsynced, then renamed into place, so
//!   a crash mid-write can never leave a half-written artifact under
//!   the real name — at worst an orphaned temp file that is never read.
//! - **Checksum-verified loads.** An artifact on disk is a header line
//!   (format version, key, source length, FNV-1a checksum) and the
//!   source, from which a load re-derives the module. Any mismatch
//!   (truncation, bit rot, a foreign file under the right name, another
//!   format version) demotes the entry to a miss **and deletes the
//!   file**, so one corrupt artifact costs one recompile, not a
//!   recompile per request forever.
//! - **LRU size cap.** The in-memory map and the disk directory are
//!   bounded by a least-recently-used cap ([`DEFAULT_CACHE_CAP`] unless
//!   configured), so an endless stream of distinct models cannot grow
//!   the cache without bound.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use smc_obs::Metrics;
use smc_smv::{flatten, parse, Module};

use crate::pool::lock;

/// FNV-1a 64-bit offset basis (`source_key("")`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Default LRU capacity (distinct artifacts) of the cache.
pub const DEFAULT_CACHE_CAP: usize = 256;

/// Folds `bytes` into a running FNV-1a 64-bit hash.
pub(crate) fn fnv_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit content hash of the model source — the cache key.
/// Stable across runs and platforms (no per-process seed), so a key is
/// also usable as a durable artifact identity.
pub fn source_key(source: &str) -> u64 {
    fnv_update(FNV_OFFSET, source.as_bytes())
}

/// An in-memory entry with its LRU clock stamp.
#[derive(Debug)]
struct Entry {
    module: Arc<Module>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Store {
    map: HashMap<u64, Entry>,
    /// Monotonic use clock for LRU ordering.
    tick: u64,
    cap: usize,
    /// Persistence directory; `None` keeps the cache memory-only.
    dir: Option<PathBuf>,
    metrics: Metrics,
}

/// The shared warm-start cache. Clones share one store; all methods
/// take `&self`, so workers use it concurrently.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<Mutex<Store>>,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::with_capacity(DEFAULT_CACHE_CAP)
    }
}

impl ArtifactCache {
    /// An empty, memory-only cache with the default LRU capacity.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// An empty, memory-only cache holding at most `cap` artifacts.
    pub fn with_capacity(cap: usize) -> ArtifactCache {
        ArtifactCache { inner: Arc::new(Mutex::new(Store { cap: cap.max(1), ..Store::default() })) }
    }

    /// A disk-backed cache rooted at `dir` (created if missing). Loads
    /// are lazy — an artifact written by an earlier process is picked up
    /// on first `get` of its key — and the LRU cap bounds both the map
    /// and the directory. Corruption and eviction tallies land in
    /// `metrics` (`smc_batch_cache_corrupt_total`,
    /// `smc_batch_cache_evictions_total`).
    ///
    /// # Errors
    ///
    /// The `std::io::Error` of creating `dir`, if it does not exist and
    /// cannot be created.
    pub fn with_dir(dir: &Path, cap: usize, metrics: Metrics) -> std::io::Result<ArtifactCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ArtifactCache {
            inner: Arc::new(Mutex::new(Store {
                cap: cap.max(1),
                dir: Some(dir.to_path_buf()),
                metrics,
                ..Store::default()
            })),
        })
    }

    /// The flattened module for `key`, if a job has published one — in
    /// this process or (for a disk-backed cache) in any earlier one.
    pub fn get(&self, key: u64) -> Option<Arc<Module>> {
        let mut store = lock(&self.inner);
        store.tick += 1;
        let tick = store.tick;
        if let Some(entry) = store.map.get_mut(&key) {
            entry.last_used = tick;
            return Some(Arc::clone(&entry.module));
        }
        // Lazy disk load: this is what lets a restarted server warm-start
        // from artifacts a previous process persisted. The decode runs
        // under the store lock — it only happens once per key per
        // process, so contention is a restart transient, not steady state.
        let dir = store.dir.clone()?;
        let module = Arc::new(load_from_disk(&dir, key, &store.metrics)?);
        store.map.insert(key, Entry { module: Arc::clone(&module), last_used: tick });
        evict_over_cap(&mut store);
        Some(module)
    }

    /// Publishes the flattened module of `source`, whose content key is
    /// `key`. First write wins: concurrent jobs on the same source race
    /// benignly (their modules are equal — flattening is
    /// deterministic), and keeping the incumbent means a reader never
    /// sees an entry change under it. Disk-backed caches also persist
    /// the source (atomically: temp file, fsync, rename); persistence
    /// failure degrades to memory-only silently — the cache is an
    /// optimization layer.
    pub fn insert(&self, key: u64, source: &str, module: Module) {
        let mut store = lock(&self.inner);
        store.tick += 1;
        let tick = store.tick;
        if store.map.contains_key(&key) {
            return;
        }
        if let Some(dir) = store.dir.clone() {
            let _ = write_to_disk(&dir, key, source);
        }
        store.map.insert(key, Entry { module: Arc::new(module), last_used: tick });
        evict_over_cap(&mut store);
    }

    /// Number of distinct artifacts held in memory.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evicts least-recently-used entries (and their disk files) until the
/// store is within its cap.
fn evict_over_cap(store: &mut Store) {
    while store.map.len() > store.cap {
        let Some(victim) = store.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
        else {
            return;
        };
        store.map.remove(&victim);
        if let Some(dir) = &store.dir {
            let _ = std::fs::remove_file(artifact_path(dir, victim));
        }
        store.metrics.counter_add("smc_batch_cache_evictions_total", &[], 1);
    }
}

/// The durable file name of an artifact: its content key, hex.
fn artifact_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.smcart"))
}

/// The header line of the artifact for a source: format version, key,
/// source length and the source's FNV-1a checksum (which, for a file
/// that belongs under its name, equals the key).
fn header(key: u64, source_len: usize, checksum: u64) -> String {
    format!("smcart 2 {key:016x} {source_len} {checksum:016x}")
}

/// Writes an artifact durably: process-private temp name, fsync, rename
/// into place. A crash at any point leaves either the old state or the
/// complete new file — never a torn artifact under the real name.
fn write_to_disk(dir: &Path, key: u64, source: &str) -> std::io::Result<()> {
    let path = artifact_path(dir, key);
    if path.exists() {
        return Ok(()); // first (durable) write wins, same as in memory
    }
    let tmp = dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{}", header(key, source.len(), source_key(source)))?;
        f.write_all(source.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)?;
        // Best-effort directory durability for the rename itself.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads and verifies a disk artifact. Any defect — truncation, header
/// damage, checksum mismatch, another format version, a source that no
/// longer parses — deletes the file and returns `None` (a miss), so
/// corruption self-heals on the next cold compile.
fn load_from_disk(dir: &Path, key: u64, metrics: &Metrics) -> Option<Module> {
    let path = artifact_path(dir, key);
    let bytes = std::fs::read(&path).ok()?;
    match decode_artifact(key, &bytes) {
        Some(module) => Some(module),
        None => {
            let _ = std::fs::remove_file(&path);
            metrics.counter_add("smc_batch_cache_corrupt_total", &[], 1);
            None
        }
    }
}

/// Decodes the on-disk format, a header line and the source:
///
/// ```text
/// smcart 2 <key:016x> <source_len> <source_fnv:016x>\n
/// <source bytes>
/// ```
///
/// The header must be exactly the one the source is written with, and
/// the source must hash to the key the file is named by: a truncated or
/// altered file, a foreign one, or one in another format version fails
/// one or the other.
fn decode_artifact(key: u64, bytes: &[u8]) -> Option<Module> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let source = std::str::from_utf8(&bytes[nl + 1..]).ok()?;
    let checksum = source_key(source);
    if checksum != key || bytes[..nl] != *header(key, source.len(), checksum).as_bytes() {
        return None;
    }
    flatten(&parse(source).ok()?).ok()
}
