//! Content-addressed checkpoint store for sampled simulation.
//!
//! A [`CheckpointStore`] caches what the functional fast-forward of
//! [`run_sampled`](crate::SimBuilder::run_sampled) produces at each
//! window boundary: the golden-model [`Checkpoint`] (registers, PC,
//! memory image) plus the functionally warmed cache/predictor state.
//! Entries are addressed by [`CheckpointKey`] — the workload's program
//! fingerprint (the manifest `seed`), the builder's *warm fingerprint*
//! (everything that shapes warmed state: hierarchy geometry,
//! branch-predictor geometry, doppelganger config — see
//! [`SimBuilder::warm_fingerprint`](crate::SimBuilder::warm_fingerprint)),
//! and the retired-instruction offset of the window's warmup start.
//! Both fingerprints are FNV-1a-64 ([`dgl_isa::hash`]). Because
//! functional warming is *scheme-independent* and the stride table
//! trains only on committed loads whatever the address-prediction
//! flag, all eight configurations of a sweep share the same entries;
//! only configurations that would warm differently (cache or predictor
//! geometry) get separate ones.
//!
//! Two snapshot tiers:
//!
//! * an in-memory LRU tier of copy-on-write clones, shared by every
//!   worker of a `dgl serve` batch (entries are behind [`Arc`]s and
//!   the page-level copy-on-write of [`dgl_isa::SparseMemory`] keeps
//!   clones cheap);
//! * an optional on-disk tier of JSON documents (`dgl-checkpoint` v2)
//!   serialized through the hand-rolled [`dgl_stats::Json`] — flat
//!   `u64` word streams with an FNV-1a-64 integrity hash over the key
//!   and both streams, verified on load. A corrupted or truncated
//!   file, or one of another version (v1 hashed with the wrong FNV
//!   prime; a warning names both versions), is rejected as a **clean
//!   miss**, never a panic.
//!
//! Beside them sits a memory-only tier of built [`Workload`]s keyed by
//! `(name, insts)`, so the jobs of a sweep build each program once
//! instead of once per job. It is LRU-bounded by the same capacity.
//!
//! The store is strictly an accelerator: a hit returns bit-identical
//! clones of the state the miss path would have recomputed, so sampled
//! runs — and the manifests built from them — are byte-identical with
//! or without it. Hit/miss/eviction counters are published into a
//! [`MetricsRegistry`] under `ckptstore.*` (host-side, report-only).

use crate::sampling::FunctionalWarmer;
use crate::SimBuilder;
use dgl_isa::hash::{fnv1a64_continue, FNV1A64_BASIS};
use dgl_isa::Checkpoint;
use dgl_stats::{log, Json, MetricsRegistry};
use dgl_workloads::{catalog, Scale, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Schema identifier stamped into on-disk checkpoint documents.
pub const CHECKPOINT_SCHEMA: &str = "dgl-checkpoint";

/// Current on-disk checkpoint format version; bump it when a key or hash changes meaning.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Content address of one stored window snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckpointKey {
    /// [`workload_fingerprint`](crate::workload_fingerprint) of the
    /// simulated program.
    pub workload: u64,
    /// [`SimBuilder::warm_fingerprint`] of the configuration that
    /// warmed the snapshot.
    pub warm: u64,
    /// Retired-instruction offset of the snapshot (the window's warmup
    /// start; stored checkpoints satisfy `checkpoint.retired == retired`).
    pub retired: u64,
}

/// One stored window snapshot: the architectural checkpoint and the
/// functionally warmed microarchitectural state captured at the same
/// retired-instruction boundary. Opaque outside the crate; sampled
/// runs produce and consume it through
/// [`run_sampled_with_store`](crate::SimBuilder::run_sampled_with_store).
pub struct StoredWindow {
    pub(crate) checkpoint: Checkpoint,
    pub(crate) warmed: FunctionalWarmer,
}

impl StoredWindow {
    /// Retired-instruction offset this snapshot was captured at.
    pub fn retired(&self) -> u64 {
        self.checkpoint.retired
    }

    /// Canonical flat-word serialization: the checkpoint words, then
    /// the warmed-state words (the two streams the disk tier stores).
    fn dump(&self) -> (Vec<u64>, Vec<u64>) {
        let mut checkpoint = Vec::new();
        self.checkpoint.dump_state(&mut checkpoint);
        let mut warmed = Vec::new();
        self.warmed.dump_state(&mut warmed);
        (checkpoint, warmed)
    }
}

/// Whole-program functional totals for one workload fingerprint,
/// cached so a fully-hit sampled run can skip the functional tail walk
/// entirely. A pure function of the program and its step budget (both
/// folded into the workload fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramTotals {
    /// Instructions the golden model retired over the whole program.
    pub total_insts: u64,
    /// Whether the golden model reached `halt` within its step budget.
    pub halted: bool,
}

/// Hit/miss/eviction counters (host-side observability; never read
/// back by the simulator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Exact-key lookups served from the in-memory tier.
    pub hits: u64,
    /// Exact-key lookups that found nothing in either tier.
    pub misses: u64,
    /// Snapshots inserted (first time a key was seen).
    pub inserts: u64,
    /// In-memory entries evicted by the LRU policy.
    pub evictions: u64,
    /// Misses shortened by seeking to a nearby earlier snapshot.
    pub partial_hits: u64,
    /// Exact-key lookups served from the on-disk tier.
    pub disk_hits: u64,
    /// Snapshots written to the on-disk tier.
    pub disk_writes: u64,
    /// On-disk entries rejected (unreadable, malformed, or failing
    /// integrity verification) and treated as clean misses.
    pub disk_rejects: u64,
    /// Whole-program totals served from the cache.
    pub totals_hits: u64,
    /// Workload lookups served from the workload tier (including one
    /// that waited for another worker's build of the same key).
    pub workload_hits: u64,
    /// Workload lookups that built the program.
    pub workload_misses: u64,
    /// Built workloads evicted by the LRU policy.
    pub workload_evictions: u64,
}

impl StoreCounters {
    /// Publishes the counters into `reg` under `ckptstore.*` names.
    /// One-way copy taken after a batch; never read back.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        reg.counter("ckptstore.hits", self.hits);
        reg.counter("ckptstore.misses", self.misses);
        reg.counter("ckptstore.inserts", self.inserts);
        reg.counter("ckptstore.evictions", self.evictions);
        reg.counter("ckptstore.partial_hits", self.partial_hits);
        reg.counter("ckptstore.disk_hits", self.disk_hits);
        reg.counter("ckptstore.disk_writes", self.disk_writes);
        reg.counter("ckptstore.disk_rejects", self.disk_rejects);
        reg.counter("ckptstore.totals_hits", self.totals_hits);
        reg.counter("ckptstore.workload_hits", self.workload_hits);
        reg.counter("ckptstore.workload_misses", self.workload_misses);
        reg.counter("ckptstore.workload_evictions", self.workload_evictions);
    }
}

struct Slot<T> {
    value: Arc<T>,
    last_used: u64,
}

/// Key of the workload tier: catalog name and instruction budget, the
/// two inputs `by_name(name, Scale::Custom(insts))` builds from.
type WorkloadKey = (String, u64);

/// One workload-tier entry, filled once by the worker that missed;
/// workers that find it still empty wait for that build.
type WorkloadCell = OnceLock<Arc<Workload>>;

struct Inner {
    entries: HashMap<CheckpointKey, Slot<StoredWindow>>,
    workloads: HashMap<WorkloadKey, Slot<WorkloadCell>>,
    totals: HashMap<u64, ProgramTotals>,
    use_counter: u64,
    counters: StoreCounters,
}

/// Inserts `value` under `key` at recency `tick`, then evicts the
/// least-recently-used entries beyond `capacity`, returning how many.
fn install_lru<K: Clone + Eq + std::hash::Hash, T>(
    map: &mut HashMap<K, Slot<T>>,
    key: K,
    value: Arc<T>,
    tick: u64,
    capacity: usize,
) -> u64 {
    map.insert(
        key,
        Slot {
            value,
            last_used: tick,
        },
    );
    let mut evicted = 0;
    while map.len() > capacity {
        let victim = map
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| k.clone())
            .expect("entries nonempty beyond capacity");
        map.remove(&victim);
        evicted += 1;
    }
    evicted
}

/// The shared, thread-safe checkpoint store (see the module docs).
pub struct CheckpointStore {
    inner: Mutex<Inner>,
    capacity: usize,
    disk: Option<PathBuf>,
}

impl CheckpointStore {
    /// Creates an in-memory store holding at most `capacity` snapshots
    /// and at most `capacity` built workloads (LRU beyond that).
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                workloads: HashMap::new(),
                totals: HashMap::new(),
                use_counter: 0,
                counters: StoreCounters::default(),
            }),
            capacity: capacity.max(1),
            disk: None,
        }
    }

    /// Adds an on-disk tier under `dir` (created on first write).
    /// Disk entries survive in-memory eviction and process restarts;
    /// an exact-key memory miss falls back to the matching file, whose
    /// integrity hash is verified before the snapshot is trusted.
    pub fn with_disk(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        let mut s = Self::new(capacity);
        s.disk = Some(dir.into());
        s
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic inside the store would poison the lock; the data is
        // a cache of recomputable state, so recover rather than spread
        // the panic to every worker.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the snapshot for `key`, trying the in-memory tier,
    /// then the on-disk tier (`b` supplies the configuration to
    /// rehydrate a disk entry under). Counts a hit, disk hit, or miss.
    pub fn get(&self, b: &SimBuilder, key: CheckpointKey) -> Option<Arc<StoredWindow>> {
        {
            let mut inner = self.lock();
            inner.use_counter += 1;
            let tick = inner.use_counter;
            if let Some(slot) = inner.entries.get_mut(&key) {
                slot.last_used = tick;
                let window = Arc::clone(&slot.value);
                inner.counters.hits += 1;
                return Some(window);
            }
        }
        // Disk fallback, outside the lock: reads and integrity checks
        // of large word streams must not serialize the worker pool.
        if let Some(window) = self.load_from_disk(b, key) {
            let window = Arc::new(window);
            let mut inner = self.lock();
            inner.counters.disk_hits += 1;
            self.install(&mut inner, key, Arc::clone(&window));
            return Some(window);
        }
        self.lock().counters.misses += 1;
        None
    }

    /// The resident snapshot with the largest offset in
    /// `(above, key.retired)`, if any — the nearest seekable waypoint
    /// strictly before a missed window boundary. Counts a partial hit
    /// when found. Memory tier only (the disk tier is keyed exactly).
    pub fn nearest_below(&self, key: CheckpointKey, above: u64) -> Option<Arc<StoredWindow>> {
        let mut inner = self.lock();
        inner.use_counter += 1;
        let tick = inner.use_counter;
        let best = inner
            .entries
            .keys()
            .filter(|k| {
                k.workload == key.workload
                    && k.warm == key.warm
                    && k.retired > above
                    && k.retired < key.retired
            })
            .max_by_key(|k| k.retired)
            .copied()?;
        let slot = inner.entries.get_mut(&best).expect("key just found");
        slot.last_used = tick;
        let window = Arc::clone(&slot.value);
        inner.counters.partial_hits += 1;
        Some(window)
    }

    /// Inserts a snapshot for `key` (no-op if already resident — the
    /// store is content-addressed, so an existing entry is identical by
    /// construction), evicting the least-recently-used entry beyond
    /// capacity and mirroring the snapshot to the disk tier.
    pub(crate) fn insert(&self, key: CheckpointKey, window: Arc<StoredWindow>) {
        {
            let mut inner = self.lock();
            if inner.entries.contains_key(&key) {
                return;
            }
            inner.counters.inserts += 1;
            self.install(&mut inner, key, Arc::clone(&window));
        }
        if self.disk.is_some() && !self.disk_file_exists(key) {
            self.write_to_disk(key, &window);
        }
    }

    /// Installs `window` into the memory tier, evicting LRU beyond
    /// capacity. Caller holds the lock and has counted the operation.
    fn install(&self, inner: &mut Inner, key: CheckpointKey, window: Arc<StoredWindow>) {
        inner.use_counter += 1;
        let tick = inner.use_counter;
        inner.counters.evictions +=
            install_lru(&mut inner.entries, key, window, tick, self.capacity);
    }

    /// The catalog workload `name` built at `Scale::Custom(insts)`,
    /// from the workload tier or built on a miss. The build runs
    /// outside the store's lock, once per resident key: a worker that
    /// asks for a key another worker is still building waits for that
    /// build (the tier is content-addressed, so there is nothing else
    /// to do). An unknown name returns `None` and caches nothing.
    pub fn workload(&self, name: &str, insts: u64) -> Option<Arc<Workload>> {
        let spec = catalog().iter().find(|spec| spec.name == name)?;
        let cell = {
            let mut inner = self.lock();
            inner.use_counter += 1;
            let tick = inner.use_counter;
            let key = (name.to_owned(), insts);
            if let Some(slot) = inner.workloads.get_mut(&key) {
                slot.last_used = tick;
                let cell = Arc::clone(&slot.value);
                inner.counters.workload_hits += 1;
                cell
            } else {
                let cell = Arc::new(WorkloadCell::new());
                inner.counters.workload_misses += 1;
                inner.counters.workload_evictions += install_lru(
                    &mut inner.workloads,
                    key,
                    Arc::clone(&cell),
                    tick,
                    self.capacity,
                );
                cell
            }
        };
        Some(Arc::clone(
            cell.get_or_init(|| Arc::new(spec.build(Scale::Custom(insts)))),
        ))
    }

    /// Cached whole-program totals for a workload fingerprint.
    pub fn totals(&self, workload: u64) -> Option<ProgramTotals> {
        let mut inner = self.lock();
        let t = inner.totals.get(&workload).copied();
        if t.is_some() {
            inner.counters.totals_hits += 1;
        }
        t
    }

    /// Records whole-program totals for a workload fingerprint.
    pub fn set_totals(&self, workload: u64, totals: ProgramTotals) {
        self.lock().totals.insert(workload, totals);
    }

    /// Counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.lock().counters
    }

    /// Number of snapshots resident in the memory tier.
    pub fn resident(&self) -> usize {
        self.lock().entries.len()
    }

    /// `(name, insts)` of every built workload resident in the workload
    /// tier, in unspecified order (test probe).
    pub fn resident_workloads(&self) -> Vec<(String, u64)> {
        self.lock().workloads.keys().cloned().collect()
    }

    /// Keys resident in the memory tier, in unspecified order (test
    /// probe).
    pub fn resident_keys(&self) -> Vec<CheckpointKey> {
        self.lock().entries.keys().copied().collect()
    }

    /// FNV-1a fingerprint of the full serialized state of the resident
    /// entry for `key` (determinism probe: equal fingerprints mean
    /// bit-identical checkpoint + warmed state). Does not touch
    /// recency or counters.
    pub fn entry_fingerprint(&self, key: CheckpointKey) -> Option<u64> {
        let window = {
            let inner = self.lock();
            Arc::clone(&inner.entries.get(&key)?.value)
        };
        let (checkpoint, warmed) = window.dump();
        Some(hash_words(hash_words(FNV1A64_BASIS, &checkpoint), &warmed))
    }

    /// Publishes the counters and a residency gauge into `reg` under
    /// `ckptstore.*` (host-side, report-only — never gating).
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        let inner = self.lock();
        inner.counters.publish(reg);
        reg.gauge("ckptstore.resident", inner.entries.len() as f64);
    }

    fn disk_path(&self, key: CheckpointKey) -> Option<PathBuf> {
        self.disk.as_ref().map(|dir| {
            dir.join(format!(
                "ckpt-{:016x}-{:016x}-{:012}.json",
                key.workload, key.warm, key.retired
            ))
        })
    }

    fn disk_file_exists(&self, key: CheckpointKey) -> bool {
        self.disk_path(key).is_some_and(|p| p.exists())
    }

    /// Serializes a snapshot to its disk file. I/O failures are
    /// counted as a skipped write, never surfaced: the disk tier is an
    /// accelerator, not a durability promise.
    fn write_to_disk(&self, key: CheckpointKey, window: &StoredWindow) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let (checkpoint, warmed) = window.dump();
        let hash = integrity(key, &checkpoint, &warmed);
        let doc = Json::object()
            .field("schema", Json::str(CHECKPOINT_SCHEMA))
            .field("version", Json::uint(CHECKPOINT_VERSION))
            .field("workload", Json::uint(key.workload))
            .field("warm", Json::uint(key.warm))
            .field("retired", Json::uint(key.retired))
            .field("checkpoint", words_to_json(&checkpoint))
            .field("warmed", words_to_json(&warmed))
            .field("integrity", Json::uint(hash));
        let ok = path
            .parent()
            .map(std::fs::create_dir_all)
            .transpose()
            .and_then(|_| std::fs::write(&path, doc.to_string() + "\n"));
        if ok.is_ok() {
            self.lock().counters.disk_writes += 1;
        }
    }

    /// Loads and verifies a snapshot from the disk tier. *Any*
    /// failure — missing file, unparseable JSON, wrong schema, key
    /// mismatch, integrity mismatch, or malformed word streams — is a
    /// clean miss; all but the missing file count as a disk reject.
    fn load_from_disk(&self, b: &SimBuilder, key: CheckpointKey) -> Option<StoredWindow> {
        let path = self.disk_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        match self.parse_disk_doc(b, key, &text) {
            Some(window) => Some(window),
            None => {
                self.lock().counters.disk_rejects += 1;
                None
            }
        }
    }

    fn parse_disk_doc(
        &self,
        b: &SimBuilder,
        key: CheckpointKey,
        text: &str,
    ) -> Option<StoredWindow> {
        let doc = Json::parse(text).ok()?;
        if doc.get("schema")?.as_str()? != CHECKPOINT_SCHEMA {
            return None;
        }
        let version = doc.get("version")?.as_u64()?;
        if version != CHECKPOINT_VERSION {
            let fields = [("found", version), ("expected", CHECKPOINT_VERSION)];
            let fields = fields.map(|(k, v)| (k, Json::uint(v)));
            log::warn("ckptstore", "checkpoint file of another version", &fields);
            return None;
        }
        if doc.get("workload")?.as_u64()? != key.workload
            || doc.get("warm")?.as_u64()? != key.warm
            || doc.get("retired")?.as_u64()? != key.retired
        {
            return None;
        }
        let checkpoint_words = words_from_json(doc.get("checkpoint")?)?;
        let warmed_words = words_from_json(doc.get("warmed")?)?;
        if doc.get("integrity")?.as_u64()? != integrity(key, &checkpoint_words, &warmed_words) {
            return None;
        }
        let mut cp = checkpoint_words.as_slice();
        let checkpoint = Checkpoint::restore_state(&mut cp)?;
        if !cp.is_empty() || checkpoint.retired != key.retired {
            return None;
        }
        let mut wm = warmed_words.as_slice();
        let warmed = FunctionalWarmer::restore_state(b, &mut wm)?;
        if !wm.is_empty() {
            return None;
        }
        Some(StoredWindow { checkpoint, warmed })
    }
}

/// Continues the running FNV-1a-64 `h` over the little-endian bytes
/// of `words`.
fn hash_words(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, w| fnv1a64_continue(h, &w.to_le_bytes()))
}

/// The integrity hash of a disk entry: FNV-1a-64 over the key's three
/// words, then the checkpoint words, then the warmed-state words.
fn integrity(key: CheckpointKey, checkpoint: &[u64], warmed: &[u64]) -> u64 {
    let key = [key.workload, key.warm, key.retired];
    let h = hash_words(FNV1A64_BASIS, &key);
    hash_words(hash_words(h, checkpoint), warmed)
}

/// Encodes a word stream as one hex-string blob (16 chars per word).
/// A flat string parses orders of magnitude faster than a JSON array
/// with one node per word — checkpoint files run to millions of words,
/// and the disk tier only pays off if reading one beats re-walking.
fn words_to_json(words: &[u64]) -> Json {
    use std::fmt::Write as _;
    let mut hex = String::with_capacity(words.len() * 16);
    for &w in words {
        let _ = write!(hex, "{w:016x}");
    }
    Json::str(hex)
}

fn words_from_json(node: &Json) -> Option<Vec<u64>> {
    let hex = node.as_str()?;
    if !hex.len().is_multiple_of(16) || !hex.is_ascii() {
        return None;
    }
    hex.as_bytes()
        .chunks_exact(16)
        .map(|c| u64::from_str_radix(std::str::from_utf8(c).ok()?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_workloads::{by_name, Scale};

    fn snapshot(b: &SimBuilder, w: &dgl_workloads::Workload, retired: u64) -> Arc<StoredWindow> {
        let mut emu = dgl_isa::Emulator::new(&w.program, w.memory.clone());
        let mut warmer = FunctionalWarmer::template(b, w);
        while emu.retired() < retired {
            emu.step_observed(&mut |ev| warmer.observe(ev)).unwrap();
        }
        Arc::new(StoredWindow {
            checkpoint: emu.checkpoint(),
            warmed: warmer.snapshot(),
        })
    }

    fn key(retired: u64) -> CheckpointKey {
        CheckpointKey {
            workload: 7,
            warm: 11,
            retired,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
        let b = SimBuilder::new();
        let store = CheckpointStore::new(2);
        store.insert(key(100), snapshot(&b, &w, 100));
        store.insert(key(200), snapshot(&b, &w, 200));
        // Touch 100 so 200 becomes the LRU victim.
        assert!(store.get(&b, key(100)).is_some());
        store.insert(key(300), snapshot(&b, &w, 300));
        let mut resident: Vec<u64> = store.resident_keys().iter().map(|k| k.retired).collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![100, 300]);
        let c = store.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.inserts, 3);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn reinsert_of_resident_key_is_a_noop() {
        let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
        let b = SimBuilder::new();
        let store = CheckpointStore::new(4);
        store.insert(key(100), snapshot(&b, &w, 100));
        let fp = store.entry_fingerprint(key(100)).unwrap();
        store.insert(key(100), snapshot(&b, &w, 100));
        assert_eq!(store.counters().inserts, 1);
        assert_eq!(store.entry_fingerprint(key(100)), Some(fp));
    }

    #[test]
    fn nearest_below_picks_largest_strictly_between() {
        let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
        let b = SimBuilder::new();
        let store = CheckpointStore::new(8);
        for r in [100, 200, 300] {
            store.insert(key(r), snapshot(&b, &w, r));
        }
        let hit = store.nearest_below(key(299), 0).unwrap();
        assert_eq!(hit.retired(), 200);
        // Nothing strictly between 200 and 250.
        assert!(store.nearest_below(key(250), 200).is_none());
        // Different warm fingerprint: no sharing.
        let foreign = CheckpointKey {
            warm: 99,
            ..key(299)
        };
        assert!(store.nearest_below(foreign, 0).is_none());
        assert_eq!(store.counters().partial_hits, 1);
    }

    #[test]
    fn disk_round_trip_and_corruption_reject() {
        let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
        let b = SimBuilder::new();
        let dir = std::env::temp_dir().join(format!(
            "dgl-ckptstore-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::with_disk(4, &dir);
        store.insert(key(150), snapshot(&b, &w, 150));
        assert_eq!(store.counters().disk_writes, 1);
        let fp = store.entry_fingerprint(key(150)).unwrap();

        // A fresh store sees only the disk tier; the round trip must
        // reproduce the snapshot bit-for-bit.
        let fresh = CheckpointStore::with_disk(4, &dir);
        assert!(fresh.get(&b, key(150)).is_some());
        assert_eq!(fresh.counters().disk_hits, 1);
        assert_eq!(fresh.entry_fingerprint(key(150)), Some(fp));

        // Corrupt one serialized word: integrity verification must
        // reject the file as a clean miss, not a panic.
        let path = fresh.disk_path(key(150)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let pos = text.find("\"checkpoint\"").unwrap();
        let digit = pos + text[pos..].find(char::is_numeric).unwrap();
        let mut bytes = text.into_bytes();
        bytes[digit] = if bytes[digit] == b'9' { b'3' } else { b'9' };
        std::fs::write(&path, bytes).unwrap();
        let reject = CheckpointStore::with_disk(4, &dir);
        assert!(reject.get(&b, key(150)).is_none());
        let c = reject.counters();
        assert_eq!(c.disk_rejects, 1);
        assert_eq!(c.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_of_the_old_version_is_refused_by_name() {
        use dgl_stats::log::{CaptureSink, Level, StderrSink};
        let w = by_name("hmmer_like", Scale::Custom(2_000)).unwrap();
        let b = SimBuilder::new();
        let dir = std::env::temp_dir().join(format!(
            "dgl-ckptstore-version-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::with_disk(4, &dir);
        store.insert(key(150), snapshot(&b, &w, 150));
        // The same entry, integrity intact, stamped with version 1.
        let path = store.disk_path(key(150)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"version\":{CHECKPOINT_VERSION},");
        assert_eq!(text.matches(&current).count(), 1, "{current} in {text:.80}");
        std::fs::write(&path, text.replace(&current, "\"version\":1,")).unwrap();

        let capture = CaptureSink::new();
        log::set_sink(Box::new(capture.clone()));
        let old = CheckpointStore::with_disk(4, &dir);
        let hit = old.get(&b, key(150));
        log::set_sink(Box::new(StderrSink));
        assert!(hit.is_none(), "an old-version file is a miss");
        let c = old.counters();
        assert_eq!((c.disk_rejects, c.misses, c.disk_hits), (1, 1, 0));
        let warns: Vec<_> = capture
            .take()
            .into_iter()
            .filter(|r| r.target == "ckptstore")
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert_eq!(warns[0].level, Level::Warn);
        let field = |name: &str| {
            let f = warns[0].fields.iter().find(|(k, _)| k == name);
            f.and_then(|(_, v)| v.as_u64())
        };
        assert_eq!(field("found"), Some(1));
        assert_eq!(field("expected"), Some(CHECKPOINT_VERSION));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
