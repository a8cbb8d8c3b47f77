//! The BDD manager: node storage, hash-consing, and bookkeeping.
//!
//! Hot-path layout: the per-variable unique tables and the computed table
//! are hand-rolled open-addressing tables over plain `u32` slots — no
//! SipHash, no per-entry allocation. The computed table is a bounded,
//! lossy, 2-way set-associative cache that starts small, grows while it
//! churns, and is invalidated in O(1) by a generation bump when GC or
//! reordering makes memoized results stale.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use crate::error::BddError;
use crate::node::{Bdd, Node, Var, TERMINAL_VAR};

/// Sentinel for "no node id" in the open-addressed tables.
const EMPTY: u32 = u32::MAX;

/// Multiplicative mixer (splitmix64 finalizer) — the in-repo stand-in
/// for a fast non-cryptographic hasher.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline]
fn hash_pair(lo: u32, hi: u32) -> u64 {
    mix64(((lo as u64) << 32) | hi as u64)
}

// ---------------------------------------------------------------------
// Unique tables
// ---------------------------------------------------------------------

/// One variable's unique table: open addressing with linear probing and
/// backward-shift deletion. Each slot carries the `(lo, hi)` key inline
/// next to the node id, so a probe is one cache line touch and two
/// compares — no rehashing of `Node`s, no boxed buckets.
#[derive(Debug, Clone)]
pub(crate) struct UniqueTable {
    /// `(lo, hi, id)` triples, flat; `id == EMPTY` marks a free slot.
    slots: Vec<(u32, u32, u32)>,
    len: usize,
}

impl UniqueTable {
    pub(crate) fn new() -> UniqueTable {
        UniqueTable { slots: Vec::new(), len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    pub(crate) fn get(&self, lo: Bdd, hi: Bdd) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = hash_pair(lo.0, hi.0) as usize & mask;
        loop {
            let (slo, shi, sid) = self.slots[i];
            if sid == EMPTY {
                return None;
            }
            if slo == lo.0 && shi == hi.0 {
                return Some(sid);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent.
    pub(crate) fn insert(&mut self, lo: Bdd, hi: Bdd, id: u32) {
        if self.slots.is_empty() {
            self.slots.resize(16, (0, 0, EMPTY));
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = hash_pair(lo.0, hi.0) as usize & mask;
        while self.slots[i].2 != EMPTY {
            debug_assert!(
                !(self.slots[i].0 == lo.0 && self.slots[i].1 == hi.0),
                "duplicate unique-table insert"
            );
            i = (i + 1) & mask;
        }
        self.slots[i] = (lo.0, hi.0, id);
        self.len += 1;
    }

    /// Removes a key if present, returning its id. Uses backward-shift
    /// deletion so probe chains stay dense (no tombstones).
    pub(crate) fn remove(&mut self, lo: Bdd, hi: Bdd) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = hash_pair(lo.0, hi.0) as usize & mask;
        loop {
            let (slo, shi, sid) = self.slots[i];
            if sid == EMPTY {
                return None;
            }
            if slo == lo.0 && shi == hi.0 {
                self.len -= 1;
                // Backward shift: move later chain members up until a
                // free slot or a slot already at its home position.
                let removed = sid;
                let mut hole = i;
                let mut j = (i + 1) & mask;
                loop {
                    let (jlo, jhi, jid) = self.slots[j];
                    if jid == EMPTY {
                        break;
                    }
                    let home = hash_pair(jlo, jhi) as usize & mask;
                    // Can j's entry fill the hole without breaking its
                    // own probe chain? (standard circular-distance test)
                    let dist_home_hole = hole.wrapping_sub(home) & mask;
                    let dist_home_j = j.wrapping_sub(home) & mask;
                    if dist_home_hole <= dist_home_j {
                        self.slots[hole] = self.slots[j];
                        hole = j;
                    }
                    j = (j + 1) & mask;
                }
                self.slots[hole] = (0, 0, EMPTY);
                return Some(removed);
            }
            i = (i + 1) & mask;
        }
    }

    /// Open-addressing slots currently allocated (0 before the first
    /// insert). With [`len`](Self::len) this is the load factor; the
    /// growth policy in [`insert`](Self::insert) keeps `len/slots` at
    /// or below 3/4, so a non-empty table's load is always in (0, 1].
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Probe-length census: adds each entry's circular distance from
    /// its home slot into `hist` (growing it as needed) and returns the
    /// longest distance seen. The heap observatory's deep-scan
    /// primitive — read-only, one pass over the slots.
    pub(crate) fn probe_stats(&self, hist: &mut Vec<u64>) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let mask = self.mask();
        let mut longest = 0u64;
        for (i, &(lo, hi, id)) in self.slots.iter().enumerate() {
            if id == EMPTY {
                continue;
            }
            let home = hash_pair(lo, hi) as usize & mask;
            let d = i.wrapping_sub(home) & mask;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
            longest = longest.max(d as u64);
        }
        longest
    }

    /// All node ids currently stored (snapshot).
    pub(crate) fn ids(&self) -> Vec<u32> {
        self.slots.iter().filter(|s| s.2 != EMPTY).map(|s| s.2).collect()
    }

    /// All `(lo, hi, id)` entries currently stored.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.slots.iter().copied().filter(|s| s.2 != EMPTY)
    }

    /// Drops every entry whose id fails the predicate.
    pub(crate) fn retain_ids(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let old: Vec<(u32, u32, u32)> =
            self.slots.iter().copied().filter(|s| s.2 != EMPTY).collect();
        for s in &mut self.slots {
            *s = (0, 0, EMPTY);
        }
        self.len = 0;
        for (lo, hi, id) in old {
            if keep(id) {
                self.insert(Bdd(lo), Bdd(hi), id);
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, EMPTY); new_cap]);
        let mask = self.mask();
        for (lo, hi, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut i = hash_pair(lo, hi) as usize & mask;
            while self.slots[i].2 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (lo, hi, id);
        }
    }
}

// ---------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------

/// Operation tags for the computed table. The discriminant doubles as
/// the index into the per-operation stats counters, except that
/// `RelNext`, `and_exists` generalised, counts in `AndExists`'s row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum CacheOp {
    Ite = 0,
    And = 1,
    Or = 2,
    Xor = 3,
    Not = 4,
    Exists = 5,
    Forall = 6,
    AndExists = 7,
    Constrain = 8,
    Diff = 9,
    RelPrev = 10,
    RelNext = 11,
}

/// The stats row of a computed-table tag.
#[inline]
fn stats_row(tag: u8) -> usize {
    if tag == CacheOp::RelNext as u8 {
        CacheOp::AndExists as usize
    } else {
        tag as usize
    }
}

/// Number of per-operation stats rows.
pub const NUM_CACHE_OPS: usize = 11;

/// Human-readable names for the per-operation stat rows, indexed like
/// [`BddManagerStats::per_op`].
pub const CACHE_OP_NAMES: [&str; NUM_CACHE_OPS] = [
    "ite",
    "and",
    "or",
    "xor",
    "not",
    "exists",
    "forall",
    "and_exists",
    "constrain",
    "diff",
    "rel_prev",
];

pub(crate) type CacheKey = (CacheOp, u32, u32, u32);

/// One computed-table entry; `gen` ties it to the cache generation so
/// the whole table is invalidated by bumping the generation counter.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    a: u32,
    b: u32,
    c: u32,
    op: u8,
    result: u32,
    gen: u32,
}

const EMPTY_ENTRY: CacheEntry = CacheEntry { a: 0, b: 0, c: 0, op: 0, result: EMPTY, gen: 0 };

/// Bounded, lossy computed table: 2-way set-associative (direct-mapped
/// at capacity 1), evicting on set overflow. It starts at
/// [`INITIAL_CAPACITY`](Self::INITIAL_CAPACITY) entries and, each time
/// it has evicted as many live entries as it holds, grows by
/// [`GROWTH`](Self::GROWTH) up to [`MAX_CAPACITY`](Self::MAX_CAPACITY),
/// so a small model pays for a small table and a long fixpoint still
/// runs in fixed memory. GC/reorder invalidation is an O(1) generation
/// bump.
#[derive(Debug, Clone)]
pub(crate) struct ComputedCache {
    entries: Vec<CacheEntry>,
    ways: usize,
    set_mask: usize,
    gen: u32,
    /// Live entries evicted since the last resize.
    evicted: usize,
    /// Whether churn may still grow the table: false at the ceiling and
    /// once [`BddManager::set_cache_capacity`] fixed a capacity.
    growable: bool,
}

impl ComputedCache {
    /// Capacity of a fresh manager's table (entries). 2^12 × 24 B = 96 KiB.
    pub(crate) const INITIAL_CAPACITY: usize = 1 << 12;
    /// Ceiling of growth (entries). 2^17 × 24 B = 3 MiB.
    pub(crate) const MAX_CAPACITY: usize = 1 << 17;
    /// Factor by which a churning table grows.
    const GROWTH: usize = 4;

    /// A table that starts at about `capacity` entries and grows on
    /// churn.
    pub(crate) fn growing(capacity: usize) -> ComputedCache {
        let table = ComputedCache::with_capacity(capacity.max(2));
        ComputedCache { growable: table.capacity() < Self::MAX_CAPACITY, ..table }
    }

    /// A table fixed at about `capacity` entries (rounded to the set
    /// geometry); it never grows.
    pub(crate) fn with_capacity(capacity: usize) -> ComputedCache {
        let ways = if capacity <= 1 { 1 } else { 2 };
        let sets = (capacity / ways).next_power_of_two().max(1);
        ComputedCache {
            entries: vec![EMPTY_ENTRY; sets * ways],
            ways,
            set_mask: sets - 1,
            gen: 1,
            evicted: 0,
            growable: false,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Quadruples the table (capped at the ceiling) and moves the live
    /// entries over. A set's entries land in the sets whose low index
    /// bits equal the old set's, so no entry is lost and each keeps its
    /// recency order.
    fn grow(&mut self) {
        let capacity = (self.capacity() * Self::GROWTH).min(Self::MAX_CAPACITY);
        let mut next = ComputedCache::with_capacity(capacity);
        next.gen = self.gen;
        for e in &self.entries {
            if e.result == EMPTY || e.gen != self.gen {
                continue;
            }
            let base = next.set_of(e.op, e.a, e.b, e.c);
            let way = if next.entries[base].result == EMPTY { base } else { base + 1 };
            debug_assert_eq!(next.entries[way].result, EMPTY, "grow overfilled a set");
            next.entries[way] = *e;
        }
        next.growable = capacity < Self::MAX_CAPACITY;
        *self = next;
    }

    /// First slot of the set an `(op, a, b, c)` key maps to.
    #[inline]
    fn set_of(&self, op: u8, a: u32, b: u32, c: u32) -> usize {
        let h = mix64(((op as u64) << 56) ^ ((a as u64) << 34) ^ ((b as u64) << 17) ^ c as u64);
        (h as usize & self.set_mask) * self.ways
    }

    #[inline]
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Bdd> {
        let base = self.set_of(key.0 as u8, key.1, key.2, key.3);
        for w in 0..self.ways {
            let e = self.entries[base + w];
            if e.result != EMPTY
                && e.gen == self.gen
                && e.op == key.0 as u8
                && e.a == key.1
                && e.b == key.2
                && e.c == key.3
            {
                if w != 0 {
                    // Most-recently-used to way 0.
                    self.entries.swap(base, base + w);
                }
                return Some(Bdd(self.entries[base].result));
            }
        }
        None
    }

    /// Inserts, returning `true` if a live entry was evicted. The
    /// eviction that brings the count since the last resize up to the
    /// capacity grows a growable table.
    #[inline]
    pub(crate) fn put(&mut self, key: &CacheKey, value: Bdd) -> bool {
        let base = self.set_of(key.0 as u8, key.1, key.2, key.3);
        let last = base + self.ways - 1;
        let victim = self.entries[last];
        let evicted = victim.result != EMPTY && victim.gen == self.gen;
        // Shift ways down (LRU out of the last way), new entry in way 0.
        for w in (base + 1..=last).rev() {
            self.entries[w] = self.entries[w - 1];
        }
        self.entries[base] = CacheEntry {
            a: key.1,
            b: key.2,
            c: key.3,
            op: key.0 as u8,
            result: value.0,
            gen: self.gen,
        };
        if evicted && self.growable {
            self.evicted += 1;
            if self.evicted >= self.capacity() {
                self.grow();
            }
        }
        evicted
    }

    /// Live (current-generation) entries per operation tag, indexed
    /// like [`CACHE_OP_NAMES`], plus the total. One read-only pass —
    /// generation-stale and never-filled entries both count as dead.
    pub(crate) fn occupancy(&self) -> ([u64; NUM_CACHE_OPS], u64) {
        let mut per_op = [0u64; NUM_CACHE_OPS];
        let mut total = 0u64;
        for e in &self.entries {
            if e.result != EMPTY && e.gen == self.gen {
                per_op[stats_row(e.op)] += 1;
                total += 1;
            }
        }
        (per_op, total)
    }

    /// Invalidates every entry in O(1).
    pub(crate) fn invalidate_all(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: physically clear so stale entries from
            // 2^32 generations ago cannot resurface.
            for e in &mut self.entries {
                *e = EMPTY_ENTRY;
            }
            self.gen = 1;
        }
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Computed-table traffic for one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Computed-table lookups issued by this operation.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Live entries this operation's inserts evicted.
    pub evictions: u64,
}

/// Counters describing the state and workload of a [`BddManager`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BddManagerStats {
    /// Number of live (reachable or protected) nodes after the last GC, or
    /// total allocated nodes if no GC has run.
    pub live_nodes: usize,
    /// High-water mark of the node pool (see [`BddManager::peak_nodes`]).
    pub peak_nodes: usize,
    /// Total nodes ever created (including reclaimed ones).
    pub created_nodes: u64,
    /// Computed-table lookups (all operations).
    pub cache_lookups: u64,
    /// Computed-table hits (all operations).
    pub cache_hits: u64,
    /// Live computed-table entries evicted by bounded-cache collisions.
    pub cache_evictions: u64,
    /// Number of garbage collections performed.
    pub gc_runs: u64,
    /// Nodes reclaimed across all garbage collections.
    pub gc_reclaimed: u64,
    /// Per-operation computed-table counters, indexed by operation; see
    /// [`per_op`](Self::per_op) for named access.
    pub op_counters: [OpCounters; NUM_CACHE_OPS],
}

impl BddManagerStats {
    /// Per-operation computed-table counters with their names
    /// (`ite`, `and`, `or`, `xor`, `not`, `exists`, `forall`,
    /// `and_exists`, which counts [`rel_next`](BddManager::rel_next)
    /// too, `constrain`, `diff`, `rel_prev`).
    pub fn per_op(&self) -> impl Iterator<Item = (&'static str, OpCounters)> + '_ {
        CACHE_OP_NAMES.iter().copied().zip(self.op_counters.iter().copied())
    }
}

// ---------------------------------------------------------------------
// Traversal scratch
// ---------------------------------------------------------------------

/// Epoch-marked scratch shared by every graph walk (`size`, sat
/// counting, DOT export, GC marking). A node is "visited this walk" iff
/// `marks[id] == epoch`; starting a new walk is one increment, not an
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct VisitScratch {
    marks: Vec<u32>,
    epoch: u32,
    /// Reusable stack for iterative walks.
    pub(crate) stack: Vec<u32>,
    /// Per-node numeric memo (used by sat counting); `vals[id]` is valid
    /// only when `marks[id]` matches the current epoch. Only sat counting
    /// grows it, so the walks that just mark (`size`, GC, DOT export)
    /// never touch it.
    pub(crate) vals: Vec<f64>,
}

impl VisitScratch {
    /// Starts a new walk over a graph of `nodes` slots.
    pub(crate) fn begin(&mut self, nodes: usize) {
        if self.marks.len() < nodes {
            self.marks.resize(nodes, self.epoch);
        }
        if self.epoch == u32::MAX {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Marks a node; returns `true` on first visit this walk.
    #[inline]
    pub(crate) fn mark(&mut self, id: u32) -> bool {
        let m = &mut self.marks[id as usize];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }

    /// Has the node been marked this walk?
    #[inline]
    pub(crate) fn marked(&self, id: u32) -> bool {
        self.marks[id as usize] == self.epoch
    }
}

// ---------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------

/// Owner of all BDD nodes: the unique tables, the computed table, the
/// variable order and the protected-root set.
///
/// Every operation on [`Bdd`] handles is a method on the manager; see the
/// [crate documentation](crate) for an overview and an example.
#[derive(Debug)]
pub struct BddManager {
    /// Node storage. Slots 0 and 1 are the terminals.
    pub(crate) nodes: Vec<Node>,
    /// Free slots available for reuse (filled by GC).
    pub(crate) free: Vec<u32>,
    /// Per-variable unique tables: `(lo, hi) -> node id`.
    pub(crate) tables: Vec<UniqueTable>,
    /// Computed table shared by the memoized recursive operations.
    pub(crate) cache: ComputedCache,
    /// Variable names in creation order.
    var_names: Vec<String>,
    /// The declared names, so a duplicate is refused.
    name_index: HashSet<String>,
    /// Variable index -> level in the current order.
    pub(crate) var2level: Vec<u32>,
    /// Level -> variable index in the current order.
    pub(crate) level2var: Vec<u32>,
    /// Externally protected roots (id -> protection count).
    pub(crate) protected: HashMap<u32, usize>,
    /// Variable index -> its side of the current/next pairing that
    /// [`set_pairs`](Self::set_pairs) declared.
    pub(crate) rails: Vec<crate::quant::Rail>,
    /// Declared pairs whose next variable is not directly below its
    /// current one; the fused products compose while any exist.
    pub(crate) split_pairs: usize,
    /// Whether the computed table is consulted (ablation switch A3).
    pub(crate) cache_enabled: bool,
    pub(crate) stats: BddManagerStats,
    /// Shared traversal scratch; `RefCell` so `&self` walks (`size`,
    /// `sat_count`, exports) can reuse it without allocating.
    pub(crate) scratch: RefCell<VisitScratch>,
    /// Resource governor: budget, trip state, allocation transaction log
    /// (see [`crate::governor`]).
    pub(crate) governor: crate::governor::Governor,
    /// Telemetry handle; disabled by default. The manager carries it so
    /// every layer above (kripke, checker, smv) can reach the same
    /// handle without threading it separately.
    pub(crate) tele: smc_obs::Telemetry,
}

impl BddManager {
    /// Creates an empty manager containing only the two terminal nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use smc_bdd::{Bdd, BddManager};
    /// let m = BddManager::new();
    /// assert!(Bdd::TRUE.is_true());
    /// assert_eq!(m.num_vars(), 0);
    /// ```
    pub fn new() -> BddManager {
        BddManager {
            nodes: vec![Node::terminal(), Node::terminal()],
            free: Vec::new(),
            tables: Vec::new(),
            cache: ComputedCache::growing(ComputedCache::INITIAL_CAPACITY),
            var_names: Vec::new(),
            name_index: HashSet::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            protected: HashMap::new(),
            rails: Vec::new(),
            split_pairs: 0,
            cache_enabled: true,
            stats: BddManagerStats::default(),
            scratch: RefCell::new(VisitScratch::default()),
            governor: crate::governor::Governor::default(),
            tele: smc_obs::Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle. The manager emits GC, degradation-
    /// ladder and governor-trip events through it, and higher layers
    /// reach the same handle via [`telemetry`](Self::telemetry).
    pub fn set_telemetry(&mut self, tele: smc_obs::Telemetry) {
        self.tele = tele;
    }

    /// The manager's telemetry handle (cheap to clone; disabled by
    /// default).
    pub fn telemetry(&self) -> &smc_obs::Telemetry {
        &self.tele
    }

    /// A point-in-time counter snapshot in the shape telemetry spans
    /// consume. Cheap relative to [`stats`](Self::stats): copies eight
    /// counters, no per-op table.
    pub fn stats_snapshot(&self) -> smc_obs::StatsSnapshot {
        smc_obs::StatsSnapshot {
            live_nodes: self.num_nodes() as u64,
            peak_nodes: self.nodes.len() as u64,
            created_nodes: self.stats.created_nodes,
            cache_lookups: self.stats.cache_lookups,
            cache_hits: self.stats.cache_hits,
            cache_evictions: self.stats.cache_evictions,
            gc_runs: self.stats.gc_runs,
            gc_reclaimed: self.stats.gc_reclaimed,
        }
    }

    /// Records the manager's counters into a metrics registry: node
    /// gauges, created/GC totals and the per-operation computed-table
    /// counters. Uses absolute (`counter_set`) semantics, so calling it
    /// at end of run makes the manager's own counters authoritative
    /// over anything folded incrementally from the event stream.
    pub fn record_metrics(&self, metrics: &smc_obs::Metrics) {
        if !metrics.enabled() {
            return;
        }
        let stats = self.stats();
        metrics.gauge_set("smc_bdd_live_nodes", &[], stats.live_nodes as f64);
        metrics.gauge_set("smc_bdd_peak_nodes", &[], stats.peak_nodes as f64);
        metrics.counter_set("smc_bdd_created_nodes_total", &[], stats.created_nodes);
        metrics.gauge_set("smc_bdd_cache_capacity", &[], self.cache_capacity() as f64);
        metrics.counter_set("smc_gc_runs_total", &[], stats.gc_runs);
        metrics.counter_set("smc_gc_reclaimed_nodes_total", &[], stats.gc_reclaimed);
        for (op, c) in stats.per_op() {
            let labels = [("op", op)];
            metrics.counter_set("smc_cache_lookups_total", &labels, c.lookups);
            metrics.counter_set("smc_cache_hits_total", &labels, c.hits);
            metrics.counter_set("smc_cache_evictions_total", &labels, c.evictions);
        }
        // Heap structure series (deep scan — fine here, end-of-run).
        let unique = self.unique_health();
        if unique.entries > 0 {
            metrics.gauge_set("smc_bdd_table_load", &[], unique.load);
            metrics.gauge_set("smc_bdd_longest_probe", &[], unique.longest_probe as f64);
            for (d, &count) in unique.probe_hist.iter().enumerate() {
                for _ in 0..count {
                    metrics.observe("smc_bdd_probe_length", &[], d as u64);
                }
            }
        }
        for (level, &var) in self.level2var.iter().enumerate() {
            let label = level.to_string();
            metrics.gauge_set(
                "smc_bdd_level_nodes",
                &[("level", label.as_str())],
                self.tables[var as usize].len() as f64,
            );
        }
    }

    /// Declares a fresh variable at the bottom of the current order.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::DuplicateVarName`] if a variable with the same
    /// name already exists.
    pub fn new_var(&mut self, name: &str) -> Result<Var, BddError> {
        if self.name_index.contains(name) {
            return Err(BddError::DuplicateVarName(name.to_string()));
        }
        let var = Var(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        self.name_index.insert(name.to_string());
        self.var2level.push(self.level2var.len() as u32);
        self.level2var.push(var.0);
        self.rails.push(crate::quant::Rail::Free);
        self.tables.push(UniqueTable::new());
        Ok(var)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The name a variable was declared with.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this manager.
    pub fn var_name(&self, var: Var) -> &str {
        &self.var_names[var.index()]
    }

    /// Current level (position in the order, 0 = top) of a variable.
    pub fn level_of_var(&self, var: Var) -> usize {
        self.var2level[var.index()] as usize
    }

    /// The variable currently at a given level of the order.
    pub fn var_at_level(&self, level: usize) -> Var {
        Var(self.level2var[level])
    }

    /// The projection function for `var` (the BDD of the formula "`var`").
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this manager.
    pub fn var(&mut self, var: Var) -> Bdd {
        assert!(var.index() < self.num_vars(), "unknown variable {var}");
        self.mk(var.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated projection function for `var` (the BDD of "`¬var`").
    pub fn nvar(&mut self, var: Var) -> Bdd {
        assert!(var.index() < self.num_vars(), "unknown variable {var}");
        self.mk(var.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal: `var` if `positive`, else `¬var`.
    pub fn literal(&mut self, var: Var, positive: bool) -> Bdd {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// The constant for a boolean value.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Hash-consing constructor. Maintains the reduced, ordered invariants:
    /// never creates a node with equal children, never duplicates a node.
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.level(lo) > self.var2level[var as usize]
                && self.level(hi) > self.var2level[var as usize],
            "mk would violate variable order"
        );
        if let Some(id) = self.tables[var as usize].get(lo, hi) {
            return Bdd(id);
        }
        let governed = self.governor.active && !self.governor.suspended;
        if governed && self.governor.tripped.is_some() {
            // Tripped: allocate nothing, hand back a valid dummy handle.
            // The caller stack unwinds via the op-entry gates and the
            // next check_budget()/checkpoint() surfaces the error.
            return lo;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { var, lo, hi };
                slot
            }
            None => {
                let id = self.nodes.len() as u32;
                if id == u32::MAX {
                    // Node ids are u32; instead of dying, trip the
                    // governor (even an unbudgeted manager surfaces this
                    // as ResourceExhausted(TableFull) at the next poll).
                    self.governor.tripped = Some(crate::governor::TripReason::TableFull);
                    self.governor.active = true;
                    return lo;
                }
                self.nodes.push(Node { var, lo, hi });
                id
            }
        };
        self.tables[var as usize].insert(lo, hi, id);
        self.stats.created_nodes += 1;
        if governed {
            self.note_alloc(id);
        }
        Bdd(id)
    }

    /// The node behind a handle (copy).
    #[inline]
    pub(crate) fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    /// Level of the root variable of `b`; `u32::MAX` for terminals.
    #[inline]
    pub(crate) fn level(&self, b: Bdd) -> u32 {
        let v = self.nodes[b.0 as usize].var;
        if v == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[v as usize]
        }
    }

    /// The root variable of a non-terminal BDD.
    pub fn var_of(&self, b: Bdd) -> Option<Var> {
        let v = self.nodes[b.0 as usize].var;
        if v == TERMINAL_VAR {
            None
        } else {
            Some(Var(v))
        }
    }

    /// The low (`var = 0`) child of a non-terminal BDD.
    ///
    /// # Panics
    ///
    /// Panics if `b` is a terminal.
    pub fn low(&self, b: Bdd) -> Bdd {
        assert!(!b.is_const(), "terminal has no children");
        self.nodes[b.0 as usize].lo
    }

    /// The high (`var = 1`) child of a non-terminal BDD.
    ///
    /// # Panics
    ///
    /// Panics if `b` is a terminal.
    pub fn high(&self, b: Bdd) -> Bdd {
        assert!(!b.is_const(), "terminal has no children");
        self.nodes[b.0 as usize].hi
    }

    /// Evaluates `b` under a total assignment indexed by variable index.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the highest variable index
    /// occurring in `b`.
    pub fn eval(&self, b: Bdd, assignment: &[bool]) -> bool {
        let mut cur = b;
        loop {
            match cur {
                Bdd::FALSE => return false,
                Bdd::TRUE => return true,
                _ => {
                    let n = self.node(cur);
                    cur = if assignment[n.var as usize] { n.hi } else { n.lo };
                }
            }
        }
    }

    /// Number of decision nodes in the (shared) graph of `b`, excluding
    /// terminals. The size measure used throughout the literature.
    pub fn size(&self, b: Bdd) -> usize {
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        scratch.begin(self.nodes.len());
        let mut count = 0;
        if !b.is_const() {
            scratch.stack.push(b.0);
        }
        while let Some(top) = scratch.stack.pop() {
            if !scratch.mark(top) {
                continue;
            }
            count += 1;
            let n = self.nodes[top as usize];
            if !n.lo.is_const() {
                scratch.stack.push(n.lo.0);
            }
            if !n.hi.is_const() {
                scratch.stack.push(n.hi.0);
            }
        }
        count
    }

    /// Total live nodes in the manager (all unique-table entries).
    pub fn num_nodes(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum::<usize>() + 2
    }

    /// High-water mark of the node pool: the largest number of node slots
    /// ever simultaneously allocated (GC recycles slots, so this only
    /// grows when live data outgrew every previous peak).
    pub fn peak_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Protects a root from garbage collection. Protection is counted:
    /// protect twice, unprotect twice.
    pub fn protect(&mut self, b: Bdd) {
        *self.protected.entry(b.0).or_insert(0) += 1;
    }

    /// Removes one level of protection from a root.
    ///
    /// Unprotecting a handle that is not protected is a no-op.
    pub fn unprotect(&mut self, b: Bdd) {
        if let Some(count) = self.protected.get_mut(&b.0) {
            *count -= 1;
            if *count == 0 {
                self.protected.remove(&b.0);
            }
        }
    }

    /// Enables or disables the computed table (ablation switch; on by
    /// default). Disabling makes every recursive operation exponential and
    /// exists only to quantify the value of memoization.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache.invalidate_all();
        }
    }

    /// Fixes the bounded computed table at approximately `entries` slots
    /// (rounded to the implementation's set geometry; minimum 1). From
    /// then on the table no longer grows on churn. Existing memoized
    /// results are dropped. A 1-entry cache is the maximally-evicting
    /// configuration used by the ablation tests.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        self.cache = ComputedCache::with_capacity(entries.max(1));
    }

    /// Current computed-table capacity in entries: 4,096 in a fresh
    /// manager, growing ×4 per churn of its size up to 2^17 unless
    /// [`set_cache_capacity`](Self::set_cache_capacity) fixed it.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Drops every memoized result. Invoked internally by GC and reorder;
    /// O(1) — the bounded table is invalidated by a generation bump.
    pub fn clear_cache(&mut self) {
        self.cache.invalidate_all();
    }

    /// Workload statistics counters.
    pub fn stats(&self) -> BddManagerStats {
        let mut s = self.stats;
        s.live_nodes = self.num_nodes();
        s.peak_nodes = self.nodes.len();
        s
    }

    #[inline]
    pub(crate) fn cache_get(&mut self, key: CacheKey) -> Option<Bdd> {
        if !self.cache_enabled {
            return None;
        }
        let row = stats_row(key.0 as u8);
        self.stats.op_counters[row].lookups += 1;
        self.stats.cache_lookups += 1;
        let hit = self.cache.get(&key);
        if hit.is_some() {
            self.stats.op_counters[row].hits += 1;
            self.stats.cache_hits += 1;
        }
        hit
    }

    #[inline]
    pub(crate) fn cache_put(&mut self, key: CacheKey, value: Bdd) {
        if self.governor.active && self.governor.tripped.is_some() {
            // A tripped computation yields dummy handles; caching them
            // would poison future (post-recovery) lookups.
            return;
        }
        if self.cache_enabled && self.cache.put(&key, value) {
            self.stats.op_counters[stats_row(key.0 as u8)].evictions += 1;
            self.stats.cache_evictions += 1;
        }
    }
}

impl Default for BddManager {
    fn default() -> BddManager {
        BddManager::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod table_tests {
    use super::*;

    #[test]
    fn unique_table_insert_get_remove() {
        let mut t = UniqueTable::new();
        for i in 0..1000u32 {
            t.insert(Bdd(i), Bdd(i + 1), i + 2);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(t.get(Bdd(i), Bdd(i + 1)), Some(i + 2));
        }
        assert_eq!(t.get(Bdd(5), Bdd(5)), None);
        // Remove every third entry; the rest must stay reachable
        // (exercises backward-shift deletion across probe chains).
        for i in (0..1000u32).step_by(3) {
            assert_eq!(t.remove(Bdd(i), Bdd(i + 1)), Some(i + 2));
        }
        for i in 0..1000u32 {
            let expect = if i % 3 == 0 { None } else { Some(i + 2) };
            assert_eq!(t.get(Bdd(i), Bdd(i + 1)), expect, "key {i}");
        }
        assert_eq!(t.remove(Bdd(0), Bdd(1)), None);
    }

    #[test]
    fn unique_table_retain() {
        let mut t = UniqueTable::new();
        for i in 0..100u32 {
            t.insert(Bdd(i), Bdd(i + 1), i);
        }
        t.retain_ids(|id| id % 2 == 0);
        assert_eq!(t.len(), 50);
        for i in 0..100u32 {
            let expect = if i % 2 == 0 { Some(i) } else { None };
            assert_eq!(t.get(Bdd(i), Bdd(i + 1)), expect);
        }
    }

    #[test]
    fn computed_cache_bounded_and_generational() {
        let mut c = ComputedCache::with_capacity(64);
        let key = |i: u32| (CacheOp::And, i, i + 1, 0);
        for i in 0..64 {
            c.put(&key(i), Bdd(i));
        }
        // Bounded: some entries may have been evicted, but any reported
        // hit must be exact.
        for i in 0..64 {
            if let Some(v) = c.get(&key(i)) {
                assert_eq!(v, Bdd(i));
            }
        }
        c.invalidate_all();
        for i in 0..64 {
            assert_eq!(c.get(&key(i)), None, "stale hit after invalidation");
        }
    }

    #[test]
    fn computed_cache_grows_by_four_up_to_the_ceiling_and_keeps_live_entries() {
        let mut c = ComputedCache::growing(ComputedCache::INITIAL_CAPACITY);
        let key = |i: u32| (CacheOp::And, i, i ^ 0x5555, 0);
        let mut sizes = vec![c.capacity()];
        for i in 0..400_000u32 {
            // The put that grows the table replaces a live entry, so the
            // live count going in is the one growth must keep.
            let live = (c.evicted + 1 == c.capacity()).then(|| c.occupancy().1);
            c.put(&key(i), Bdd(i));
            if c.capacity() != sizes[sizes.len() - 1] {
                sizes.push(c.capacity());
                assert_eq!(Some(c.occupancy().1), live, "growth lost an entry");
                assert_eq!(c.get(&key(i)), Some(Bdd(i)), "the newest entry survives");
            }
        }
        assert_eq!(sizes, [1 << 12, 1 << 14, 1 << 16, 1 << 17]);
        assert!(!c.growable, "no growth past the ceiling");
    }

    #[test]
    fn computed_cache_single_entry_evicts() {
        let mut c = ComputedCache::with_capacity(1);
        assert_eq!(c.capacity(), 1);
        let k1 = (CacheOp::And, 2, 3, 0);
        let k2 = (CacheOp::Or, 2, 3, 0);
        assert!(!c.put(&k1, Bdd(7)));
        assert_eq!(c.get(&k1), Some(Bdd(7)));
        assert!(c.put(&k2, Bdd(8)), "second insert must evict");
        assert_eq!(c.get(&k1), None);
        assert_eq!(c.get(&k2), Some(Bdd(8)));
    }
}
