//! The heap observatory's snapshot schema: a structural report of a
//! BDD manager's heap — per-level occupancy, unique/computed table
//! health, sharing, and adjacent-swap sifting-gain estimates.
//!
//! The snapshot is *built* by `smc-bdd` (which owns the tables) and
//! *rendered* here, so every consumer — `smc inspect`, `--heap`, the
//! flight recorder, the schema tests — agrees on one wire format.
//!
//! ## Schema contract
//!
//! The JSON rendering is one object with the required top-level keys
//! [`HEAP_SNAPSHOT_KEYS`], stamped with `"heap_schema"`
//! ([`HEAP_SCHEMA_VERSION`]). The vocabulary is append-only: new
//! optional keys may appear at any time; removing or re-typing one
//! bumps the version. Ratios are JSON numbers in `[0, 1]` ranges noted
//! per field; every reported load factor is in `(0, 1]` (empty tables
//! report `0` and are excluded from the aggregate).

use crate::json::{esc, Json};
use crate::metrics::fmt_f64;

/// Version stamped into every heap snapshot as `"heap_schema"`.
pub const HEAP_SCHEMA_VERSION: u64 = 1;

/// Fixpoint iterations between [`Event::HeapSample`](crate::Event)
/// briefs. Both the reachability frontier loop and the checker's
/// EU/EG loops emit at iteration 1 (anchoring the lane) and then every
/// multiple of this cadence; the brief is an `O(levels)` fold — cheap,
/// but there is no reason to pay it every iteration when level
/// populations drift slowly.
pub const HEAP_SAMPLE_CADENCE: u64 = 8;

/// Required top-level keys of a rendered [`HeapSnapshot`], in order
/// (append-only contract; pinned by the golden test in `tests/schema.rs`).
pub const HEAP_SNAPSHOT_KEYS: &[&str] = &[
    "heap_schema",
    "live_nodes",
    "terminals",
    "free_nodes",
    "peak_nodes",
    "dead_ratio",
    "sharing_factor",
    "levels",
    "widest",
    "unique",
    "computed",
    "sift",
];

/// One variable level of the order, with its unique-table health.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapLevel {
    /// Position in the variable order (0 = topmost).
    pub level: u64,
    /// The variable living at this level.
    pub var: String,
    /// Live nodes labelled with this variable.
    pub nodes: u64,
    /// Open-addressing slots of this level's unique table.
    pub slots: u64,
    /// `nodes / slots`; `0` for an empty table, otherwise in `(0, 1]`.
    pub load: f64,
    /// Longest circular probe distance of any entry (0 = all home).
    pub longest_probe: u64,
}

/// An entry of the top-k widest-levels list.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapWidest {
    /// The level.
    pub level: u64,
    /// The variable at that level.
    pub var: String,
    /// Its node count.
    pub nodes: u64,
}

/// Aggregate unique-table health over all (non-empty) levels.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapUnique {
    /// Total entries across every level's table.
    pub entries: u64,
    /// Total slots across non-empty tables (the load denominator).
    pub slots: u64,
    /// `entries / slots` over non-empty tables; in `(0, 1]` when any
    /// entry exists, else `0`.
    pub load: f64,
    /// Longest probe distance anywhere.
    pub longest_probe: u64,
    /// Probe-length histogram: `probe_hist[d]` entries sit `d` slots
    /// from home. Truncated after the last non-zero bucket.
    pub probe_hist: Vec<u64>,
}

/// Computed-table occupancy of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapCacheOp {
    /// The operation name (`"ite"`, `"and"`, ...).
    pub op: String,
    /// Live (current-generation) entries cached for it.
    pub live: u64,
}

/// Computed-table occupancy, total and by operation.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapComputed {
    /// Table capacity (entries).
    pub capacity: u64,
    /// Live (current-generation) entries.
    pub live: u64,
    /// `live / capacity`, in `[0, 1]`.
    pub occupancy: f64,
    /// Live entries per operation; zero-traffic ops omitted.
    pub ops: Vec<HeapCacheOp>,
}

/// The estimated effect of swapping one adjacent level pair — a
/// read-only mirror of the Rudell swap the reorderer would perform, and
/// the primitive a sifting schedule ranks candidates by.
#[derive(Debug, Clone, PartialEq)]
pub struct SiftGain {
    /// The upper level of the pair.
    pub upper: u64,
    /// The lower level (`upper + 1`).
    pub lower: u64,
    /// Nodes currently on the two levels.
    pub current: u64,
    /// Estimated nodes on them after the swap.
    pub estimated: u64,
    /// `current - estimated`: positive means the swap would shrink the
    /// heap.
    pub gain: i64,
}

/// A point-in-time structural report of a BDD manager's heap.
///
/// Invariants (checked by the kernel-side builder's tests and the CLI
/// round-trip test): `live_nodes = terminals + Σ levels[i].nodes`;
/// every non-zero `load` is in `(0, 1]`; `sift` has one entry per
/// adjacent level pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapSnapshot {
    /// Live nodes, terminals included (the manager's `num_nodes()`).
    pub live_nodes: u64,
    /// Terminal nodes (always 2: `0` and `1`).
    pub terminals: u64,
    /// Dead slots on the free list, reusable without growing the pool.
    pub free_nodes: u64,
    /// Node-pool high-water mark.
    pub peak_nodes: u64,
    /// `free / (internal live + free)`: the fraction of the allocated
    /// pool that is dead. In `[0, 1]`.
    pub dead_ratio: f64,
    /// Average in-degree of internal nodes (child edges from live
    /// nodes plus protected-root references, over internal nodes):
    /// `1.0` means a tree, higher means more sharing.
    pub sharing_factor: f64,
    /// Every level of the order, topmost first.
    pub levels: Vec<HeapLevel>,
    /// The top-k widest levels, widest first (ties to the upper level).
    pub widest: Vec<HeapWidest>,
    /// Aggregate unique-table health.
    pub unique: HeapUnique,
    /// Computed-table occupancy.
    pub computed: HeapComputed,
    /// Sifting-gain estimate for each adjacent level pair, top first.
    pub sift: Vec<SiftGain>,
}

impl HeapSnapshot {
    /// Renders the snapshot as one JSON object (no trailing newline).
    /// Key order follows [`HEAP_SNAPSHOT_KEYS`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"heap_schema\":{HEAP_SCHEMA_VERSION},\"live_nodes\":{},\"terminals\":{},\
             \"free_nodes\":{},\"peak_nodes\":{},\"dead_ratio\":{},\"sharing_factor\":{}",
            self.live_nodes,
            self.terminals,
            self.free_nodes,
            self.peak_nodes,
            fmt_f64(self.dead_ratio),
            fmt_f64(self.sharing_factor),
        ));
        s.push_str(",\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"level\":{},\"var\":\"", l.level));
            esc(&mut s, &l.var);
            s.push_str(&format!(
                "\",\"nodes\":{},\"slots\":{},\"load\":{},\"longest_probe\":{}}}",
                l.nodes,
                l.slots,
                fmt_f64(l.load),
                l.longest_probe
            ));
        }
        s.push_str("],\"widest\":[");
        for (i, w) in self.widest.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"level\":{},\"var\":\"", w.level));
            esc(&mut s, &w.var);
            s.push_str(&format!("\",\"nodes\":{}}}", w.nodes));
        }
        s.push_str(&format!(
            "],\"unique\":{{\"entries\":{},\"slots\":{},\"load\":{},\"longest_probe\":{},\
             \"probe_hist\":[",
            self.unique.entries,
            self.unique.slots,
            fmt_f64(self.unique.load),
            self.unique.longest_probe
        ));
        for (i, c) in self.unique.probe_hist.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{c}"));
        }
        s.push_str(&format!(
            "]}},\"computed\":{{\"capacity\":{},\"live\":{},\"occupancy\":{},\"ops\":[",
            self.computed.capacity,
            self.computed.live,
            fmt_f64(self.computed.occupancy)
        ));
        for (i, o) in self.computed.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"op\":\"");
            esc(&mut s, &o.op);
            s.push_str(&format!("\",\"live\":{}}}", o.live));
        }
        s.push_str("]},\"sift\":[");
        for (i, g) in self.sift.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"upper\":{},\"lower\":{},\"current\":{},\"estimated\":{},\"gain\":{}}}",
                g.upper, g.lower, g.current, g.estimated, g.gain
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a snapshot back from its JSON rendering. Returns `None`
    /// for malformed documents or a newer schema version.
    pub fn from_json(j: &Json) -> Option<HeapSnapshot> {
        if j.get("heap_schema")?.as_u64()? > HEAP_SCHEMA_VERSION {
            return None;
        }
        let arr = |v: &Json| match v {
            Json::Arr(items) => Some(items.clone()),
            _ => None,
        };
        let levels = arr(j.get("levels")?)?
            .iter()
            .map(|l| {
                Some(HeapLevel {
                    level: l.get("level")?.as_u64()?,
                    var: l.get("var")?.as_str()?.to_string(),
                    nodes: l.get("nodes")?.as_u64()?,
                    slots: l.get("slots")?.as_u64()?,
                    load: l.get("load")?.as_f64()?,
                    longest_probe: l.get("longest_probe")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let widest = arr(j.get("widest")?)?
            .iter()
            .map(|w| {
                Some(HeapWidest {
                    level: w.get("level")?.as_u64()?,
                    var: w.get("var")?.as_str()?.to_string(),
                    nodes: w.get("nodes")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let u = j.get("unique")?;
        let unique = HeapUnique {
            entries: u.get("entries")?.as_u64()?,
            slots: u.get("slots")?.as_u64()?,
            load: u.get("load")?.as_f64()?,
            longest_probe: u.get("longest_probe")?.as_u64()?,
            probe_hist: arr(u.get("probe_hist")?)?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()?,
        };
        let c = j.get("computed")?;
        let computed = HeapComputed {
            capacity: c.get("capacity")?.as_u64()?,
            live: c.get("live")?.as_u64()?,
            occupancy: c.get("occupancy")?.as_f64()?,
            ops: arr(c.get("ops")?)?
                .iter()
                .map(|o| {
                    Some(HeapCacheOp {
                        op: o.get("op")?.as_str()?.to_string(),
                        live: o.get("live")?.as_u64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        };
        let sift = arr(j.get("sift")?)?
            .iter()
            .map(|g| {
                Some(SiftGain {
                    upper: g.get("upper")?.as_u64()?,
                    lower: g.get("lower")?.as_u64()?,
                    current: g.get("current")?.as_u64()?,
                    estimated: g.get("estimated")?.as_u64()?,
                    gain: g.get("gain")?.as_f64().filter(|n| n.fract() == 0.0)? as i64,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(HeapSnapshot {
            live_nodes: j.get("live_nodes")?.as_u64()?,
            terminals: j.get("terminals")?.as_u64()?,
            free_nodes: j.get("free_nodes")?.as_u64()?,
            peak_nodes: j.get("peak_nodes")?.as_u64()?,
            dead_ratio: j.get("dead_ratio")?.as_f64()?,
            sharing_factor: j.get("sharing_factor")?.as_f64()?,
            levels,
            widest,
            unique,
            computed,
            sift,
        })
    }

    /// Renders the snapshot as the human report `smc inspect` prints.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        s.push_str("-- heap snapshot --\n");
        s.push_str(&format!(
            "nodes           : {} live ({} terminal), {} free, {} peak\n",
            self.live_nodes, self.terminals, self.free_nodes, self.peak_nodes
        ));
        s.push_str(&format!(
            "structure       : dead ratio {:.3}, sharing factor {:.3}\n",
            self.dead_ratio, self.sharing_factor
        ));
        s.push_str(&format!(
            "unique tables   : {} entries / {} slots (load {:.3}), longest probe {}\n",
            self.unique.entries, self.unique.slots, self.unique.load, self.unique.longest_probe
        ));
        s.push_str(&format!(
            "computed table  : {} live / {} capacity (occupancy {:.3})\n",
            self.computed.live, self.computed.capacity, self.computed.occupancy
        ));
        for o in &self.computed.ops {
            s.push_str(&format!("  {:<11}: {} live\n", o.op, o.live));
        }
        if !self.widest.is_empty() {
            s.push_str("widest levels   :\n");
            for w in &self.widest {
                s.push_str(&format!("  level {:>3} ({}): {} nodes\n", w.level, w.var, w.nodes));
            }
        }
        let mut best: Vec<&SiftGain> = self.sift.iter().collect();
        best.sort_by_key(|g| -g.gain);
        if let Some(top) = best.first().filter(|g| g.gain > 0) {
            s.push_str(&format!(
                "best sift swap  : levels {}<->{} would drop {} nodes ({} -> {})\n",
                top.upper, top.lower, top.gain, top.current, top.estimated
            ));
        } else if !self.sift.is_empty() {
            s.push_str("best sift swap  : none profitable (order is locally optimal)\n");
        }
        s
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> HeapSnapshot {
        HeapSnapshot {
            live_nodes: 12,
            terminals: 2,
            free_nodes: 3,
            peak_nodes: 20,
            dead_ratio: 0.23076923076923078,
            sharing_factor: 1.5,
            levels: vec![
                HeapLevel {
                    level: 0,
                    var: "x".into(),
                    nodes: 4,
                    slots: 16,
                    load: 0.25,
                    longest_probe: 1,
                },
                HeapLevel {
                    level: 1,
                    var: "y".into(),
                    nodes: 6,
                    slots: 16,
                    load: 0.375,
                    longest_probe: 2,
                },
            ],
            widest: vec![HeapWidest { level: 1, var: "y".into(), nodes: 6 }],
            unique: HeapUnique {
                entries: 10,
                slots: 32,
                load: 0.3125,
                longest_probe: 2,
                probe_hist: vec![7, 2, 1],
            },
            computed: HeapComputed {
                capacity: 1024,
                live: 5,
                occupancy: 0.0048828125,
                ops: vec![HeapCacheOp { op: "ite".into(), live: 5 }],
            },
            sift: vec![SiftGain { upper: 0, lower: 1, current: 10, estimated: 9, gain: 1 }],
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let text = snap.to_json();
        let j = Json::parse(&text).unwrap_or_else(|| panic!("unparseable: {text}"));
        let back = HeapSnapshot::from_json(&j).unwrap();
        assert_eq!(back, snap, "{text}");
        // And the rendering is canonical: serialize(parse(s)) == s.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let snap = sample();
        let bumped = snap.to_json().replace("\"heap_schema\":1", "\"heap_schema\":999");
        assert!(HeapSnapshot::from_json(&Json::parse(&bumped).unwrap()).is_none());
    }

    #[test]
    fn top_level_keys_match_the_contract() {
        let j = Json::parse(&sample().to_json()).unwrap();
        let Json::Obj(fields) = &j else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, HEAP_SNAPSHOT_KEYS);
    }

    #[test]
    fn human_report_mentions_the_load_and_best_swap() {
        let text = sample().render_human();
        assert!(text.contains("unique tables"), "{text}");
        assert!(text.contains("load 0.312"), "{text}");
        assert!(text.contains("best sift swap  : levels 0<->1 would drop 1 nodes"), "{text}");
    }
}
