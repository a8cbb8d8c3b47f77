//! Seeded workload inputs: SMV models of speed-independent circuits
//! (exported through `Netlist::to_smv`), copies of the bundled example
//! models, and the verdict every spec they carry must get.
//!
//! The specs and verdicts come from `expected/verdicts.txt`, the
//! hand-written answer key. The seed picks orders: of the circuits in a
//! `witness` pass, of the specs of the `reach` model, of the jobs in a
//! manifest and of the requests to `serve`, plus which sources get the
//! odd extra copy and the tags of unique variants. Sizes, specs and the
//! mix of request kinds are fixed, because every seed must ask for the
//! same work: the spread of a metric across seeds is part of its noise.

use smc_circuits::{arbiter::arbiter, families, Netlist};

use crate::rng::Rng;

/// One line of the answer key.
#[derive(Debug, Clone)]
pub struct Expected {
    pub family: String,
    pub spec: String,
    pub holds: bool,
}

/// The answer key compiled into the binary.
pub fn answer_key() -> Vec<Expected> {
    include_str!("../expected/verdicts.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split(" | ").map(str::trim).collect();
            assert!(fields.len() == 4, "verdicts.txt: expected 4 fields in {line:?}");
            let holds = match fields[2] {
                "holds" => true,
                "FAILS" => false,
                other => panic!("verdicts.txt: verdict must be holds or FAILS, got {other:?}"),
            };
            Expected { family: fields[0].to_string(), spec: fields[1].to_string(), holds }
        })
        .collect()
}

/// A model with the verdict each of its SPECs must get.
#[derive(Debug, Clone)]
pub struct Model {
    /// Short unique name (`arbiter2`, `pipe12`, `mutex`, ...).
    pub name: String,
    pub source: String,
    pub specs: Vec<Spec>,
    /// A generated circuit: its boolean node names can serve as atoms
    /// of an ad-hoc CTL formula.
    pub circuit: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub text: String,
    pub holds: bool,
}

/// The circuit families the benchmark draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Arbiter,
    InverterRing,
    MullerPipeline,
    CElementRing,
}

impl Family {
    fn key(self) -> &'static str {
        match self {
            Family::Arbiter => "arbiter",
            Family::InverterRing => "inverter_ring",
            Family::MullerPipeline => "muller_pipeline",
            Family::CElementRing => "c_element_ring",
        }
    }

    fn short(self) -> &'static str {
        match self {
            Family::Arbiter => "arbiter",
            Family::InverterRing => "ring",
            Family::MullerPipeline => "pipe",
            Family::CElementRing => "cring",
        }
    }

    fn netlist(self, size: usize) -> Netlist {
        match self {
            Family::Arbiter => arbiter(size).netlist,
            Family::InverterRing => families::inverter_ring(size),
            Family::MullerPipeline => families::muller_pipeline(size),
            Family::CElementRing => families::c_element_ring(size),
        }
    }
}

/// The nodes `{i}` and `{j}` of a spec template: users 1 and 2 of an
/// arbiter (as in the paper), node 0 of a ring and its successor, the
/// first inner stage of a pipeline and the next one. They are fixed
/// because the node changes the work by up to half (arbiter(3) creates
/// 2.24M nodes for users 1, 2 and 3.27M for users 3, 2).
fn nodes(family: Family) -> (usize, usize) {
    match family {
        Family::Arbiter | Family::MullerPipeline => (1, 2),
        Family::InverterRing | Family::CElementRing => (0, 1),
    }
}

/// A circuit with every answer-key spec of its family appended, in the
/// key's order or, given `order`, shuffled.
pub fn circuit(key: &[Expected], family: Family, size: usize, order: Option<&mut Rng>) -> Model {
    let (i, j) = nodes(family);
    let mut entries: Vec<&Expected> = key.iter().filter(|e| e.family == family.key()).collect();
    if let Some(rng) = order {
        rng.shuffle(&mut entries);
    }
    let mut source = family.netlist(size).to_smv();
    let mut specs = Vec::new();
    for e in entries {
        let text = e.spec.replace("{i}", &i.to_string()).replace("{j}", &j.to_string());
        source.push_str(&format!("SPEC {text}\n"));
        specs.push(Spec { text, holds: e.holds });
    }
    Model { name: format!("{}{size}", family.short()), source, specs, circuit: true }
}

const BUNDLED: [(&str, &str); 5] = [
    ("mutex", include_str!("../models/mutex.smv")),
    ("counter8", include_str!("../models/counter8.smv")),
    ("round_robin", include_str!("../models/round_robin.smv")),
    ("pipeline", include_str!("../models/pipeline.smv")),
    ("retry_protocol", include_str!("../models/retry_protocol.smv")),
];

/// A bundled model; each `SPEC` line is looked up in the answer key.
fn bundled(key: &[Expected], name: &str, source: &str) -> Model {
    let specs = source
        .lines()
        .filter_map(|l| l.trim().strip_prefix("SPEC "))
        .map(|text| {
            let e = key
                .iter()
                .find(|e| e.family == name && e.spec == text.trim())
                .unwrap_or_else(|| panic!("verdicts.txt has no line for {name} | {text}"));
            Spec { text: e.spec.clone(), holds: e.holds }
        })
        .collect();
    Model { name: name.to_string(), source: source.to_string(), specs, circuit: false }
}

/// The eight circuits of one `witness` pass, in seeded order: the
/// paper's Seitz arbiter plus the three scalable families at sizes
/// whose witness working sets (0.1-1M nodes) overflow the computed
/// table. `quick` keeps only the arbiter.
pub fn witness_models(key: &[Expected], seed: u64, quick: bool) -> Vec<Model> {
    let mut rng = Rng::new(seed);
    let sizes: &[(Family, usize)] = if quick {
        &[(Family::Arbiter, 2)]
    } else {
        &[
            (Family::Arbiter, 2),
            (Family::MullerPipeline, 10),
            (Family::MullerPipeline, 11),
            (Family::MullerPipeline, 12),
            (Family::InverterRing, 13),
            (Family::InverterRing, 15),
            (Family::CElementRing, 12),
            (Family::CElementRing, 13),
        ]
    };
    let mut models: Vec<Model> = sizes.iter().map(|&(f, n)| circuit(key, f, n, None)).collect();
    rng.shuffle(&mut models);
    models
}

/// The `reach` model: the three-user arbiter (the two-user one under
/// `quick`), its specs in seeded order (which moves its cache lookups by
/// under 0.5%).
pub fn reach_model(key: &[Expected], seed: u64, quick: bool) -> Model {
    circuit(key, Family::Arbiter, if quick { 2 } else { 3 }, Some(&mut Rng::new(seed)))
}

/// The sources `batch` and `serve` draw from: the bundled models and
/// six small circuits.
pub fn pool(key: &[Expected]) -> Vec<Model> {
    let mut models: Vec<Model> = BUNDLED.iter().map(|(n, s)| bundled(key, n, s)).collect();
    for (family, size) in [
        (Family::InverterRing, 5),
        (Family::InverterRing, 7),
        (Family::MullerPipeline, 5),
        (Family::MullerPipeline, 6),
        (Family::CElementRing, 5),
        (Family::CElementRing, 6),
    ] {
        models.push(circuit(key, family, size, None));
    }
    models
}

/// One unit of `batch` or `serve` work over the [`pool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Index into the pool.
    pub model: usize,
    /// `Some(k)`: the `k`-th unique variant of the model (a fresh
    /// source), `None`: the model's source itself, repeated.
    pub variant: Option<usize>,
    /// Index into the model's specs of an ad-hoc formula checked instead
    /// of its SPEC sections.
    pub spec: Option<usize>,
    /// Ask for counterexamples and witnesses.
    pub trace: bool,
}

impl Job {
    /// The source text of this job. A unique variant is the model
    /// behind a comment line, so its source (and so its warm-start cache
    /// key) is new while every verdict stays the same; `tag` keeps it
    /// unique across runs and steps.
    pub fn source(&self, pool: &[Model], tag: &str) -> String {
        let source = &pool[self.model].source;
        match self.variant {
            Some(k) => format!("-- variant {tag}.{k}\n{source}"),
            None => source.clone(),
        }
    }

    /// The expected verdicts of this job, in response order.
    pub fn expected<'m>(&self, pool: &'m [Model]) -> Vec<&'m Spec> {
        let m = &pool[self.model];
        match self.spec {
            Some(s) => vec![&m.specs[s]],
            None => m.specs.iter().collect(),
        }
    }
}

/// Spreads `count` picks over `0..n` as evenly as possible; the seed
/// picks which indices get the remainder.
fn balanced(count: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut extra: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut extra);
    let mut out: Vec<usize> = (0..count / n).flat_map(|_| 0..n).collect();
    out.extend(&extra[..count % n]);
    out
}

/// A `batch` manifest of `total` jobs: three quarters repeat a pool
/// source (warm-start cache hits after the first), one quarter are
/// unique variants (cold compiles). Sources are spread evenly.
pub fn batch_jobs(pool_len: usize, total: usize, seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0xba7c);
    let unique = total / 4;
    let mut jobs: Vec<Job> = balanced(total - unique, pool_len, &mut rng)
        .into_iter()
        .map(|model| Job { model, variant: None, spec: None, trace: false })
        .collect();
    for (k, model) in balanced(unique, pool_len, &mut rng).into_iter().enumerate() {
        jobs.push(Job { model, variant: Some(k), spec: None, trace: false });
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// `count` serve requests: 30% unique variants, 25% asking for traces,
/// 20% carrying an ad-hoc formula (each of a circuit's specs in turn),
/// the rest whole-model checks of a repeated source.
pub fn serve_requests(pool: &[Model], count: usize, seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let circuits: Vec<usize> = (0..pool.len()).filter(|&m| pool[m].circuit).collect();
    let adhoc_count = count.div_ceil(5);
    let mut adhoc = balanced(adhoc_count, circuits.len(), &mut rng).into_iter();
    let mut plain = balanced(count - adhoc_count, pool.len(), &mut rng).into_iter();
    let mut asked = vec![0; pool.len()];
    let mut jobs = Vec::with_capacity(count);
    for k in 0..count {
        let (model, spec) = if k % 5 == 0 {
            let m = circuits[adhoc.next().expect("one pick per ad-hoc request")];
            asked[m] += 1;
            (m, Some(asked[m] % pool[m].specs.len()))
        } else {
            (plain.next().expect("one pick per plain request"), None)
        };
        let variant = (k % 10 < 3).then_some(k);
        jobs.push(Job { model, variant, spec, trace: k % 4 == 1 });
    }
    rng.shuffle(&mut jobs);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_job_mixes_have_the_asked_size_and_shares() {
        let key = answer_key();
        let pool = pool(&key);
        for count in [1, 7, 13, 40, 292, 800] {
            let jobs = serve_requests(&pool, count, 3);
            assert_eq!(jobs.len(), count);
            let adhoc = jobs.iter().filter(|j| j.spec.is_some()).count();
            assert_eq!(adhoc, count.div_ceil(5));
            assert!(jobs.iter().filter(|j| j.spec.is_some()).all(|j| pool[j.model].circuit));
        }
        let jobs = batch_jobs(pool.len(), 96, 3);
        assert_eq!(jobs.len(), 96);
        assert_eq!(jobs.iter().filter(|j| j.variant.is_some()).count(), 24);
        for m in 0..pool.len() {
            let repeats = jobs.iter().filter(|j| j.model == m && j.variant.is_none()).count();
            assert!((6..=7).contains(&repeats), "model {m}: {repeats} repeats");
        }
    }

    #[test]
    fn the_seed_changes_order_only() {
        let key = answer_key();
        let (a, b) = (witness_models(&key, 1, false), witness_models(&key, 2, false));
        let names = |ms: &[Model]| {
            let mut n: Vec<String> = ms.iter().map(|m| m.source.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&a), names(&b));
        let (a, b) = (reach_model(&key, 1, false), reach_model(&key, 2, false));
        let mut sa: Vec<&str> = a.specs.iter().map(|s| s.text.as_str()).collect();
        let mut sb: Vec<&str> = b.specs.iter().map(|s| s.text.as_str()).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }
}
