//! `smc` — command-line front end for the symbolic model checker.
//!
//! ```text
//! smc check  [--trace] [--lint] [--coi] [--strategy restart|stayset] [COMMON] FILE.smv
//! smc batch  [--jobs N] [--json] [--coi] [--no-cache] [COMMON] MANIFEST
//! smc serve  [--jobs N] [--listen ADDR] [--metrics-addr ADDR] ...  NDJSON service
//! smc spec   [--lint] [--coi] [COMMON] FILE.smv FORMULA   check one ad-hoc CTL formula
//! smc lint   [--json] [COMMON] FILE.smv...        static + symbolic analysis
//! smc deps   [--dot] FILE.smv                     variable dependency graph
//! smc reach  [COMMON] FILE.smv                    reachability statistics
//! smc inspect [--spec N] [--json] [--top K] [--at compile|reach|check]
//!            [COMMON] FILE.smv                    BDD heap observatory
//! smc bench  [--baseline F] [--update] ...        benchmark observatory
//! smc profile report FILE.jsonl [--json] [--top N]
//! smc profile export FILE.jsonl (--chrome|--speedscope) [--out FILE]
//! smc debug dump FILE.dump.jsonl               pretty-print a black-box dump
//! smc help
//! ```
//!
//! `COMMON` flags are shared by `check`, `spec`, `lint` and `reach`: the
//! budget flags (`--timeout`, `--node-limit`, `--max-iters`) install a
//! resource governor on the BDD manager (an exhausted budget exits with
//! code 3 after printing partial-progress diagnostics), `--stats` prints
//! the manager counters, `--metrics [FILE]` exposes the metrics registry
//! (Prometheus text format, or JSON for a `.json` FILE), and
//! `--progress` / `--profile [FILE.jsonl]` enable structured telemetry
//! (live progress line / profile report + optional JSON-lines trace).

use std::process::ExitCode;
use std::time::Duration;

use smc::analysis::{analyze, AnalysisOptions, Report};
use smc::bdd::{BddManager, Budget};
use smc::bench::observatory::{self, BenchConfig};
use smc::checker::{CheckError, Checker, CycleStrategy, PartialProgress, Phase, TripReason};
use smc::kripke::{KripkeError, SymbolicModel};
use smc::obs::{
    export_chrome, export_speedscope, report_from_jsonl_with, Event, Json, JsonlSink, Ledger,
    Metrics, ProfileAggregator, ProgressSink, RunRecord, Telemetry,
};
use smc::smv::{CompiledModel, SmvError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    match command.as_str() {
        "check" => cmd_check(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "spec" => cmd_spec(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "deps" => cmd_deps(&args[1..]),
        "reach" => cmd_reach(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "dot" => cmd_dot(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "debug" => cmd_debug(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            print_usage();
            Ok(ExitCode::from(2))
        }
    }
}

fn print_usage() {
    eprintln!(
        "smc — symbolic model checking with counterexamples and witnesses

USAGE:
    smc check  [--trace] [--lint] [--coi] [--heap]
               [--strategy restart|stayset] [COMMON] FILE.smv
    smc batch  [--jobs N] [--json] [--trace] [--coi] [--heap] [--no-cache]
               [--cache-dir DIR] [--cache-cap N]
               [--strategy restart|stayset] [COMMON] MANIFEST
    smc serve  [--jobs N] [--listen ADDR] [--metrics-addr ADDR]
               [--max-queue N] [--quarantine-after N] [--watchdog SECS]
               [--drain-timeout SECS] [--retry-after-ms N] [--cache-dir DIR]
               [--cache-cap N] [--dump-dir DIR] [--dump-cap N]
               [--recorder-cap N] [--trace] [--coi] [--no-cache]
               [--strategy restart|stayset] [COMMON]
    smc spec   [--lint] [--coi] [--heap] [COMMON] FILE.smv FORMULA
    smc lint   [--json] [COMMON] FILE.smv...
    smc deps   [--dot] FILE.smv
    smc reach  [COMMON] FILE.smv
    smc inspect [--spec N] [--json] [--top K] [--at compile|reach|check]
               [COMMON] FILE.smv
    smc dot    FILE.smv (init|trans|reach)
    smc bench  [--baseline FILE] [--update] [--reps N] [--tolerance PCT]
               [--no-gate] [--telemetry] [--recorder] [--heap] [--families LIST]
    smc profile report FILE.jsonl [--json] [--top N]
    smc profile export FILE.jsonl (--chrome|--speedscope) [--out FILE]
    smc debug dump (FILE.dump.jsonl | -)
    smc help

COMMON (any combination; shared by check, spec, lint and reach):
    --timeout <secs>     abort when the wall-clock deadline expires
    --node-limit <n>     bound live BDD nodes (GC, then reorder, then a
                         smaller cache are tried before giving up)
    --max-iters <n>      cap fixpoint iterations per operator
    --stats              print BDD manager counters (per-operation cache
                         hit rates, peak nodes, GC) after the run — also
                         on the exit-3 budget-exhausted path
    --metrics [FILE]     expose the metrics registry (fixpoint iteration
                         counts, frontier-size and witness-shape
                         histograms, cache hit rates, GC pauses) after
                         the run: Prometheus text format to stdout, or
                         to FILE (.prom = Prometheus, .json = JSON)
    --progress           live progress line on stderr (phase, iteration,
                         frontier size, node pressure)
    --profile [F.jsonl]  print a per-phase profile report (wall/self
                         time, iterations, peak nodes, cache hit rate);
                         with a FILE ending in .jsonl, also record the
                         full event trace there (schema-versioned JSON
                         lines, see `smc profile report`)

COMMANDS:
    check    check every SPEC of the program; with --trace, print a
             counterexample for each failing spec (and a witness for
             each holding temporal spec); with --lint, run the analyzer
             first and print its findings to stderr; with --coi, check
             each SPEC on its cone-of-influence slice (variables the
             spec cannot observe are dropped, provably frozen variables
             are folded to constants — verdicts are unchanged, one
             `coi:` report line per spec goes to stderr; specs with no
             sound slice, trace runs and unparseable models fall back
             to the full model)
    batch    check every job of a MANIFEST file (one `MODEL.smv
             [FORMULA]` per line; # comments) on --jobs N worker
             threads. Each job gets its own BDD manager and its own
             budget (the COMMON budget flags apply per job, deadline
             clock starting at job start); a tripped budget is that
             job's outcome, not the batch's. Identical model sources
             warm-start from a shared artifact cache (--no-cache
             disables it); results print in manifest order whatever
             the schedule; exit is the worst job outcome. --metrics
             adds fleet-level series (queue depth, jobs in flight,
             cache traffic, per-job wall histogram); --cache-dir makes
             the warm-start cache persistent (crash-safe writes,
             checksum-verified loads, --cache-cap LRU entries); --coi
             checks whole-model traceless jobs on per-spec cones, as
             for `smc check --coi` (such jobs bypass the cache)
    serve    long-running checking service: NDJSON requests in (stdin,
             or TCP with --listen), one NDJSON response per request
             out. Ops: {{\"op\":\"check\",\"source\"|\"path\":..,
             [\"spec\",\"trace\",\"timeout_ms\",\"node_limit\",
             \"max_iters\",\"id\"]}}, {{\"op\":\"metrics\"}},
             {{\"op\":\"shutdown\"}}. Admission control bounds queued +
             in-flight work at --max-queue + --jobs (overflow answers
             `rejected/overload` with a retry-after hint); per-request
             quotas tighten against the COMMON budget caps; --watchdog
             cancels jobs running past SECS; sources tripping the
             governor --quarantine-after times in a row are refused
             with their cached diagnostic; EOF or shutdown drains
             gracefully (--drain-timeout caps the wait) and emits a
             final `drained` summary. Every request gets a trace_id
             (client-supplied, or derived from source + sequence)
             echoed in its response and stamped into its telemetry;
             a flight recorder keeps the last --recorder-cap events
             per request and, with --dump-dir, writes a black-box
             .dump.jsonl on a trip/panic (capped at --dump-cap files,
             path echoed as \"dump\" in the response). {{\"op\":
             \"status\"}} and GET /status on --metrics-addr return a
             live snapshot (queue, per-worker phase, quarantine);
             --metrics-addr also serves the Prometheus exposition.
             Exit is the worst executed-request outcome; rejections
             do not count
    spec     check one CTL formula against the model (atoms are boolean
             variables or spec labels); --lint and --coi as for check
             (the cone is seeded from the formula's atoms; label atoms
             fall back to the full model)
    lint     run the multi-pass analyzer: syntactic checks (unused and
             undeclared variables, shadowed branches, ...), symbolic
             checks (deadlocks, dead case branches, degenerate
             fairness) and SPEC vacuity detection with interesting
             witnesses; --json emits one machine-readable JSON array
             with one object per readable file. Exit 0 clean / 1
             warnings / 2 errors / 3 budget
    deps     print the variable dependency graph of the flattened
             model: per-variable dependencies, strongly connected
             components (reverse topological), per-spec cones of
             influence, fairness support and provably frozen
             variables; --dot writes Graphviz DOT instead
    reach    print model statistics (variables, reachable states)
    inspect  the BDD heap observatory: drive the model to a pipeline
             point (--at compile, reach [default], or check — --spec N
             checks just that SPEC first) and print a structural report
             of the manager's heap: per-level node census with unique-
             table load and probe health, the --top K widest levels,
             computed-table occupancy by operation, dead-node ratio,
             sharing factor, and a read-only sifting-gain estimate per
             adjacent level pair; --json emits the schema-versioned
             snapshot document instead. The same report rides `check`,
             `spec` and `batch` as --heap
    dot      write the requested BDD as Graphviz DOT to stdout
    bench    run the benchmark observatory (families: mutex, arbiter2,
             seitz, seitz_smv, ring9, batch, coi; phases: compile,
             reach, check, witness) and gate against the --baseline
             ledger: exit 1 on a regression beyond --tolerance (default
             10%), append the run to the ledger's history when clean;
             --update re-baselines in place; --no-gate runs without
             touching any file
    profile  render (report) or convert (export) a recorded .jsonl
             trace; export targets the Chrome trace-event format
             (--chrome, for chrome://tracing / Perfetto) or the
             speedscope format (--speedscope)
    debug    pretty-print a flight-recorder black-box dump written by
             `smc serve --dump-dir` (header, then one line per
             buffered event with phase timings)

EXIT CODE: 0 if everything checked holds, 1 if some spec fails (or a
           benchmark regressed), 2 on usage or input errors, 3 if a
           resource budget was exhausted (diagnostics go to stderr)."
    );
}

/// Budget flags shared by `check`, `spec` and `reach`.
#[derive(Debug, Clone, Copy, Default)]
struct BudgetOptions {
    timeout_secs: Option<u64>,
    node_limit: Option<usize>,
    max_iters: Option<u64>,
}

impl BudgetOptions {
    /// Consumes a budget flag at `args[*i]`, advancing `*i` past its
    /// value. Returns false if `args[*i]` is not a budget flag.
    fn try_parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        fn num(name: &str, v: Option<&String>) -> Result<u64, String> {
            let v = v.ok_or_else(|| format!("{name} expects a number"))?;
            v.parse::<u64>().map_err(|_| format!("{name} expects a number, got {v:?}"))
        }
        match args[*i].as_str() {
            "--timeout" => {
                *i += 1;
                self.timeout_secs = Some(num("--timeout", args.get(*i))?);
            }
            "--node-limit" => {
                *i += 1;
                self.node_limit = Some(num("--node-limit", args.get(*i))? as usize);
            }
            "--max-iters" => {
                *i += 1;
                self.max_iters = Some(num("--max-iters", args.get(*i))?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The requested budget, or `None` when no budget flag was given (an
    /// ungoverned run has zero governor overhead). The deadline clock
    /// starts here.
    fn to_budget(self) -> Option<Budget> {
        if self.timeout_secs.is_none() && self.node_limit.is_none() && self.max_iters.is_none() {
            return None;
        }
        let mut budget = Budget::default();
        if let Some(secs) = self.timeout_secs {
            budget = budget.with_timeout(Duration::from_secs(secs));
        }
        if let Some(n) = self.node_limit {
            budget = budget.with_node_limit(n);
        }
        if let Some(n) = self.max_iters {
            budget = budget.with_max_iterations(n);
        }
        Some(budget)
    }
}

/// Options shared by `check`, `spec` and `reach`: budget, `--stats`,
/// and the telemetry flags, plus the collected positional arguments.
/// One parser instead of a copy per command.
#[derive(Debug, Default)]
struct CommonOptions {
    budget: BudgetOptions,
    stats: bool,
    progress: bool,
    /// `--profile` was given: print the post-run profile report.
    profile: bool,
    /// `--profile FILE.jsonl`: also record the JSON-lines trace there.
    trace_path: Option<String>,
    /// `--metrics` was given: expose the registry after the run.
    metrics: bool,
    /// `--metrics FILE`: write there (.json = JSON exposition, anything
    /// else = Prometheus text format) instead of stdout.
    metrics_path: Option<String>,
    positionals: Vec<String>,
}

/// Parses the shared flags; `extra` consumes command-specific flags at
/// `args[*i]` first (returning true and leaving `*i` on the flag's last
/// token, like [`BudgetOptions::try_parse`]).
fn parse_common(
    args: &[String],
    mut extra: impl FnMut(&[String], &mut usize) -> Result<bool, String>,
) -> Result<CommonOptions, String> {
    let mut o = CommonOptions::default();
    let mut i = 0;
    while i < args.len() {
        if o.budget.try_parse(args, &mut i)? || extra(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--stats" => o.stats = true,
            "--progress" => o.progress = true,
            "--profile" => {
                o.profile = true;
                // The trace file operand is optional; only a .jsonl name
                // is taken, so `--profile model.smv` still parses.
                if let Some(next) = args.get(i + 1) {
                    if next.ends_with(".jsonl") {
                        o.trace_path = Some(next.clone());
                        i += 1;
                    }
                }
            }
            "--metrics" => {
                o.metrics = true;
                // Same optional-operand pattern as --profile: only a
                // .json or .prom name is taken as the output file.
                if let Some(next) = args.get(i + 1) {
                    if next.ends_with(".json") || next.ends_with(".prom") {
                        o.metrics_path = Some(next.clone());
                        i += 1;
                    }
                }
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}"));
            }
            p => o.positionals.push(p.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

/// The telemetry of one CLI run: the handle handed to the compiler, the
/// aggregator kept for the post-run report, and the metrics registry
/// exposed at the end.
struct TeleSession {
    tele: Telemetry,
    profile: Option<ProfileAggregator>,
    metrics: Metrics,
    metrics_path: Option<String>,
}

impl TeleSession {
    /// Builds the handle the common options ask for: disabled unless
    /// `--progress`, `--profile` or `--metrics` was given.
    fn new(o: &CommonOptions) -> Result<TeleSession, Box<dyn std::error::Error>> {
        if !o.progress && !o.profile && !o.metrics {
            return Ok(TeleSession {
                tele: Telemetry::disabled(),
                profile: None,
                metrics: Metrics::disabled(),
                metrics_path: None,
            });
        }
        let tele = Telemetry::new();
        if let Some(path) = &o.trace_path {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            tele.add_sink(Box::new(sink));
        }
        if o.progress {
            tele.add_sink(Box::new(ProgressSink::stderr()));
        }
        let profile = o.profile.then(ProfileAggregator::new);
        if let Some(p) = &profile {
            tele.add_sink(Box::new(p.clone()));
        }
        let metrics = if o.metrics { Metrics::new() } else { Metrics::disabled() };
        // Attached to the telemetry handle, the registry derives its
        // iteration counts and size histograms from the event stream.
        tele.set_metrics(metrics.clone());
        Ok(TeleSession { tele, profile, metrics, metrics_path: o.metrics_path.clone() })
    }

    /// Snapshots the authoritative end-of-run numbers (model gauges,
    /// manager cache/GC counters) into the registry. No-op unless
    /// `--metrics` was given. Call before [`finish`](Self::finish) on
    /// any path where a model exists.
    fn record_model(&self, model: &SymbolicModel) {
        model.record_metrics(&self.metrics);
    }

    /// Flushes the sinks (clears the progress line, drains the trace
    /// file), prints the profile report and writes the metrics
    /// exposition. Call on every exit path, including exit 3.
    fn finish(&self) {
        self.tele.flush();
        if let Some(p) = &self.profile {
            print!("{}", p.render());
        }
        if self.metrics.enabled() {
            match &self.metrics_path {
                Some(path) => {
                    let text = if path.ends_with(".json") {
                        let mut t = self.metrics.render_json();
                        t.push('\n');
                        t
                    } else {
                        self.metrics.render_prometheus()
                    };
                    if let Err(e) = std::fs::write(path, text) {
                        eprintln!("error: cannot write metrics file {path:?}: {e}");
                    }
                }
                None => print!("{}", self.metrics.render_prometheus()),
            }
        }
    }
}

/// Prints the structured partial-progress report of an exhausted budget
/// and returns the dedicated exit code 3.
fn report_exhausted(phase: Phase, reason: &TripReason, partial: &PartialProgress) -> ExitCode {
    eprintln!("resource budget exhausted during {phase}: {reason}");
    eprintln!("partial progress: {partial}");
    ExitCode::from(3)
}

/// Renders the manager counters the way ablation A3 consumes them: one
/// aggregate line, one line per operation with cache traffic, one GC
/// line. The table is produced by snapshotting the manager into a
/// throwaway metrics registry and rendering that, so `--stats` and
/// `--metrics` report from one source of truth.
fn print_stats(manager: &BddManager) {
    let m = Metrics::new();
    manager.record_metrics(&m);
    print!("{}", m.render_stats());
}

/// Default number of widest levels shown by `--heap` and `smc inspect`.
const HEAP_TOP_DEFAULT: usize = 5;

/// Renders the full heap observatory report for `--heap`: per-level
/// census, unique/computed table health, sharing, and the sifting-gain
/// estimate — the same deep scan `smc inspect` runs.
fn print_heap(manager: &BddManager) {
    print!("{}", manager.heap_snapshot(HEAP_TOP_DEFAULT).render_human());
}

/// Why a governed load did not produce a model.
enum LoadFailure {
    /// The budget tripped during the load-time reachability (totality)
    /// check.
    Exhausted(Phase, TripReason, PartialProgress),
    /// A parse/semantic/model error, already rendered through the
    /// diagnostics engine (stable code, source span, snippet). Printed
    /// to stderr verbatim; exit 2.
    Diagnostic(String),
    /// Anything else (I/O).
    Other(Box<dyn std::error::Error>),
}

/// Loads and compiles a model with the budget (if any) installed before
/// the compile-time totality check, so even load-time reachability runs
/// governed — a tight deadline stops a huge model during loading instead
/// of hanging before the budget ever applies. The telemetry handle is
/// installed on the model's BDD manager for the lifetime of the run.
fn load_governed(
    path: &str,
    budget: Option<Budget>,
    tele: Telemetry,
) -> Result<CompiledModel, LoadFailure> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| LoadFailure::Other(format!("cannot read {path:?}: {e}").into()))?;
    smc::smv::compile_with(&source, budget, tele).map_err(|e| match e {
        SmvError::Kripke(KripkeError::Exhausted { reason, progress }) => {
            LoadFailure::Exhausted(Phase::Reachability, reason, progress.into())
        }
        other => {
            let mut report = Report::new();
            report.push(smc::analysis::smv_diag(&other));
            LoadFailure::Diagnostic(report.render_human(path, &source))
        }
    })
}

fn load(path: &str) -> Result<CompiledModel, Box<dyn std::error::Error>> {
    match load_governed(path, None, Telemetry::disabled()) {
        Ok(compiled) => Ok(compiled),
        Err(LoadFailure::Exhausted(phase, reason, partial)) => {
            Err(CheckError::ResourceExhausted { phase, reason, partial }.into())
        }
        Err(LoadFailure::Diagnostic(text)) => Err(text.into()),
        Err(LoadFailure::Other(e)) => Err(e),
    }
}

/// Runs the analyzer for `--lint` on `check`/`spec`: a fresh read and a
/// fresh compile on its own BDD manager, so the checking run that
/// follows is bit-for-bit identical to a run without `--lint`. Findings
/// go to stderr; the caller's verdict and exit code are unaffected.
fn lint_to_stderr(path: &str, budget: Option<Budget>) {
    let Ok(source) = std::fs::read_to_string(path) else {
        return; // the real load reports the I/O problem
    };
    let opts = AnalysisOptions { budget, ..AnalysisOptions::full() };
    let report = analyze(&source, &opts);
    if !report.diagnostics.is_empty() || report.exhausted.is_some() {
        eprint!("{}", report.render_human(path, &source));
    }
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut json = false;
    let opts = parse_common(args, |args, i| match args[*i].as_str() {
        "--json" => {
            json = true;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    if opts.positionals.is_empty() {
        return Err("usage: smc lint [--json] [COMMON] FILE.smv...".into());
    }
    let session = TeleSession::new(&opts)?;
    // Multi-file: every file is analyzed; the exit code is the worst
    // outcome (3 exhausted > 2 errors > 1 warnings > 0 clean). JSON
    // mode collects one object per readable file and emits a single
    // array, so multi-file output stays one parseable document.
    let mut worst: i32 = 0;
    let mut json_reports = Vec::new();
    for file in &opts.positionals {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file:?}: {e}");
                worst = worst.max(2);
                continue;
            }
        };
        let aopts = AnalysisOptions {
            budget: opts.budget.to_budget(),
            telemetry: session.tele.clone(),
            ..AnalysisOptions::full()
        };
        let report = analyze(&source, &aopts);
        if json {
            json_reports.push(report.render_json(file, &source));
        } else {
            print!("{}", report.render_human(file, &source));
        }
        worst = worst.max(report.exit_code());
    }
    if json {
        println!("[{}]", json_reports.join(","));
    }
    session.finish();
    Ok(ExitCode::from(worst as u8))
}

fn cmd_check(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut trace = false;
    let mut lint = false;
    let mut coi = false;
    let mut heap = false;
    let mut strategy = CycleStrategy::Restart;
    let opts = parse_common(args, |args, i| {
        match args[*i].as_str() {
            "--trace" => trace = true,
            "--lint" => lint = true,
            "--coi" => coi = true,
            "--heap" => heap = true,
            "--strategy" => {
                *i += 1;
                match args.get(*i).map(String::as_str) {
                    Some("restart") => strategy = CycleStrategy::Restart,
                    Some("stayset") => strategy = CycleStrategy::StaySet,
                    other => {
                        return Err(format!(
                            "--strategy expects 'restart' or 'stayset', got {other:?}"
                        ))
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [file] = &opts.positionals[..] else {
        return Err("expected exactly one input file".into());
    };
    let session = TeleSession::new(&opts)?;
    if lint {
        lint_to_stderr(file, opts.budget.to_budget());
    }
    if coi {
        if let Some(code) = check_with_coi(file, &opts, &session, trace, heap, strategy)? {
            return Ok(code);
        }
    }
    let mut compiled = match load_governed(file, opts.budget.to_budget(), session.tele.clone()) {
        Ok(compiled) => compiled,
        Err(LoadFailure::Exhausted(phase, reason, partial)) => {
            session.finish();
            return Ok(report_exhausted(phase, &reason, &partial));
        }
        Err(LoadFailure::Diagnostic(text)) => {
            eprint!("{text}");
            session.finish();
            return Ok(ExitCode::from(2));
        }
        Err(LoadFailure::Other(e)) => return Err(e),
    };
    if compiled.specs.is_empty() {
        session.finish();
        println!("{file}: no SPEC sections");
        return Ok(ExitCode::SUCCESS);
    }
    let specs: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    // Run every check first (the checker borrows the model mutably),
    // then render with the decode tables. A budget trip stops the loop
    // but still renders the specs decided so far (and, with --stats,
    // the manager counters) before exiting 3.
    let mut results = Vec::with_capacity(specs.len());
    let mut exhausted: Option<(Phase, TripReason, PartialProgress)> = None;
    {
        let mut checker = Checker::new(&mut compiled.model).with_strategy(strategy);
        for (i, spec) in specs.iter().enumerate() {
            let outcome = if trace {
                checker.check_with_trace(spec).map(|o| (o.verdict.holds(), o.trace))
            } else {
                checker.check(spec).map(|v| (v.holds(), None))
            };
            match outcome {
                Ok(r) => results.push(r),
                Err(CheckError::ResourceExhausted { phase, reason, partial }) => {
                    eprintln!("SPEC {i}: not decided");
                    exhausted = Some((phase, reason, partial));
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    let mut all_hold = true;
    for (i, (verdict, trace)) in results.into_iter().enumerate() {
        all_hold &= verdict;
        println!("SPEC {i}: {}", if verdict { "holds" } else { "FAILS" });
        if let Some(trace) = trace {
            let kind = if verdict { "witness" } else { "counterexample" };
            println!(
                "-- {kind}: {} states{} --",
                trace.len(),
                trace
                    .loopback
                    .map(|_| format!(", cycle of {}", trace.cycle_len()))
                    .unwrap_or_default()
            );
            for (j, state) in trace.states.iter().enumerate() {
                if Some(j) == trace.loopback {
                    println!("-- loop starts here --");
                }
                println!("state {j}: {}", compiled.render_state(state));
            }
            if let Some(l) = trace.loopback {
                println!("-- loop back to state {l} --");
            }
        }
    }
    if opts.stats {
        print_stats(compiled.model.manager());
    }
    if heap {
        print_heap(compiled.model.manager());
    }
    session.record_model(&compiled.model);
    session.finish();
    if let Some((phase, reason, partial)) = exhausted {
        return Ok(report_exhausted(phase, &reason, &partial));
    }
    Ok(if all_hold { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Parses and flattens `path` quietly for `--coi` planning and
/// `smc deps`. `None` on any read/parse/flatten problem — `--coi`
/// callers then fall back to the ordinary loader, which owns the
/// diagnostics rendering.
fn coi_module_for(path: &str) -> Option<smc::smv::Module> {
    let source = std::fs::read_to_string(path).ok()?;
    let program = smc::smv::parse(&source).ok()?;
    smc::smv::flatten(&program).ok()
}

/// The `smc check --coi` fast path: plan per-spec cones, print one
/// report line per spec to stderr, and check each SPEC on its sliced
/// model (fallback specs share one full compile). The stdout verdict
/// lines are byte-identical to a run without `--coi`.
///
/// Returns `Ok(None)` when the run must fall back to the ordinary
/// full-model path: the model does not parse, there are no specs,
/// nothing slices, traces were requested (they render every variable),
/// or some compile fails.
fn check_with_coi(
    file: &str,
    opts: &CommonOptions,
    session: &TeleSession,
    trace: bool,
    heap: bool,
    strategy: CycleStrategy,
) -> Result<Option<ExitCode>, Box<dyn std::error::Error>> {
    use smc::smv::{compile_module_with_options, CompileOptions};

    let Some(module) = coi_module_for(file) else { return Ok(None) };
    let plan = smc::analysis::plan_coi(&module);
    for spec in &plan.specs {
        eprintln!("{}", spec.report);
    }
    if trace || plan.specs.is_empty() || !plan.any_sliced() {
        return Ok(None);
    }
    // Compile every model up front (sliced specs their slice, fallback
    // specs one shared full model), so any compile problem can still
    // fall back before the first verdict prints.
    let compile = |m: &smc::smv::Module| {
        compile_module_with_options(
            m,
            opts.budget.to_budget(),
            session.tele.clone(),
            CompileOptions::default(),
        )
    };
    let mut models: Vec<Option<CompiledModel>> = Vec::with_capacity(plan.specs.len());
    let mut full: Option<CompiledModel> = None;
    for spec in &plan.specs {
        match &spec.module {
            Some(sliced) => match compile(sliced) {
                Ok(c) if c.specs.len() == 1 => models.push(Some(c)),
                _ => return Ok(None),
            },
            None => {
                if full.is_none() {
                    match compile(&module) {
                        Ok(c) if c.specs.len() == plan.specs.len() => full = Some(c),
                        _ => return Ok(None),
                    }
                }
                models.push(None);
            }
        }
    }
    let mut all_hold = true;
    for (spec, slot) in plan.specs.iter().zip(models.iter_mut()) {
        let (compiled, spec_at) = match slot {
            Some(c) => (c, 0),
            None => (full.as_mut().expect("fallback model compiled"), spec.index),
        };
        let formula = compiled.specs[spec_at].formula.clone();
        let outcome = {
            let mut checker = Checker::new(&mut compiled.model).with_strategy(strategy);
            checker.check(&formula)
        };
        match outcome {
            Ok(v) => {
                all_hold &= v.holds();
                println!("SPEC {}: {}", spec.index, if v.holds() { "holds" } else { "FAILS" });
            }
            Err(CheckError::ResourceExhausted { phase, reason, partial }) => {
                eprintln!("SPEC {}: not decided", spec.index);
                if opts.stats {
                    print_stats(compiled.model.manager());
                }
                if heap {
                    print_heap(compiled.model.manager());
                }
                session.record_model(&compiled.model);
                session.finish();
                return Ok(Some(report_exhausted(phase, &reason, &partial)));
            }
            Err(e) => return Err(e.into()),
        }
    }
    // --stats, --heap and the metrics snapshot report the last manager
    // used — under COI every spec may run on its own manager.
    if let Some(c) = models.last().and_then(Option::as_ref).or(full.as_ref()) {
        if opts.stats {
            print_stats(c.model.manager());
        }
        if heap {
            print_heap(c.model.manager());
        }
        session.record_model(&c.model);
    }
    session.finish();
    Ok(Some(if all_hold { ExitCode::SUCCESS } else { ExitCode::from(1) }))
}

/// The `smc spec --coi` fast path: seed the cone from the formula's
/// atoms and check on the sliced model. `Ok(None)` falls back to the
/// ordinary path (unparseable formula or model, unresolvable atoms, no
/// sound slice, compile failure).
fn spec_with_coi(
    file: &str,
    formula: &str,
    opts: &CommonOptions,
    session: &TeleSession,
    heap: bool,
) -> Result<Option<ExitCode>, Box<dyn std::error::Error>> {
    use smc::smv::{compile_module_with_options, CompileOptions};

    let Ok(ctl) = smc::logic::ctl::parse(formula) else { return Ok(None) };
    let atoms: Vec<String> =
        smc::logic::atom_occurrences(&ctl).into_iter().map(|a| a.name).collect();
    let Some(module) = coi_module_for(file) else { return Ok(None) };
    let Some((sliced, report)) = smc::analysis::plan_adhoc_coi(&module, &atoms) else {
        return Ok(None);
    };
    eprintln!("{report}");
    let Ok(mut compiled) = compile_module_with_options(
        &sliced,
        opts.budget.to_budget(),
        session.tele.clone(),
        CompileOptions::default(),
    ) else {
        return Ok(None);
    };
    let outcome = {
        let mut checker = Checker::new(&mut compiled.model);
        checker.check(&ctl)
    };
    match outcome {
        Ok(v) => {
            println!("{ctl}: {}", if v.holds() { "holds" } else { "FAILS" });
            if opts.stats {
                print_stats(compiled.model.manager());
            }
            if heap {
                print_heap(compiled.model.manager());
            }
            session.record_model(&compiled.model);
            session.finish();
            Ok(Some(if v.holds() { ExitCode::SUCCESS } else { ExitCode::from(1) }))
        }
        Err(CheckError::ResourceExhausted { phase, reason, partial }) => {
            eprintln!("{ctl}: not decided");
            if opts.stats {
                print_stats(compiled.model.manager());
            }
            if heap {
                print_heap(compiled.model.manager());
            }
            session.record_model(&compiled.model);
            session.finish();
            Ok(Some(report_exhausted(phase, &reason, &partial)))
        }
        Err(e) => Err(e.into()),
    }
}

/// One line of `smc batch` output state: a job the engine ran, or a
/// manifest entry whose model file could not be read (reported in
/// place, in manifest order, without aborting the batch).
enum BatchLine {
    Ran(smc::engine::JobResult),
    Unreadable { name: String, message: String },
}

/// Renders per-spec verdict lines (and traces) exactly the way
/// `smc check` does, so a batch job's block is comparable line for
/// line with a serial run on the same model.
fn print_spec_results(specs: &[smc::engine::SpecResult]) {
    for (i, s) in specs.iter().enumerate() {
        println!("SPEC {i}: {}", if s.holds { "holds" } else { "FAILS" });
        if let Some(t) = &s.trace {
            let kind = if s.holds { "witness" } else { "counterexample" };
            let cycle = t
                .loopback
                .map(|l| format!(", cycle of {}", t.states.len() - l))
                .unwrap_or_default();
            println!("-- {kind}: {} states{cycle} --", t.states.len());
            for (j, state) in t.states.iter().enumerate() {
                if Some(j) == t.loopback {
                    println!("-- loop starts here --");
                }
                println!("state {j}: {state}");
            }
            if let Some(l) = t.loopback {
                println!("-- loop back to state {l} --");
            }
        }
    }
}

/// Minimal JSON string escaper for the batch report (the engine's wire
/// escaper, shared with the serve protocol).
use smc::engine::json_escape as json_esc;

/// Schema version of the `smc batch --json` report. v2 added the
/// per-job `trace_id` field (and the serve `dump` reference); v1
/// parsers that ignore unknown keys keep working — the compat test in
/// `tests/batch.rs` pins exactly that.
const BATCH_JSON_SCHEMA: u64 = 2;

fn cmd_batch(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use smc::engine::{run_batch, EngineConfig, Job, JobOutcome};

    let mut workers: usize = 1;
    let mut json = false;
    let mut trace = false;
    let mut coi = false;
    let mut no_cache = false;
    let mut heap = false;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_cap: usize = smc::engine::DEFAULT_CACHE_CAP;
    let mut strategy = CycleStrategy::Restart;
    let opts =
        parse_common(args, |args, i| {
            match args[*i].as_str() {
                "--heap" => heap = true,
                "--jobs" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--jobs expects a number")?;
                    workers =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive number, got {v:?}")
                        })?;
                }
                "--json" => json = true,
                "--trace" => trace = true,
                "--coi" => coi = true,
                "--no-cache" => no_cache = true,
                "--cache-dir" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--cache-dir expects a directory")?;
                    cache_dir = Some(std::path::PathBuf::from(v));
                }
                "--cache-cap" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--cache-cap expects a number")?;
                    cache_cap = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--cache-cap expects a positive number, got {v:?}")
                    })?;
                }
                "--strategy" => {
                    *i += 1;
                    match args.get(*i).map(String::as_str) {
                        Some("restart") => strategy = CycleStrategy::Restart,
                        Some("stayset") => strategy = CycleStrategy::StaySet,
                        other => {
                            return Err(format!(
                                "--strategy expects 'restart' or 'stayset', got {other:?}"
                            ))
                        }
                    }
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
    let [manifest_path] = &opts.positionals[..] else {
        return Err(
            "usage: smc batch [--jobs N] [--json] [--trace] [--no-cache] [COMMON] MANIFEST".into(),
        );
    };
    let session = TeleSession::new(&opts)?;
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
    }
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {manifest_path:?}: {e}"))?;
    let manifest = smc::engine::parse_manifest(&text)?;
    for w in &manifest.warnings {
        eprintln!("warning: manifest {w}");
    }
    let entries = manifest.entries;

    // Jobs whose model file reads cleanly go to the engine; unreadable
    // entries are reported in place with the exit-2 class.
    let mut lines: Vec<Option<BatchLine>> = (0..entries.len()).map(|_| None).collect();
    let mut jobs = Vec::new();
    let mut origins = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        match std::fs::read_to_string(&entry.path) {
            Ok(source) => {
                jobs.push(Job { name: entry.path.clone(), source, spec: entry.formula.clone() });
                origins.push(i);
            }
            Err(e) => {
                lines[i] = Some(BatchLine::Unreadable {
                    name: entry.path.clone(),
                    message: format!("cannot read {:?}: {e}", entry.path),
                });
            }
        }
    }

    let cfg = EngineConfig {
        workers,
        want_trace: trace,
        use_cache: !no_cache,
        timeout: opts.budget.timeout_secs.map(Duration::from_secs),
        node_limit: opts.budget.node_limit,
        max_iters: opts.budget.max_iters,
        coi,
        cancel: None,
        strategy,
        metrics: session.metrics.clone(),
        cache_dir,
        cache_cap,
        recorder_cap: 0,
        heap,
    };
    let results = run_batch(jobs, &cfg);
    for result in results {
        let slot = origins[result.index];
        lines[slot] = Some(BatchLine::Ran(result));
    }

    // Tally and exit class over every manifest entry.
    let mut worst: u8 = 0;
    let (mut pass, mut fail, mut errors, mut exhausted, mut hits) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for line in lines.iter().flatten() {
        let class = match line {
            BatchLine::Unreadable { .. } => 2,
            BatchLine::Ran(r) => {
                hits += u64::from(r.cache_hit);
                r.outcome.exit_class()
            }
        };
        worst = worst.max(class);
        match class {
            0 => pass += 1,
            1 => fail += 1,
            3 => exhausted += 1,
            _ => errors += 1,
        }
    }

    if json {
        let mut out = format!("{{\"schema\":{BATCH_JSON_SCHEMA},\"jobs\":[");
        for (i, line) in lines.iter().flatten().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match line {
                BatchLine::Unreadable { name, message } => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"outcome\":\"input_error\",\"exit_class\":2,\"error\":\"{}\"}}",
                    json_esc(name),
                    json_esc(message)
                )),
                BatchLine::Ran(r) => {
                    out.push('{');
                    out.push_str(&smc::engine::job_json_fields(r));
                    out.push('}');
                }
            }
        }
        out.push_str(&format!(
            "],\"summary\":{{\"jobs\":{},\"pass\":{pass},\"fail\":{fail},\"errors\":{errors},\"exhausted\":{exhausted},\"cache_hits\":{hits},\"exit\":{worst}}}}}",
            entries.len()
        ));
        println!("{out}");
    } else {
        for line in lines.iter().flatten() {
            match line {
                BatchLine::Unreadable { name, message } => {
                    println!("== {name} ==");
                    eprintln!("error: {message}");
                }
                BatchLine::Ran(r) => {
                    println!("== {} ==", r.name);
                    match &r.outcome {
                        JobOutcome::NoSpecs => println!("no SPEC sections"),
                        JobOutcome::InputError { message } => eprintln!("error: {message}"),
                        JobOutcome::Checked { specs } => print_spec_results(specs),
                        JobOutcome::Exhausted { phase, reason, decided } => {
                            print_spec_results(decided);
                            println!("SPEC {}: not decided", decided.len());
                            eprintln!("resource budget exhausted during {phase}: {reason}");
                        }
                    }
                    if let Some(h) = &r.heap {
                        println!(
                            "heap: {} live nodes, widest level {} ({} nodes)",
                            h.live_nodes, h.widest_level, h.widest_width
                        );
                    }
                }
            }
        }
        println!(
            "batch: {} jobs, {pass} passed, {fail} failed, {errors} errors, {exhausted} exhausted, {hits} cache hits",
            entries.len()
        );
    }
    session.finish();
    Ok(ExitCode::from(worst))
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use smc::engine::{
        serve, serve_tcp, spawn_metrics_endpoint, EngineConfig, ServerConfig, StatusBoard,
    };

    fn secs(name: &str, v: Option<&String>) -> Result<Duration, String> {
        let v = v.ok_or_else(|| format!("{name} expects seconds"))?;
        v.parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .map(Duration::from_secs_f64)
            .ok_or_else(|| format!("{name} expects positive seconds, got {v:?}"))
    }

    let mut workers: usize = 1;
    let mut listen: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut max_queue: usize = 64;
    let mut quarantine_after: u32 = 3;
    let mut watchdog: Option<Duration> = None;
    let mut drain_timeout: Option<Duration> = None;
    let mut retry_after_ms: u64 = 250;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_cap: usize = smc::engine::DEFAULT_CACHE_CAP;
    let mut dump_dir: Option<std::path::PathBuf> = None;
    let mut dump_cap: usize = smc::engine::DEFAULT_DUMP_CAP;
    let mut recorder_cap: usize = 0;
    let mut trace = false;
    let mut coi = false;
    let mut no_cache = false;
    let mut strategy = CycleStrategy::Restart;
    let opts =
        parse_common(args, |args, i| {
            match args[*i].as_str() {
                "--jobs" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--jobs expects a number")?;
                    workers =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive number, got {v:?}")
                        })?;
                }
                "--listen" => {
                    *i += 1;
                    listen = Some(args.get(*i).ok_or("--listen expects an address")?.clone());
                }
                "--metrics-addr" => {
                    *i += 1;
                    metrics_addr =
                        Some(args.get(*i).ok_or("--metrics-addr expects an address")?.clone());
                }
                "--max-queue" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--max-queue expects a number")?;
                    max_queue = v
                        .parse::<usize>()
                        .map_err(|_| format!("--max-queue expects a number, got {v:?}"))?;
                }
                "--quarantine-after" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--quarantine-after expects a number")?;
                    quarantine_after = v
                        .parse::<u32>()
                        .map_err(|_| format!("--quarantine-after expects a number, got {v:?}"))?;
                }
                "--watchdog" => {
                    *i += 1;
                    watchdog = Some(secs("--watchdog", args.get(*i))?);
                }
                "--drain-timeout" => {
                    *i += 1;
                    drain_timeout = Some(secs("--drain-timeout", args.get(*i))?);
                }
                "--retry-after-ms" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--retry-after-ms expects a number")?;
                    retry_after_ms = v
                        .parse::<u64>()
                        .map_err(|_| format!("--retry-after-ms expects a number, got {v:?}"))?;
                }
                "--cache-dir" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--cache-dir expects a directory")?;
                    cache_dir = Some(std::path::PathBuf::from(v));
                }
                "--cache-cap" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--cache-cap expects a number")?;
                    cache_cap = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--cache-cap expects a positive number, got {v:?}")
                    })?;
                }
                "--dump-dir" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--dump-dir expects a directory")?;
                    dump_dir = Some(std::path::PathBuf::from(v));
                }
                "--dump-cap" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--dump-cap expects a number")?;
                    dump_cap = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--dump-cap expects a positive number, got {v:?}")
                    })?;
                }
                "--recorder-cap" => {
                    *i += 1;
                    let v = args.get(*i).ok_or("--recorder-cap expects a number")?;
                    recorder_cap =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--recorder-cap expects a positive number, got {v:?}")
                        })?;
                }
                "--trace" => trace = true,
                "--coi" => coi = true,
                "--no-cache" => no_cache = true,
                "--strategy" => {
                    *i += 1;
                    match args.get(*i).map(String::as_str) {
                        Some("restart") => strategy = CycleStrategy::Restart,
                        Some("stayset") => strategy = CycleStrategy::StaySet,
                        other => {
                            return Err(format!(
                                "--strategy expects 'restart' or 'stayset', got {other:?}"
                            ))
                        }
                    }
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
    if !opts.positionals.is_empty() {
        return Err(format!(
            "smc serve takes no positional arguments, got {:?} (requests arrive as NDJSON on stdin or --listen)",
            opts.positionals[0]
        )
        .into());
    }
    let session = TeleSession::new(&opts)?;
    // The service always runs a live registry: {"op":"metrics"} and
    // --metrics-addr must see real numbers whether or not the final
    // --metrics exposition was requested.
    let metrics = if session.metrics.enabled() { session.metrics.clone() } else { Metrics::new() };
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
    }
    let engine = EngineConfig {
        workers,
        want_trace: trace,
        use_cache: !no_cache,
        timeout: opts.budget.timeout_secs.map(Duration::from_secs),
        node_limit: opts.budget.node_limit,
        max_iters: opts.budget.max_iters,
        coi,
        cancel: None,
        strategy,
        metrics: metrics.clone(),
        cache_dir,
        cache_cap,
        recorder_cap,
        heap: false,
    };
    // One introspection surface shared by {"op":"status"} and the HTTP
    // /status route of the metrics endpoint.
    let status = StatusBoard::new();
    let cfg = ServerConfig {
        engine,
        max_queue,
        quarantine_after,
        watchdog,
        drain_timeout,
        retry_after_ms,
        dump_dir,
        dump_cap,
        status: Some(status.clone()),
    };
    if let Some(addr) = &metrics_addr {
        let bound = spawn_metrics_endpoint(addr, metrics.clone(), Some(status))
            .map_err(|e| format!("cannot bind metrics endpoint {addr:?}: {e}"))?;
        // stdout is the protocol channel; operator chatter goes to stderr.
        eprintln!("smc serve: metrics endpoint on http://{bound}/ (status at /status)");
    }
    let worst = match &listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
            eprintln!("smc serve: listening on {}", listener.local_addr()?);
            serve_tcp(listener, &cfg)?
        }
        None => {
            let out: smc::engine::Responder =
                std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
            serve(std::io::stdin().lock(), out, &cfg)
        }
    };
    session.finish();
    Ok(ExitCode::from(worst))
}

fn cmd_spec(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut lint = false;
    let mut coi = false;
    let mut heap = false;
    let opts = parse_common(args, |args, i| match args[*i].as_str() {
        "--lint" => {
            lint = true;
            Ok(true)
        }
        "--coi" => {
            coi = true;
            Ok(true)
        }
        "--heap" => {
            heap = true;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let [file, formula] = &opts.positionals[..] else {
        return Err("usage: smc spec [--lint] [--coi] [--heap] [COMMON] FILE.smv FORMULA".into());
    };
    let session = TeleSession::new(&opts)?;
    if lint {
        lint_to_stderr(file, opts.budget.to_budget());
    }
    if coi {
        if let Some(code) = spec_with_coi(file, formula, &opts, &session, heap)? {
            return Ok(code);
        }
    }
    let mut compiled = match load_governed(file, opts.budget.to_budget(), session.tele.clone()) {
        Ok(compiled) => compiled,
        Err(LoadFailure::Exhausted(phase, reason, partial)) => {
            eprintln!("{formula}: not decided");
            session.finish();
            return Ok(report_exhausted(phase, &reason, &partial));
        }
        Err(LoadFailure::Diagnostic(text)) => {
            eprint!("{text}");
            session.finish();
            return Ok(ExitCode::from(2));
        }
        Err(LoadFailure::Other(e)) => return Err(e),
    };
    let spec = smc::logic::ctl::parse(formula)?;
    let mut checker = Checker::new(&mut compiled.model);
    let verdict = match checker.check(&spec) {
        Ok(v) => Ok(v),
        Err(CheckError::ResourceExhausted { phase, reason, partial }) => {
            eprintln!("{spec}: not decided");
            if opts.stats {
                print_stats(checker.model().manager());
            }
            if heap {
                print_heap(checker.model().manager());
            }
            session.record_model(checker.model());
            session.finish();
            return Ok(report_exhausted(phase, &reason, &partial));
        }
        Err(e) => Err(e),
    }?;
    println!("{spec}: {}", if verdict.holds() { "holds" } else { "FAILS" });
    if opts.stats {
        print_stats(compiled.model.manager());
    }
    if heap {
        print_heap(compiled.model.manager());
    }
    session.record_model(&compiled.model);
    session.finish();
    Ok(if verdict.holds() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_dot(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let [file, what] = args else {
        return Err("usage: smc dot FILE.smv (init|trans|reach)".into());
    };
    let mut compiled = load(file)?;
    let bdd = match what.as_str() {
        "init" => compiled.model.init(),
        "trans" => compiled.model.trans(),
        "reach" => compiled.model.reachable()?,
        other => return Err(format!("unknown BDD {other:?} (init|trans|reach)").into()),
    };
    print!("{}", compiled.model.manager().to_dot(&[bdd]));
    Ok(ExitCode::SUCCESS)
}

fn cmd_deps(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: smc deps [--dot] FILE.smv";
    let mut dot = false;
    let mut file: Option<&String> = None;
    for arg in args {
        match arg.as_str() {
            "--dot" => dot = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{USAGE}").into())
            }
            _ => {
                if file.replace(arg).is_some() {
                    return Err(USAGE.into());
                }
            }
        }
    }
    let file = file.ok_or(USAGE)?;
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
    let module = match smc::smv::parse(&source).and_then(|p| smc::smv::flatten(&p)) {
        Ok(m) => m,
        Err(e) => {
            let mut report = Report::new();
            report.push(smc::analysis::smv_diag(&e));
            eprint!("{}", report.render_human(file, &source));
            return Ok(ExitCode::from(2));
        }
    };
    let graph = smc::analysis::DepGraph::build(&module);
    if dot {
        print!("{}", graph.to_dot());
        return Ok(ExitCode::SUCCESS);
    }
    let join = |set: &std::collections::BTreeSet<String>| -> String {
        if set.is_empty() {
            "(none)".to_string()
        } else {
            set.iter().cloned().collect::<Vec<_>>().join(" ")
        }
    };
    println!("file      : {file}");
    println!("variables : {}", graph.vars.len());
    println!("edges     : {}", graph.edge_count());
    println!("deps:");
    for v in &graph.vars {
        let reads = graph.deps.get(v).map(join).unwrap_or_else(|| "(none)".to_string());
        println!("  {v} <- {reads}");
    }
    let sccs = graph.sccs();
    println!("sccs (reverse topological):");
    for (i, scc) in sccs.iter().enumerate() {
        println!("  {i}: {}", scc.join(" "));
    }
    println!("fairness support: {}", join(&graph.fairness_support));
    println!("spec cones (fairness included):");
    if graph.spec_support.is_empty() {
        println!("  (no SPEC sections)");
    }
    for (i, support) in graph.spec_support.iter().enumerate() {
        let cone = graph.cone(support.union(&graph.fairness_support));
        println!("  spec {i}: {}/{} — {}", cone.len(), graph.vars.len(), join(&cone));
    }
    let consts = smc::analysis::frozen_constants(&module);
    println!("frozen constants:");
    if consts.is_empty() {
        println!("  (none)");
    }
    for (v, c) in &consts {
        println!("  {v} = {c}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_reach(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = parse_common(args, |_, _| Ok(false))?;
    let [file] = &opts.positionals[..] else {
        return Err("usage: smc reach [COMMON] FILE.smv".into());
    };
    let session = TeleSession::new(&opts)?;
    let mut compiled = match load_governed(file, opts.budget.to_budget(), session.tele.clone()) {
        Ok(compiled) => compiled,
        Err(LoadFailure::Exhausted(phase, reason, partial)) => {
            session.finish();
            return Ok(report_exhausted(phase, &reason, &partial));
        }
        Err(LoadFailure::Diagnostic(text)) => {
            eprint!("{text}");
            session.finish();
            return Ok(ExitCode::from(2));
        }
        Err(LoadFailure::Other(e)) => return Err(e),
    };
    println!("file            : {file}");
    println!("variables       : {}", compiled.var_names().join(" "));
    println!("state bits      : {}", compiled.model.num_state_vars());
    println!("fairness        : {}", compiled.model.fairness().len());
    match compiled.model.reachable_count() {
        Ok(count) => println!("reachable states: {count}"),
        Err(e) => match CheckError::from(e) {
            CheckError::ResourceExhausted { phase, reason, partial } => {
                if opts.stats {
                    print_stats(compiled.model.manager());
                }
                session.record_model(&compiled.model);
                session.finish();
                return Ok(report_exhausted(phase, &reason, &partial));
            }
            other => return Err(other.into()),
        },
    }
    let init = compiled.model.init();
    if let Some(s0) = compiled.model.pick_state(init) {
        println!("an initial state: {}", compiled.render_state(&s0));
    }
    if opts.stats {
        print_stats(compiled.model.manager());
    }
    session.record_model(&compiled.model);
    session.finish();
    Ok(ExitCode::SUCCESS)
}

fn cmd_inspect(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: smc inspect [--spec N] [--json] [--top K] \
                         [--at compile|reach|check] [COMMON] FILE.smv";
    let mut json = false;
    let mut top: usize = HEAP_TOP_DEFAULT;
    let mut at: Option<String> = None;
    let mut spec_index: Option<usize> = None;
    let opts = parse_common(args, |args, i| {
        match args[*i].as_str() {
            "--json" => json = true,
            "--top" => {
                *i += 1;
                let v = args.get(*i).ok_or("--top expects a number")?;
                top = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--top expects a positive number, got {v:?}"))?;
            }
            "--at" => {
                *i += 1;
                match args.get(*i).map(String::as_str) {
                    Some(point @ ("compile" | "reach" | "check")) => at = Some(point.to_string()),
                    other => {
                        return Err(format!(
                            "--at expects 'compile', 'reach' or 'check', got {other:?}"
                        ))
                    }
                }
            }
            "--spec" => {
                *i += 1;
                let v = args.get(*i).ok_or("--spec expects a spec index")?;
                spec_index = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--spec expects a spec index, got {v:?}"))?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // --spec only makes sense once checking has run; it selects the
    // point (after that one spec) the snapshot is taken at.
    let at = at.unwrap_or_else(|| {
        if spec_index.is_some() {
            "check".to_string()
        } else {
            "reach".to_string()
        }
    });
    if spec_index.is_some() && at != "check" {
        return Err(format!("--spec requires --at check (got --at {at})").into());
    }
    let [file] = &opts.positionals[..] else {
        return Err(USAGE.into());
    };
    let session = TeleSession::new(&opts)?;
    let mut compiled = match load_governed(file, opts.budget.to_budget(), session.tele.clone()) {
        Ok(compiled) => compiled,
        Err(LoadFailure::Exhausted(phase, reason, partial)) => {
            session.finish();
            return Ok(report_exhausted(phase, &reason, &partial));
        }
        Err(LoadFailure::Diagnostic(text)) => {
            eprint!("{text}");
            session.finish();
            return Ok(ExitCode::from(2));
        }
        Err(LoadFailure::Other(e)) => return Err(e),
    };
    // Drive the manager to the requested point. A budget trip does NOT
    // suppress the report: the heap at trip time is exactly what an
    // inspection is for — the snapshot prints, then the exit-3 path.
    let mut exhausted: Option<(Phase, TripReason, PartialProgress)> = None;
    if at != "compile" {
        if let Err(e) = compiled.model.reachable() {
            match CheckError::from(e) {
                CheckError::ResourceExhausted { phase, reason, partial } => {
                    exhausted = Some((phase, reason, partial));
                }
                other => return Err(other.into()),
            }
        }
    }
    if at == "check" && exhausted.is_none() {
        let formulas: Vec<_> = match spec_index {
            Some(n) => {
                let spec = compiled.specs.get(n).ok_or_else(|| {
                    format!(
                        "--spec {n} is out of range: {file} has {} SPEC section(s)",
                        compiled.specs.len()
                    )
                })?;
                vec![spec.formula.clone()]
            }
            None => compiled.specs.iter().map(|s| s.formula.clone()).collect(),
        };
        let mut checker = Checker::new(&mut compiled.model);
        for formula in &formulas {
            match checker.check(formula) {
                Ok(_) => {}
                Err(CheckError::ResourceExhausted { phase, reason, partial }) => {
                    exhausted = Some((phase, reason, partial));
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    let snapshot = compiled.model.manager().heap_snapshot(top);
    if json {
        println!("{}", snapshot.to_json());
    } else {
        println!("file            : {file}");
        println!("inspected at    : {at}");
        print!("{}", snapshot.render_human());
    }
    session.record_model(&compiled.model);
    session.finish();
    if let Some((phase, reason, partial)) = exhausted {
        return Ok(report_exhausted(phase, &reason, &partial));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: smc profile report FILE.jsonl [--json] [--top N]\n\
                         \x20      smc profile export FILE.jsonl (--chrome|--speedscope) [--out FILE]";
    let Some(action) = args.first() else { return Err(USAGE.into()) };
    match action.as_str() {
        "report" => {
            let mut json = false;
            let mut top: Option<usize> = None;
            let mut file: Option<&String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--json" => json = true,
                    "--top" => {
                        i += 1;
                        let v = args.get(i).ok_or("--top expects a number")?;
                        top = Some(
                            v.parse().map_err(|_| format!("--top expects a number, got {v:?}"))?,
                        );
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag {flag:?}\n{USAGE}").into())
                    }
                    _ => {
                        if file.replace(&args[i]).is_some() {
                            return Err(USAGE.into());
                        }
                    }
                }
                i += 1;
            }
            let file = file.ok_or(USAGE)?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
            let report =
                report_from_jsonl_with(&text, json, top).map_err(|e| format!("{file}: {e}"))?;
            print!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        "export" => {
            let mut format: Option<&str> = None;
            let mut out_path: Option<&String> = None;
            let mut file: Option<&String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--chrome" => format = Some("chrome"),
                    "--speedscope" => format = Some("speedscope"),
                    "--out" => {
                        i += 1;
                        out_path = Some(args.get(i).ok_or("--out expects a file name")?);
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag {flag:?}\n{USAGE}").into())
                    }
                    _ => {
                        if file.replace(&args[i]).is_some() {
                            return Err(USAGE.into());
                        }
                    }
                }
                i += 1;
            }
            let file = file.ok_or(USAGE)?;
            let format = format.ok_or("export needs --chrome or --speedscope")?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
            let rendered =
                if format == "chrome" { export_chrome(&text) } else { export_speedscope(&text) }
                    .map_err(|e| format!("{file}: {e}"))?;
            match out_path {
                Some(path) => {
                    std::fs::write(path, rendered)
                        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                    eprintln!("wrote {path} ({format} format)");
                }
                None => print!("{rendered}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        other => {
            Err(format!("unknown profile action {other:?} (expected 'report' or 'export')").into())
        }
    }
}

fn cmd_debug(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: smc debug dump (FILE.dump.jsonl | -)";
    let Some(action) = args.first() else { return Err(USAGE.into()) };
    match action.as_str() {
        "dump" => {
            let mut file: Option<&String> = None;
            for arg in &args[1..] {
                if arg.starts_with("--") {
                    return Err(format!("unknown flag {arg:?}\n{USAGE}").into());
                }
                if file.replace(arg).is_some() {
                    return Err(USAGE.into());
                }
            }
            let file = file.ok_or(USAGE)?;
            // `-` reads the dump from stdin — the natural shape when the
            // dump path comes out of a serve response pipeline.
            let text = if file == "-" {
                use std::io::Read;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?
            };
            let mut lines = text.lines().filter(|l| !l.trim().is_empty());
            // A missing or mangled header (truncated write, wrong file)
            // gets a rendered multi-line diagnostic, not a bare error:
            // show what the first line actually was and what a dump
            // starts with, then exit with the input-error class.
            let header = match lines.next() {
                None => {
                    eprintln!("error: {file}: empty dump");
                    eprintln!("  = a flight-recorder dump starts with a {{\"dump_schema\":...}} header line");
                    eprintln!(
                        "  = was the file truncated at write time, or is it still being written?"
                    );
                    return Ok(ExitCode::from(2));
                }
                Some(first) => {
                    match Json::parse(first).filter(|h| h.get("dump_schema").is_some()) {
                        Some(header) => header,
                        None => {
                            let shown: String = first.chars().take(80).collect();
                            let ellipsis = if first.chars().count() > 80 { "…" } else { "" };
                            eprintln!("error: {file}: first line is not a dump header");
                            eprintln!("  | {shown}{ellipsis}");
                            eprintln!("  = a flight-recorder dump starts with a {{\"dump_schema\":...}} header line");
                            eprintln!("  = expected a .dump.jsonl written by `smc serve --dump-dir` (was the header line truncated?)");
                            return Ok(ExitCode::from(2));
                        }
                    }
                }
            };
            let str_of =
                |key: &str| header.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
            let num_of = |key: &str| header.get(key).and_then(Json::as_u64).unwrap_or(0);
            println!("dump_schema : {}", num_of("dump_schema"));
            println!("trace_id    : {}", str_of("trace_id"));
            println!("job         : {}", str_of("job"));
            println!("worker      : {}", num_of("worker"));
            println!("reason      : {}", str_of("reason"));
            println!(
                "events      : {} kept, {} overwritten, {} captured in all",
                num_of("events"),
                num_of("dropped"),
                num_of("captured")
            );
            // The header's last heap brief survives ring overwrites, so
            // it is often the only structural signal in a short ring.
            if let Some(heap) = header.get("heap") {
                let h = |key: &str| heap.get(key).and_then(Json::as_u64).unwrap_or(0);
                println!(
                    "heap        : {} live nodes ({} free), widest level {} ({} nodes), unique tables {}/{}",
                    h("live_nodes"),
                    h("free_nodes"),
                    h("widest_level"),
                    h("widest_width"),
                    h("table_len"),
                    h("table_slots")
                );
            }
            println!();
            let mut shown = 0u64;
            let mut skipped = 0u64;
            for line in lines {
                match Event::from_json_line(line) {
                    Some((ctx, event)) => {
                        println!("{:>8} {:>10}us  {}", ctx.seq, ctx.t_us, debug_event_line(&event));
                        shown += 1;
                    }
                    None => skipped += 1,
                }
            }
            if skipped > 0 {
                eprintln!("note: {skipped} line(s) did not parse as schema-v1 events");
            }
            if shown == 0 {
                eprintln!("note: dump holds no events (ring was empty at the trip)");
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown debug action {other:?} (expected 'dump')").into()),
    }
}

/// One human-oriented line per recorded event for `smc debug dump`.
fn debug_event_line(event: &Event) -> String {
    match event {
        Event::SpanStart { kind, label, .. } => match label {
            Some(l) => format!("span_start {} ({l})", kind.name()),
            None => format!("span_start {}", kind.name()),
        },
        Event::SpanEnd { kind, wall_us, live_nodes, .. } => {
            format!("span_end   {} wall {wall_us}us, {live_nodes} live nodes", kind.name())
        }
        Event::FixpointIter { phase, iteration, frontier_size, .. } => {
            format!("fixpoint   {} iter {iteration}, frontier {frontier_size}", phase.name())
        }
        Event::WitnessHop { constraint, ring } => {
            format!("witness    hop to constraint {constraint} (ring {ring})")
        }
        Event::CycleClose { closed, arc_len } => {
            format!("witness    cycle close: closed={closed}, arc {arc_len}")
        }
        Event::Restart { count, stay_exit, .. } => {
            format!("witness    restart {count} (stay_exit={stay_exit})")
        }
        Event::Gc { reclaimed, live_after, pause_us, .. } => {
            format!("gc         reclaimed {reclaimed}, {live_after} live, {pause_us}us pause")
        }
        Event::Ladder { stage } => format!("ladder     escalated to {stage}"),
        Event::Trip { reason } => format!("trip       {reason}"),
        Event::Diagnostic { code, severity } => format!("diagnostic {severity} {code}"),
        Event::HeapSample { live_nodes, widest_level, widest_width, .. } => format!(
            "heap       {live_nodes} live, widest level {widest_level} ({widest_width} nodes)"
        ),
    }
}

/// The short commit hash `smc bench` stamps into ledger records:
/// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut config = BenchConfig::default();
    let mut baseline_path: Option<String> = None;
    let mut update = false;
    let mut no_gate = false;
    let mut tolerance = 10.0f64;
    let mut commit: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} expects a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => baseline_path = Some(value(args, &mut i, "--baseline")?),
            "--update" => update = true,
            "--no-gate" => no_gate = true,
            "--telemetry" => config.telemetry = true,
            "--recorder" => config.recorder = true,
            "--heap" => config.heap = true,
            "--reps" => {
                let v = value(args, &mut i, "--reps")?;
                config.repetitions =
                    v.parse().map_err(|_| format!("--reps expects a number, got {v:?}"))?;
            }
            "--tolerance" => {
                let v = value(args, &mut i, "--tolerance")?;
                tolerance =
                    v.parse().map_err(|_| format!("--tolerance expects a percent, got {v:?}"))?;
            }
            "--families" => {
                let v = value(args, &mut i, "--families")?;
                config.families = v.split(',').map(str::to_string).collect();
            }
            "--inject-slowdown" => {
                let v = value(args, &mut i, "--inject-slowdown")?;
                config.inject_slowdown_pct = v
                    .parse()
                    .map_err(|_| format!("--inject-slowdown expects a percent, got {v:?}"))?;
            }
            "--commit" => commit = Some(value(args, &mut i, "--commit")?),
            other => return Err(format!("unknown bench flag {other:?}").into()),
        }
        i += 1;
    }
    if update && no_gate {
        return Err("--update and --no-gate are mutually exclusive".into());
    }
    if update && baseline_path.is_none() {
        return Err("--update needs --baseline FILE to know where to write".into());
    }

    let families = observatory::run(&config)?;
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let run = RunRecord {
        commit: commit.unwrap_or_else(current_commit),
        unix_ms,
        repetitions: config.repetitions.max(1),
        telemetry: config.telemetry,
        families,
    };

    println!(
        "-- bench observatory: {} repetitions, telemetry {}, recorder {} --",
        run.repetitions,
        if run.telemetry { "enabled" } else { "disabled" },
        if config.recorder { "enabled" } else { "disabled" }
    );
    for fam in &run.families {
        let phases = fam
            .phases
            .iter()
            .map(|p| format!("{} best {:.6}s median {:.6}s", p.phase, p.best_s, p.median_s))
            .collect::<Vec<_>>()
            .join(", ");
        println!("{:<9}: {phases}", fam.name);
        let counters =
            fam.counters.iter().map(|(n, v)| format!("{n} {v}")).collect::<Vec<_>>().join(", ");
        println!("{:<9}  counters: {counters}", "");
        if let Some(tp) = fam.throughput_jobs_per_s {
            println!("{:<9}  throughput: {tp:.1} jobs/s", "");
        }
    }

    let Some(path) = baseline_path else {
        println!("no --baseline: nothing gated, nothing recorded");
        return Ok(ExitCode::SUCCESS);
    };
    if no_gate {
        println!("--no-gate: baseline {path} left untouched");
        return Ok(ExitCode::SUCCESS);
    }

    let mut ledger = match std::fs::read_to_string(&path) {
        // --update replaces whatever is there, including the pre-ledger
        // kernel-bench format (that is how old files are migrated);
        // gated runs refuse to guess and ask for a deliberate --update.
        Ok(text) => match Ledger::from_json(&text) {
            Ok(ledger) => ledger,
            Err(e) if update => {
                eprintln!("note: replacing {path} ({e})");
                Ledger::new()
            }
            Err(e) => return Err(format!("{path}: {e}").into()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && update => Ledger::new(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(format!("no baseline {path} (create it with smc bench --update)").into())
        }
        Err(e) => return Err(format!("cannot read {path}: {e}").into()),
    };

    if update {
        ledger.baseline = Some(run.clone());
        ledger.push_history(run);
        std::fs::write(&path, ledger.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("baseline {path} updated (history: {} runs)", ledger.history.len());
        return Ok(ExitCode::SUCCESS);
    }

    let regressions = ledger.compare(&run, tolerance);
    if regressions.is_empty() {
        ledger.push_history(run);
        std::fs::write(&path, ledger.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "OK: within {tolerance}% of baseline {path}; run appended to history ({} total)",
            ledger.history.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressions {
            eprintln!("REGRESSION {}: {}", r.what, r.detail);
        }
        eprintln!("FAIL: {} regression(s) beyond {tolerance}% vs {path}", regressions.len());
        Ok(ExitCode::from(1))
    }
}
