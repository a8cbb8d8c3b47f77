//! `smc` — command-line front end for the symbolic model checker.
//!
//! ```text
//! smc check  [--trace] [--lint] [--strategy restart|stayset] [COMMON] FILE.smv
//! smc batch  [--jobs N] [--json] [--no-cache] [COMMON] MANIFEST
//! smc serve  [--jobs N] [--listen ADDR] [--metrics-addr ADDR] ...  NDJSON service
//! smc spec   [--lint] [COMMON] FILE.smv FORMULA   check one ad-hoc CTL formula
//! smc lint   [--json] [COMMON] FILE.smv...        static + symbolic analysis
//! smc deps   [--dot] FILE.smv                     variable dependency graph
//! smc reach  [COMMON] FILE.smv                    reachability statistics
//! smc inspect [--spec N] [--json] [--top K] [--at reach|check]
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
use smc::bench::observatory::{self, BenchConfig};
use smc::checker::{CheckError, CycleStrategy, PartialProgress, Phase, TripReason};
use smc::engine::{check_formulas, EngineConfig, Limits, SpecResult};
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
    smc check  [--trace] [--lint] [--heap]
               [--strategy restart|stayset] [COMMON] FILE.smv
    smc batch  [--jobs N] [--json] [--trace] [--heap] [--no-cache]
               [--cache-dir DIR] [--cache-cap N] [COMMON] MANIFEST
    smc serve  [--jobs N] [--listen ADDR] [--metrics-addr ADDR]
               [--max-queue N] [--quarantine-after N] [--watchdog SECS]
               [--drain-timeout SECS] [--retry-after-ms N] [--cache-dir DIR]
               [--cache-cap N] [--dump-dir DIR] [--dump-cap N]
               [--recorder-cap N] [--trace] [--no-cache] [COMMON]
    smc spec   [--lint] [--heap] [COMMON] FILE.smv FORMULA
    smc lint   [--json] [COMMON] FILE.smv...
    smc deps   [--dot] FILE.smv
    smc reach  [COMMON] FILE.smv
    smc inspect [--spec N] [--json] [--top K] [--at reach|check]
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
             first and print its findings to stderr
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
             checksum-verified loads, --cache-cap LRU entries)
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
             variables or spec labels); --lint as for check
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
             point (--at reach [default] or check — --spec N checks
             just that SPEC first) and print a structural report
             of the manager's heap: per-level node census with unique-
             table load and probe health, the --top K widest levels,
             computed-table occupancy by operation, dead-node ratio,
             sharing factor, and a read-only sifting-gain estimate per
             adjacent level pair; --json emits the schema-versioned
             snapshot document instead. The same report rides `check`,
             `spec` and `batch` as --heap
    dot      write the requested BDD as Graphviz DOT to stdout
    bench    run the benchmark observatory (families: mutex, arbiter2,
             seitz, seitz_smv, ring9, batch; phases: compile,
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

/// Parses the value after a numeric flag: `--max-iters 5`.
fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a number"))?;
    v.parse().map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

/// Parses the value after a flag that takes a count of at least one:
/// `--jobs 2`.
fn positive(flag: &str, v: Option<&String>) -> Result<usize, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a number"))?;
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} expects a positive number, got {v:?}"))
}

/// Options shared by the commands that load a model, `batch` and
/// `serve`: the budget flags, `--stats`, and the telemetry flags, plus
/// the collected positional arguments. One parser instead of a copy per
/// command.
#[derive(Debug, Default)]
struct CommonOptions {
    /// `--timeout`, `--node-limit`, `--max-iters`: the run's budget, or
    /// each batch job's and the caps of each serve request.
    limits: Limits,
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
/// token).
fn parse_common(
    args: &[String],
    mut extra: impl FnMut(&[String], &mut usize) -> Result<bool, String>,
) -> Result<CommonOptions, String> {
    let mut o = CommonOptions::default();
    let mut i = 0;
    while i < args.len() {
        if extra(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--timeout" => {
                i += 1;
                o.limits.timeout = Some(Duration::from_secs(number("--timeout", args.get(i))?));
            }
            "--node-limit" => {
                i += 1;
                o.limits.node_limit = Some(number("--node-limit", args.get(i))?);
            }
            "--max-iters" => {
                i += 1;
                o.limits.max_iters = Some(number("--max-iters", args.get(i))?);
            }
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

/// Consumes one of the engine flags `batch` and `serve` share at
/// `args[*i]` into `engine`, as an `extra` parser of [`parse_common`]:
/// `--jobs`, `--trace`, `--no-cache`, `--cache-dir` and `--cache-cap`.
fn parse_engine_flag(
    engine: &mut EngineConfig,
    args: &[String],
    i: &mut usize,
) -> Result<bool, String> {
    match args[*i].as_str() {
        "--jobs" => {
            *i += 1;
            engine.workers = positive("--jobs", args.get(*i))?;
        }
        "--trace" => engine.want_trace = true,
        "--no-cache" => engine.use_cache = false,
        "--cache-dir" => {
            *i += 1;
            let v = args.get(*i).ok_or("--cache-dir expects a directory")?;
            engine.cache_dir = Some(std::path::PathBuf::from(v));
        }
        "--cache-cap" => {
            *i += 1;
            engine.cache_cap = positive("--cache-cap", args.get(*i))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Completes an engine configuration after parsing: the COMMON budget
/// flags become per-job limits, the fleet series go to `metrics`, and
/// the `--cache-dir` directory is created.
fn finish_engine(
    engine: &mut EngineConfig,
    opts: &CommonOptions,
    metrics: Metrics,
) -> Result<(), String> {
    engine.limits = opts.limits;
    engine.metrics = metrics;
    if let Some(dir) = &engine.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
    }
    Ok(())
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

    /// Ends a run that got as far as a model: prints the `--stats`
    /// counters and the `--heap` report of its manager (also on the
    /// exit-3 path), snapshots the model gauges and manager counters
    /// into the registry, and [finishes](Self::finish) the session.
    fn finish_with_model(&self, model: &SymbolicModel, stats: bool, heap: bool) {
        if stats {
            // One aggregate line, one line per operation with cache
            // traffic and one GC line, the way ablation A3 consumes
            // them. Rendered from a throwaway registry, so `--stats` and
            // `--metrics` report from one source of truth.
            let m = Metrics::new();
            model.manager().record_metrics(&m);
            print!("{}", m.render_stats());
        }
        if heap {
            // The same deep scan `smc inspect` runs.
            print!("{}", model.manager().heap_snapshot(HEAP_TOP_DEFAULT).render_human());
        }
        model.record_metrics(&self.metrics);
        self.finish();
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

/// A budget trip: the phase it stopped, why, and how far the run got.
type Trip = (Phase, TripReason, PartialProgress);

/// The budget trip behind `e`, or `e` itself when it is any other
/// error (which ends the command with exit 2).
fn into_trip(e: CheckError) -> Result<Trip, CheckError> {
    match e {
        CheckError::ResourceExhausted { phase, reason, partial } => Ok((phase, reason, partial)),
        other => Err(other),
    }
}

/// Prints the structured partial-progress report of an exhausted budget
/// and returns the dedicated exit code 3.
fn report_exhausted((phase, reason, partial): Trip) -> ExitCode {
    eprintln!("resource budget exhausted during {phase}: {reason}");
    eprintln!("partial progress: {partial}");
    ExitCode::from(3)
}

/// Default number of widest levels shown by `--heap` and `smc inspect`.
const HEAP_TOP_DEFAULT: usize = 5;

/// Loads and compiles a model for `check`, `spec`, `reach`, `inspect`
/// and `dot`. The budget (if any) is installed before the compile-time
/// totality check, so even load-time reachability runs governed — a
/// tight deadline stops a huge model during loading instead of hanging
/// before the budget ever applies. The telemetry handle is installed on
/// the model's BDD manager for the lifetime of the run.
///
/// A model that does not load ends the command with the returned exit
/// code: an unreadable file or a parse, semantic or model error prints
/// its diagnostic (stable code, source span, snippet) and exits 2; a
/// budget trip during the load prints `undecided` (the formula of
/// `smc spec`) as not decided and the exit-3 report. The session is
/// finished on both paths that got as far as compiling.
fn load(
    path: &str,
    limits: Limits,
    session: &TeleSession,
    undecided: Option<&str>,
) -> Result<CompiledModel, ExitCode> {
    let source = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path:?}: {e}");
        ExitCode::from(2)
    })?;
    match smc::smv::compile_with(&source, limits.budget(), session.tele.clone()) {
        Ok(compiled) => Ok(compiled),
        Err(SmvError::Kripke(KripkeError::Exhausted { reason, progress })) => {
            if let Some(formula) = undecided {
                eprintln!("{formula}: not decided");
            }
            session.finish();
            Err(report_exhausted((Phase::Reachability, reason, progress.into())))
        }
        Err(e) => {
            let mut report = Report::new();
            report.push(smc::analysis::smv_diag(&e));
            eprint!("{}", report.render_human(path, &source));
            session.finish();
            Err(ExitCode::from(2))
        }
    }
}

/// Runs the analyzer for `--lint` on `check`/`spec`: a fresh read and a
/// fresh compile on its own BDD manager, so the checking run that
/// follows is bit-for-bit identical to a run without `--lint`. Findings
/// go to stderr; the caller's verdict and exit code are unaffected.
fn lint_to_stderr(path: &str, limits: Limits) {
    let Ok(source) = std::fs::read_to_string(path) else {
        return; // the real load reports the I/O problem
    };
    let opts = AnalysisOptions { budget: limits.budget(), ..AnalysisOptions::default() };
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
        let aopts =
            AnalysisOptions { budget: opts.limits.budget(), telemetry: session.tele.clone() };
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
    let mut heap = false;
    let mut strategy = CycleStrategy::Restart;
    let opts = parse_common(args, |args, i| {
        match args[*i].as_str() {
            "--trace" => trace = true,
            "--lint" => lint = true,
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
        lint_to_stderr(file, opts.limits);
    }
    let mut compiled = match load(file, opts.limits, &session, None) {
        Ok(compiled) => compiled,
        Err(code) => return Ok(code),
    };
    if compiled.specs.is_empty() {
        session.finish();
        println!("{file}: no SPEC sections");
        return Ok(ExitCode::SUCCESS);
    }
    let formulas: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    // A budget trip stops the loop but still renders the specs decided
    // so far (and, with --stats, the manager counters) before exiting 3.
    let (results, error) = check_formulas(&mut compiled, &formulas, trace, strategy);
    let trip = error.map(into_trip).transpose()?;
    if trip.is_some() {
        eprintln!("SPEC {}: not decided", results.len());
    }
    print_spec_results(&results);
    session.finish_with_model(&compiled.model, opts.stats, heap);
    if let Some(trip) = trip {
        return Ok(report_exhausted(trip));
    }
    Ok(if results.iter().all(|s| s.holds) { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// One line of `smc batch` output state: a job the engine ran, or a
/// manifest entry whose model file could not be read (reported in
/// place, in manifest order, without aborting the batch).
enum BatchLine {
    Ran(smc::engine::JobResult),
    Unreadable { name: String, message: String },
}

/// Renders per-spec verdict lines (and traces) for `smc check` and for
/// each `smc batch` job, so a batch job's block is comparable line for
/// line with a serial run on the same model.
fn print_spec_results(specs: &[SpecResult]) {
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
    use smc::engine::{run_batch, Job, JobOutcome};

    let mut cfg = EngineConfig::default();
    let mut json = false;
    let opts = parse_common(args, |args, i| {
        if parse_engine_flag(&mut cfg, args, i)? {
            return Ok(true);
        }
        match args[*i].as_str() {
            "--heap" => cfg.heap = true,
            "--json" => json = true,
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
    finish_engine(&mut cfg, &opts, session.metrics.clone())?;
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
    use smc::engine::{serve, serve_tcp, spawn_metrics_endpoint, ServerConfig, StatusBoard};

    fn secs(name: &str, v: Option<&String>) -> Result<Duration, String> {
        let v = v.ok_or_else(|| format!("{name} expects seconds"))?;
        v.parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .map(Duration::from_secs_f64)
            .ok_or_else(|| format!("{name} expects positive seconds, got {v:?}"))
    }

    let mut cfg = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let opts = parse_common(args, |args, i| {
        if parse_engine_flag(&mut cfg.engine, args, i)? {
            return Ok(true);
        }
        // Every serve-only flag takes one value.
        let (flag, value) = (args[*i].as_str(), args.get(*i + 1));
        match flag {
            "--listen" => listen = Some(value.ok_or("--listen expects an address")?.clone()),
            "--metrics-addr" => {
                metrics_addr = Some(value.ok_or("--metrics-addr expects an address")?.clone());
            }
            "--max-queue" => cfg.max_queue = number(flag, value)?,
            "--quarantine-after" => cfg.quarantine_after = number(flag, value)?,
            "--watchdog" => cfg.watchdog = Some(secs(flag, value)?),
            "--drain-timeout" => cfg.drain_timeout = Some(secs(flag, value)?),
            "--retry-after-ms" => cfg.retry_after_ms = number(flag, value)?,
            "--dump-dir" => {
                let v = value.ok_or("--dump-dir expects a directory")?;
                cfg.dump_dir = Some(std::path::PathBuf::from(v));
            }
            "--dump-cap" => cfg.dump_cap = positive(flag, value)?,
            "--recorder-cap" => cfg.engine.recorder_cap = positive(flag, value)?,
            _ => return Ok(false),
        }
        *i += 1;
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
    finish_engine(&mut cfg.engine, &opts, metrics.clone())?;
    // One introspection surface shared by {"op":"status"} and the HTTP
    // /status route of the metrics endpoint.
    let status = StatusBoard::new();
    cfg.status = Some(status.clone());
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
    let mut heap = false;
    let opts = parse_common(args, |args, i| match args[*i].as_str() {
        "--lint" => {
            lint = true;
            Ok(true)
        }
        "--heap" => {
            heap = true;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let [file, formula] = &opts.positionals[..] else {
        return Err("usage: smc spec [--lint] [--heap] [COMMON] FILE.smv FORMULA".into());
    };
    let session = TeleSession::new(&opts)?;
    if lint {
        lint_to_stderr(file, opts.limits);
    }
    let mut compiled = match load(file, opts.limits, &session, Some(formula)) {
        Ok(compiled) => compiled,
        Err(code) => return Ok(code),
    };
    let spec = smc::logic::ctl::parse(formula)?;
    let (results, error) =
        check_formulas(&mut compiled, std::slice::from_ref(&spec), false, CycleStrategy::default());
    let trip = error.map(into_trip).transpose()?;
    let holds = results.iter().all(|r| r.holds);
    if trip.is_some() {
        eprintln!("{spec}: not decided");
    } else {
        println!("{spec}: {}", if holds { "holds" } else { "FAILS" });
    }
    session.finish_with_model(&compiled.model, opts.stats, heap);
    if let Some(trip) = trip {
        return Ok(report_exhausted(trip));
    }
    Ok(if holds { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_dot(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let [file, what] = args else {
        return Err("usage: smc dot FILE.smv (init|trans|reach)".into());
    };
    let session = TeleSession::new(&CommonOptions::default())?;
    let mut compiled = match load(file, Limits::default(), &session, None) {
        Ok(compiled) => compiled,
        Err(code) => return Ok(code),
    };
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
    let mut compiled = match load(file, opts.limits, &session, None) {
        Ok(compiled) => compiled,
        Err(code) => return Ok(code),
    };
    println!("file            : {file}");
    println!("variables       : {}", compiled.var_names().join(" "));
    println!("state bits      : {}", compiled.model.num_state_vars());
    println!("fairness        : {}", compiled.model.fairness().len());
    match compiled.model.reachable_count() {
        Ok(count) => println!("reachable states: {count}"),
        Err(e) => {
            let trip = into_trip(e.into())?;
            session.finish_with_model(&compiled.model, opts.stats, false);
            return Ok(report_exhausted(trip));
        }
    }
    let init = compiled.model.init();
    if let Some(s0) = compiled.model.pick_state(init) {
        println!("an initial state: {}", compiled.render_state(&s0));
    }
    session.finish_with_model(&compiled.model, opts.stats, false);
    Ok(ExitCode::SUCCESS)
}

fn cmd_inspect(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: smc inspect [--spec N] [--json] [--top K] \
                         [--at reach|check] [COMMON] FILE.smv";
    let mut json = false;
    let mut top: usize = HEAP_TOP_DEFAULT;
    let mut at: Option<String> = None;
    let mut spec_index: Option<usize> = None;
    let opts = parse_common(args, |args, i| {
        match args[*i].as_str() {
            "--json" => json = true,
            "--top" => {
                *i += 1;
                top = positive("--top", args.get(*i))?;
            }
            "--at" => {
                *i += 1;
                match args.get(*i).map(String::as_str) {
                    Some(point @ ("reach" | "check")) => at = Some(point.to_string()),
                    other => return Err(format!("--at expects 'reach' or 'check', got {other:?}")),
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
    let mut compiled = match load(file, opts.limits, &session, None) {
        Ok(compiled) => compiled,
        Err(code) => return Ok(code),
    };
    // Drive the manager to the requested point. A budget trip does NOT
    // suppress the report: the heap at trip time is exactly what an
    // inspection is for — the snapshot prints, then the exit-3 path.
    let mut trip = None;
    if let Err(e) = compiled.model.reachable() {
        trip = Some(into_trip(e.into())?);
    }
    if at == "check" && trip.is_none() {
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
        let (_, error) = check_formulas(&mut compiled, &formulas, false, CycleStrategy::default());
        trip = error.map(into_trip).transpose()?;
    }
    let snapshot = compiled.model.manager().heap_snapshot(top);
    if json {
        println!("{}", snapshot.to_json());
    } else {
        println!("file            : {file}");
        println!("inspected at    : {at}");
        print!("{}", snapshot.render_human());
    }
    session.finish_with_model(&compiled.model, false, false);
    if let Some(trip) = trip {
        return Ok(report_exhausted(trip));
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
