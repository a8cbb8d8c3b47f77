//! Command line: one workload run, all four, or a comparison.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::metrics::{self, Report, Value, PER_LAYER};
use crate::runner::{Ctx, Tally, Workload};
use crate::{batch, check, gen, serve};

const USAGE: &str = "usage:
  workloads --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--smc PATH] [--report FILE]
  workloads run [--seed N] [--seconds S] [--quick] [--smc PATH]
  workloads compare A.json B.json
workloads: witness reach batch serve";

/// Default timed seconds per workload for `run`.
const RUN_SECONDS: &str = "20";

pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Flags as `--name value` pairs (`--quick` alone); anything else is a
/// usage error.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("{USAGE}\nunexpected {:?}", args[i]))?;
        if name == "quick" {
            out.push((name.to_string(), String::new()));
            i += 1;
        } else {
            let value = args.get(i + 1).ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
            i += 2;
        }
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: &str,
) -> Result<T, String> {
    let v = flag(flags, name).unwrap_or(default);
    v.parse().map_err(|_| format!("--{name} expects a number, got {v:?}"))
}

/// `target/` of the build that produced this binary (it sits in
/// `target/release/`); the benchmark's inputs and outputs go below it.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or("binary has no target directory".into())
}

fn smc_path(flags: &[(String, String)]) -> Result<PathBuf, String> {
    match flag(flags, "smc") {
        Some(p) => Ok(PathBuf::from(p)),
        None => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            Ok(exe.with_file_name("smc"))
        }
    }
}

/// Where traces and results of a seed go (`--quick` runs apart).
fn out_dir(seed: u64, quick: bool) -> Result<PathBuf, String> {
    let name = if quick { format!("quick-seed-{seed}") } else { format!("seed-{seed}") };
    let dir = target_dir()?.join("bench-out").join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One workload: set-up, timed loop, checks, and with `--trace 1` the
/// traced pass. Prints every metric, then the result line last.
fn cmd_workload(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let name = flag(&f, "workload").ok_or(USAGE)?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed: u64 = number(&f, "seed", "1")?;
    let quick = flag(&f, "quick").is_some();
    // `--quick` runs one operation.
    let seconds: f64 = if quick { 0.0 } else { number(&f, "seconds", RUN_SECONDS)? };
    let traced = match flag(&f, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let smc = smc_path(&f)?;
    if !smc.is_file() {
        return Err(format!("{} not found: build it with `cargo build --release`", smc.display()));
    }
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        traced,
        quick,
        smc,
        work: target_dir()?.join("bench-work").join(format!("{name}-seed-{seed}")),
        cross_checked: target_dir()?.join("bench-work").join("cross-checked"),
        out: out_dir(seed, quick)?,
        key: gen::answer_key(),
    };
    let mut tally = Tally::default();
    let measured = match workload {
        Workload::Witness | Workload::Reach => check::run(&ctx, &mut tally),
        Workload::Batch => batch::run(&ctx, &mut tally),
        Workload::Serve => serve::run(&ctx, &mut tally),
    }?;

    let mut report = Report {
        workload: name.to_string(),
        seed,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.reasons,
        end_to_end: [
            ("latency_p50_ms", Value::quantile(&measured.walls, 0.5, 1e3)),
            ("peak_rss_mb", Value::exact(measured.usage.maxrss_kb as f64 / 1024.0)),
            ("setup_s", Value::quantile(&measured.setup_s, 0.5, 1.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
        per_layer: Default::default(),
    };
    if traced {
        let mut layers = measured.layers.clone();
        let cpu_per_op = measured.usage.cpu_s / measured.ops.max(1) as f64;
        layers.insert("process.cpu_per_op_ms".into(), Value::exact(cpu_per_op * 1e3));
        if let Some(u) = measured.unattributed_s {
            layers.insert("process.unattributed_s".into(), Value::exact(u));
        }
        // A layer the workload does not reach did no work.
        report.per_layer = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), layers.get(d.name).copied().unwrap_or(Value::exact(0.0))))
            .collect();
    }
    for line in report.lines() {
        println!("{line}");
    }
    for reason in &report.failures {
        eprintln!("FAILED {reason}");
    }
    if let Some(path) = flag(&f, "report") {
        std::fs::write(path, report.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.result_line(traced));
    Ok(0)
}

/// All four workloads on one seed, each in a fresh harness process so
/// no workload inherits another's heap or page cache state; writes
/// `bench-out/seed-N.json`.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let seed: u64 = number(&f, "seed", "1")?;
    let seconds: f64 = number(&f, "seconds", RUN_SECONDS)?;
    let quick = flag(&f, "quick").is_some();
    let out = out_dir(seed, quick)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let report = out.join(format!("{}.json", w.name()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "1"])
            .arg("--report")
            .arg(&report)
            .arg("--smc")
            .arg(smc_path(&f)?);
        if quick {
            cmd.arg("--quick");
        }
        eprintln!("== {} (seed {seed})", w.name());
        let status = cmd.status().map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name()));
        }
        let text =
            std::fs::read_to_string(&report).map_err(|e| format!("{}: {e}", report.display()))?;
        let json = smc_obs::Json::parse(&text).ok_or("unreadable workload report")?;
        reports.push(Report::from_json(&json)?);
    }
    let path = out.with_extension("json");
    metrics::write_run(&path, seed, &reports).map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    eprintln!("wrote {}: {failed} of {attempted} operations failed", path.display());
    Ok(i32::from(failed > 0))
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let (table, ok) = metrics::compare(&metrics::read_run(a)?, &metrics::read_run(b)?);
    print!("{table}");
    Ok(i32::from(!ok))
}
