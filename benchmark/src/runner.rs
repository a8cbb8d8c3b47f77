//! What every workload shares: its context, the failure tally, the
//! timed loop and the summary of what it measured.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::gen::{self, Expected, Model};
use crate::metrics::Value;
use crate::output;
use crate::process::{self, Usage};
use crate::replay::Interp;
use crate::traced::Tracer;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Witness,
    Reach,
    Batch,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Witness, Workload::Reach, Workload::Batch, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Witness => "witness",
            Workload::Reach => "reach",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 15;

/// Everything a workload run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Also run the traced in-process pass and report per-layer metrics.
    pub traced: bool,
    /// The smoke-test sizes: one pass, smallest inputs.
    pub quick: bool,
    pub smc: PathBuf,
    /// Generated inputs go here; emptied at every set-up.
    pub work: PathBuf,
    /// Chrome traces go here.
    pub out: PathBuf,
    /// Models whose answers the explicit checker already confirmed.
    pub cross_checked: PathBuf,
    pub key: Vec<Expected>,
}

impl Ctx {
    /// `smc` with its working directory in the inputs directory.
    pub fn smc(&self) -> Command {
        let mut cmd = Command::new(&self.smc);
        cmd.current_dir(&self.work);
        cmd
    }

    /// Empties the inputs directory and writes `files` into it.
    pub fn write_inputs<'a>(
        &self,
        files: impl IntoIterator<Item = (String, &'a str)>,
    ) -> Result<(), String> {
        if self.work.exists() {
            std::fs::remove_dir_all(&self.work).map_err(|e| io_err(&self.work, e))?;
        }
        std::fs::create_dir_all(&self.work).map_err(|e| io_err(&self.work, e))?;
        for (name, text) in files {
            let path = self.work.join(name);
            std::fs::write(&path, text).map_err(|e| io_err(&path, e))?;
        }
        Ok(())
    }

    /// Writes the traced pass's spans to `<out>/<workload>.trace.json`.
    pub fn write_trace(&self, tracer: &Tracer) -> Result<(), String> {
        let path = self.out.join(format!("{}.trace.json", self.workload.name()));
        tracer.write(&path).map_err(|e| io_err(&path, e))
    }

    /// The readiness probe of the one-shot workloads: `smc check` answers
    /// a three-inverter ring correctly.
    pub fn probe_check(&self) -> Result<(), String> {
        let probe = gen::circuit(&self.key, gen::Family::InverterRing, 3, None);
        let path = self.work.join("probe.smv");
        std::fs::write(&path, &probe.source).map_err(|e| io_err(&path, e))?;
        let run = process::run(self.smc().arg("check").arg("probe.smv"))
            .map_err(|e| format!("cannot run {}: {e}", self.smc.display()))?;
        let expected: Vec<_> = probe.specs.iter().collect();
        check_exit(&run.status, output::expected_exit(&expected))?;
        let interp = Interp::new(&probe.source)?;
        output::verify(&expected, &output::parse_check(&run.stdout)?, &interp, false)
    }
}

pub fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

pub fn check_exit(status: &std::process::ExitStatus, want: i32) -> Result<(), String> {
    match status.code() {
        Some(code) if code == want => Ok(()),
        _ => Err(format!("exit status {status}, expected {want}")),
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(format!("{what}: {e}"));
            }
        }
    }

    /// Cross-checks the answer key on each model small enough to
    /// enumerate (one attempted operation per model checked); `dir`
    /// remembers models already checked. Call it after the timed loop:
    /// a child's peak RSS as the kernel reports it includes the peak of
    /// the harness that spawned it, and enumeration is big.
    pub fn cross_check<'a>(&mut self, models: impl IntoIterator<Item = &'a Model>, dir: &Path) {
        for m in models {
            match crate::crosscheck::cross_check_once(m, dir) {
                Ok(false) => {}
                result => self.record(&format!("cross-check {}", m.name), result.map(|_| ())),
            }
        }
    }
}

/// Runs set-up [`SETUP_REPS`] times and returns its durations, seconds.
pub fn time_setup(mut setup: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            setup()?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Repeats `op` (which returns the wall time it measured) until
/// `seconds` have passed; at least once.
pub fn timed_loop(
    seconds: f64,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(op()?);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(walls);
        }
    }
}

/// What one workload run measured, before it becomes metrics.
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Wall time of each timed operation, seconds.
    pub walls: Vec<f64>,
    /// Resource use of the `smc` processes behind the timed operations.
    pub usage: Usage,
    /// Operations `usage.cpu_s` was spent on.
    pub ops: usize,
    /// `process.unattributed_s` of traced runs: the median operation's
    /// wall time not covered by the same work done in process (exec,
    /// I/O, rendering, tracing overhead).
    pub unattributed_s: Option<f64>,
    /// Per-layer metrics.
    pub layers: BTreeMap<String, Value>,
}
