//! Re-derives the answer key with the explicit-state checker.

use std::path::Path;

use smc_explicit::ExplicitChecker;

use crate::gen::Model;

/// Models with more reachable states than this are not enumerated.
const STATE_LIMIT: usize = 1 << 18;

/// Checks every spec of `model` with the explicit-state checker over its
/// enumerated reachable states. `Ok(false)` when the model is too big to
/// enumerate; `Err` names the first spec whose verdict disagrees with the
/// answer key.
fn cross_check(model: &Model) -> Result<bool, String> {
    let mut compiled = smc_smv::compile(&model.source).map_err(|e| e.to_string())?;
    let count = compiled.model.reachable_count().map_err(|e| e.to_string())?;
    if count > STATE_LIMIT as f64 {
        return Ok(false);
    }
    let (explicit, _) = compiled.model.enumerate(STATE_LIMIT).map_err(|e| e.to_string())?;
    let mut checker = ExplicitChecker::new(&explicit);
    checker.auto_fairness();
    for (spec, want) in compiled.specs.iter().zip(&model.specs) {
        let holds = checker.check(&spec.formula).map_err(|e| e.to_string())?;
        if holds != want.holds {
            return Err(format!(
                "{}: the explicit checker says {} {}, the answer key says {}",
                model.name,
                want.text,
                if holds { "holds" } else { "FAILS" },
                if want.holds { "holds" } else { "FAILS" }
            ));
        }
    }
    Ok(true)
}

/// [`cross_check`] once per model, answer and harness build: an earlier
/// result recorded under `dir` is reused. Only agreeing (and too big)
/// results are recorded, so a disagreement is reported on every run.
pub fn cross_check_once(model: &Model, dir: &Path) -> Result<bool, String> {
    let record = dir.join(format!("{:016x}", fingerprint(model)));
    if let Ok(text) = std::fs::read_to_string(&record) {
        return Ok(text == "checked");
    }
    let checked = cross_check(model)?;
    // Recording is an optimization: a failure only means checking again.
    let _ = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&record, if checked { "checked" } else { "too big" }));
    Ok(checked)
}

/// FNV-1a over the model, its expected verdicts and the identity of the
/// harness binary (whose explicit checker did the checking).
fn fingerprint(model: &Model) -> u64 {
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{}:{:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let mut bytes = model.source.as_bytes().to_vec();
    bytes.extend(model.specs.iter().map(|s| u8::from(s.holds)));
    bytes.extend(exe.as_bytes());
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
