//! Reading what `smc` printed and checking it against the answer key.

use smc_obs::Json;

use crate::gen::Spec;
use crate::replay::Interp;

/// One spec's result as printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecOut {
    pub holds: bool,
    pub trace: Option<TraceOut>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOut {
    pub states: Vec<String>,
    pub loopback: Option<usize>,
}

/// Parses the stdout of `smc check [--trace]`:
///
/// ```text
/// SPEC 1: FAILS
/// -- counterexample: 43 states, cycle of 19 --
/// state 0: ...
/// -- loop starts here --
/// state 24: ...
/// -- loop back to state 24 --
/// ```
pub fn parse_check(stdout: &str) -> Result<Vec<SpecOut>, String> {
    let mut specs: Vec<SpecOut> = Vec::new();
    // Declared length and cycle of the trace being read, and where its
    // loop-start marker sat.
    let mut header: Option<(usize, Option<usize>, Option<usize>)> = None;
    for line in stdout.lines() {
        let bad = || format!("unexpected line {line:?}");
        if let Some(rest) = line.strip_prefix("SPEC ") {
            close_trace(&mut specs, header.take())?;
            let (index, verdict) = rest.split_once(": ").ok_or_else(bad)?;
            if index.parse::<usize>().ok() != Some(specs.len()) {
                return Err(format!("SPEC {index} out of order"));
            }
            let holds = match verdict {
                "holds" => true,
                "FAILS" => false,
                _ => return Err(bad()),
            };
            specs.push(SpecOut { holds, trace: None });
        } else if let Some(rest) = line.strip_prefix("state ") {
            let (index, state) = rest.split_once(": ").ok_or_else(bad)?;
            let trace = specs
                .last_mut()
                .and_then(|s| s.trace.as_mut())
                .filter(|_| header.is_some())
                .ok_or_else(bad)?;
            if index.parse::<usize>().ok() != Some(trace.states.len()) {
                return Err(format!("state {index} out of order"));
            }
            trace.states.push(state.to_string());
        } else if line == "-- loop starts here --" {
            let len = specs.last().and_then(|s| s.trace.as_ref()).map(|t| t.states.len());
            match (&mut header, len) {
                (Some((_, _, marker @ None)), Some(len)) => *marker = Some(len),
                _ => return Err(bad()),
            }
        } else if let Some(l) =
            line.strip_prefix("-- loop back to state ").and_then(|r| r.strip_suffix(" --"))
        {
            let trace = specs.last_mut().and_then(|s| s.trace.as_mut()).ok_or_else(bad)?;
            trace.loopback = Some(l.parse().map_err(|_| bad())?);
        } else if let Some(rest) = line.strip_prefix("-- ").and_then(|r| r.strip_suffix(" --")) {
            let spec = specs.last_mut().filter(|s| s.trace.is_none()).ok_or_else(bad)?;
            let (kind, shape) = rest.split_once(": ").ok_or_else(bad)?;
            if kind != if spec.holds { "witness" } else { "counterexample" } {
                return Err(format!("a {kind} for a spec that {}", verdict(spec.holds)));
            }
            let (len, cycle) = match shape.split_once(" states, cycle of ") {
                Some((len, cycle)) => (len, Some(cycle.parse().map_err(|_| bad())?)),
                None => (shape.strip_suffix(" states").ok_or_else(bad)?, None),
            };
            header = Some((len.parse().map_err(|_| bad())?, cycle, None));
            spec.trace = Some(TraceOut { states: Vec::new(), loopback: None });
        } else {
            return Err(bad());
        }
    }
    close_trace(&mut specs, header)?;
    Ok(specs)
}

/// Checks that the trace just read matches its header.
fn close_trace(
    specs: &mut [SpecOut],
    header: Option<(usize, Option<usize>, Option<usize>)>,
) -> Result<(), String> {
    let Some((len, cycle, marker)) = header else { return Ok(()) };
    let trace = specs.last().and_then(|s| s.trace.as_ref()).expect("a header opens a trace");
    let shape_ok = trace.states.len() == len
        && marker == trace.loopback
        && cycle == trace.loopback.map(|l| len.saturating_sub(l));
    if shape_ok {
        Ok(())
    } else {
        Err(format!("trace of {} states does not match its header", trace.states.len()))
    }
}

/// Reads the `specs` array of one job object of `smc batch --json` or
/// one `smc serve` response.
pub fn parse_json_specs(job: &Json) -> Result<Vec<SpecOut>, String> {
    let Some(Json::Arr(specs)) = job.get("specs") else {
        return Err("no specs array".to_string());
    };
    specs
        .iter()
        .map(|s| {
            let holds = s.get("holds").and_then(Json::as_bool).ok_or("spec without holds")?;
            let trace = match s.get("trace") {
                None => None,
                Some(t) => {
                    let Some(Json::Arr(states)) = t.get("states") else {
                        return Err("trace without states".to_string());
                    };
                    let states = states
                        .iter()
                        .map(|v| v.as_str().map(str::to_string).ok_or("non-string state"))
                        .collect::<Result<Vec<_>, _>>()?;
                    let loopback = match t.get("loopback") {
                        Some(Json::Null) | None => None,
                        Some(v) => Some(v.as_u64().ok_or("bad loopback")? as usize),
                    };
                    Some(TraceOut { states, loopback })
                }
            };
            Ok(SpecOut { holds, trace })
        })
        .collect()
}

fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "FAILS"
    }
}

/// Checks every verdict against the answer key and replays every trace.
/// With `traced`, each failing spec must come with its counterexample.
pub fn verify(
    expected: &[&Spec],
    got: &[SpecOut],
    interp: &Interp,
    traced: bool,
) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} verdicts for {} specs", got.len(), expected.len()));
    }
    for (k, (e, g)) in expected.iter().zip(got).enumerate() {
        if e.holds != g.holds {
            return Err(format!(
                "SPEC {k} {}: expected {}, got {}",
                e.text,
                verdict(e.holds),
                verdict(g.holds)
            ));
        }
        match &g.trace {
            Some(t) => interp
                .check(&t.states, t.loopback)
                .map_err(|err| format!("SPEC {k} {}: trace rejected: {err}", e.text))?,
            None if traced && !g.holds => {
                return Err(format!("SPEC {k} {}: no counterexample", e.text))
            }
            None => {}
        }
    }
    Ok(())
}

/// Checks one job object of `smc batch --json` or one `smc serve`
/// response: its outcome, then [`verify`].
pub fn verify_job(
    expected: &[&Spec],
    job: &Json,
    interp: &Interp,
    traced: bool,
) -> Result<(), String> {
    let want = if expected_exit(expected) == 0 { "pass" } else { "fail" };
    match job.get("outcome").and_then(Json::as_str) {
        Some(outcome) if outcome == want => {}
        other => return Err(format!("outcome {other:?}, expected {want}")),
    }
    verify(expected, &parse_json_specs(job)?, interp, traced)
}

/// The exit code `smc check` owes these verdicts.
pub fn expected_exit(expected: &[&Spec]) -> i32 {
    i32::from(expected.iter().any(|s| !s.holds))
}
