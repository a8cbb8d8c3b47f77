//! Pass 3 — specification vacuity detection (W020).
//!
//! A specification that *holds* may do so for a trivial reason: `AG
//! (req -> AF ack)` is satisfied by any model where `req` never rises.
//! Following Beer, Ben-David, Eisner and Rodeh, a formula φ is vacuous
//! in an occurrence ψ when φ holds **and** φ[ψ ← ⊥] still holds, where
//! ⊥ is the hardest value for that occurrence's polarity: `FALSE` for
//! positive occurrences, `TRUE` for negative ones (mixed-polarity
//! occurrences under `<->` are skipped). When the strengthened formula
//! still passes, the occurrence never mattered — and its *witness* is an
//! "interesting" execution of the original specification, produced with
//! the same trace machinery as ordinary witnesses.

use smc_checker::{CheckError, Checker, Trace};
use smc_logic::{atom_occurrences, Ctl};
use smc_smv::{CompiledModel, Expr, Span};

use crate::diag::{Diagnostic, Report};
use crate::symbolic::Exhausted;

/// One vacuous specification, recorded while the checker still borrows
/// the model; traces are rendered afterwards, when `render_state` is
/// available again.
struct Finding {
    span: Span,
    message: String,
    strengthened: String,
    trace: Option<Trace>,
}

/// Maps a checker error to a governor trip, or swallows it into an E003
/// diagnostic (per-spec errors do not abort the whole pass).
fn check_err(e: CheckError, report: &mut Report) -> Result<(), Exhausted> {
    if let CheckError::ResourceExhausted { reason, .. } = &e {
        return Err(Exhausted(reason.to_string()));
    }
    report.push(Diagnostic::error("E003", format!("model error: {e}"), None));
    Ok(())
}

/// Runs vacuity detection over every compiled `SPEC`. Only passing
/// specifications are examined; the first vacuous occurrence of each is
/// reported, with the strengthened formula and an interesting witness.
pub(crate) fn run(compiled: &mut CompiledModel, report: &mut Report) -> Result<(), Exhausted> {
    let specs = compiled.specs.clone();
    let mut findings: Vec<Finding> = Vec::new();
    {
        // Most checks here need no trace; the first walk of a chained
        // `EU` records its rings when a witness is asked for.
        let mut checker = Checker::new(&mut compiled.model).verdicts_only();
        'specs: for (spec_index, spec) in specs.iter().enumerate() {
            let verdict = match checker.check(&spec.formula) {
                Ok(v) => v,
                Err(e) => {
                    check_err(e, report)?;
                    continue;
                }
            };
            if !verdict.holds() {
                // A failing spec is not vacuous; `smc check` reports it.
                continue;
            }
            // The spec's propositional leaves in label-registration
            // order (literal TRUE/FALSE leaves get no label).
            let leaves: Vec<&Expr> =
                spec.source.leaves().into_iter().filter(|e| !matches!(e, Expr::Bool(_))).collect();
            for occ in atom_occurrences(&spec.formula) {
                let Some(replacement) = occ.polarity.strengthening() else {
                    continue;
                };
                let strengthened = replace_and_simplify(&spec.formula, occ.index, &replacement);
                if strengthened == spec.formula {
                    continue;
                }
                let still_holds = match checker.check(&strengthened) {
                    Ok(v) => v.holds(),
                    Err(e) => {
                        check_err(e, report)?;
                        continue 'specs;
                    }
                };
                if !still_holds {
                    continue;
                }
                // Vacuous. An "interesting" witness for the original
                // spec is a witness of the strengthened formula; purely
                // propositional strengthenings have nothing to unroll.
                let trace = match checker.witness(&strengthened) {
                    Ok(t) => Some(t),
                    Err(CheckError::ResourceExhausted { reason, .. }) => {
                        return Err(Exhausted(reason.to_string()))
                    }
                    Err(_) => None,
                };
                let leaf = leaf_text(&occ.name, spec_index, &leaves);
                findings.push(Finding {
                    span: spec.span,
                    message: format!(
                        "specification passes vacuously: `{leaf}` does not affect it \
                         (replacing it with {} preserves the verdict)",
                        match replacement {
                            Ctl::True => "TRUE",
                            _ => "FALSE",
                        }
                    ),
                    strengthened: pretty_formula(&strengthened, spec_index, &leaves),
                    trace,
                });
                continue 'specs; // first vacuous occurrence per spec
            }
        }
    }
    for f in findings {
        let mut d = Diagnostic::warning("W020", f.message, Some(f.span))
            .with_note(format!("strengthened formula still holds: {}", f.strengthened));
        if let Some(trace) = &f.trace {
            d = d.with_note("interesting witness for the strengthened formula:");
            for line in render_trace(compiled, trace) {
                d = d.with_note(line);
            }
        }
        report.push(d);
    }
    Ok(())
}

/// Replaces occurrence `index` and lets the simplifying constructors
/// propagate the constant.
fn replace_and_simplify(formula: &Ctl, index: usize, with: &Ctl) -> Ctl {
    smc_logic::replace_atom_occurrence(formula, index, with)
}

/// Human text for the strengthened occurrence. Compiled spec leaves are
/// labelled `__spec{i}_{k}` where `k` indexes the spec's non-constant
/// leaves; anything else (e.g. a bare boolean variable used directly as
/// an atom) already reads fine.
fn leaf_text(atom: &str, spec_index: usize, leaves: &[&Expr]) -> String {
    let prefix = format!("__spec{spec_index}_");
    if let Some(rest) = atom.strip_prefix(&prefix) {
        if let Ok(k) = rest.parse::<usize>() {
            if let Some(leaf) = leaves.get(k) {
                return leaf.to_string();
            }
        }
    }
    atom.to_string()
}

/// Renders a checkable formula with the internal `__spec{i}_{k}` leaf
/// labels substituted back to their source text. Higher indices first,
/// so `__spec0_1` never clobbers the prefix of `__spec0_12`.
fn pretty_formula(f: &Ctl, spec_index: usize, leaves: &[&Expr]) -> String {
    let mut s = f.to_string();
    for (k, leaf) in leaves.iter().enumerate().rev() {
        let label = format!("__spec{spec_index}_{k}");
        let text = leaf.to_string();
        let wrapped = if matches!(leaf, Expr::Ident(_) | Expr::Bool(_) | Expr::Int(_)) {
            text
        } else {
            format!("({text})")
        };
        s = s.replace(&label, &wrapped);
    }
    s
}

/// Decoded state-by-state rendering with lasso markers.
fn render_trace(compiled: &CompiledModel, trace: &Trace) -> Vec<String> {
    let mut lines = Vec::with_capacity(trace.states.len() + 1);
    for (i, state) in trace.states.iter().enumerate() {
        let marker = if trace.loopback == Some(i) { " (loop starts here)" } else { "" };
        lines.push(format!("  state {i}: {}{marker}", compiled.render_state(state)));
    }
    if let Some(l) = trace.loopback {
        lines.push(format!("  -- loops back to state {l} --"));
    }
    lines
}
