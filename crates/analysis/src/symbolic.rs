//! Pass 2 — symbolic checks over the compiled model.
//!
//! These checks need BDDs: the reachable state set, the transition
//! relation and the recorded `ASSIGN` branch guards. Everything runs
//! under the manager's resource governor; a budget trip surfaces as
//! [`Exhausted`] so the driver can report partial results with exit
//! code 3.

use smc_bdd::BddError;
use smc_kripke::KripkeError;
use smc_smv::{AssignKind, CompiledModel};

use crate::diag::{Diagnostic, Report};

/// The governor stopped the pass; carries the human-readable reason.
pub(crate) struct Exhausted(pub String);

/// Maps a model-layer error to either a governor trip or an `E003`
/// diagnostic pushed into the report.
fn model_err(e: KripkeError, report: &mut Report) -> Result<(), Exhausted> {
    if let KripkeError::Exhausted { reason, .. } = &e {
        return Err(Exhausted(reason.to_string()));
    }
    report.push(Diagnostic::error("E003", format!("model error: {e}"), None));
    Ok(())
}

/// Runs the symbolic pass: W010 (non-total transition relation, with a
/// concrete stuck state), W011 (`case` branches never taken on any
/// relevant state) and W012 (unsatisfiable or unreachable fairness
/// constraints).
pub(crate) fn run(compiled: &mut CompiledModel, report: &mut Report) -> Result<(), Exhausted> {
    // W010: reachable deadlocks. The model was compiled with
    // `allow_deadlock`, so this is the check the strict loader skipped.
    let dead = match compiled.model.deadlocked() {
        Ok(d) => d,
        Err(e) => return model_err(e, report),
    };
    if !dead.is_false() {
        let count = compiled.model.state_count(dead);
        let mut d = Diagnostic::warning(
            "W010",
            format!(
                "transition relation is not total: {count} reachable state{} \
                 {} no successor",
                if count == 1.0 { "" } else { "s" },
                if count == 1.0 { "has" } else { "have" },
            ),
            None,
        );
        if let Some(state) = compiled.model.pick_state(dead) {
            d = d.with_note(format!("stuck state: {}", compiled.render_state(&state)));
        }
        d = d.with_note("CTL semantics require a total relation; `smc check` rejects this model");
        report.push(d);
    }

    let reach = match compiled.model.reachable() {
        Ok(r) => r,
        Err(e) => return model_err(e, report),
    };
    let init = compiled.model.init();

    // W011: recorded `case` branch guards that no relevant state ever
    // satisfies. A branch with an unsatisfiable guard (`taken` = ⊥) is
    // left to the syntactic shadowing/constant checks — reporting it
    // here too would double up — and literal `TRUE` catch-all defaults
    // are skipped: being dead in a correct model is their purpose.
    for b in &compiled.branches {
        if b.taken.is_false() || b.default {
            continue;
        }
        let (relevant, relevant_name) = match b.kind {
            AssignKind::Init => (init, "initial"),
            AssignKind::Next => (reach, "reachable"),
        };
        let overlap = compiled.model.manager_mut().and(b.taken, relevant);
        if overlap.is_false() {
            report.push(
                Diagnostic::warning(
                    "W011",
                    format!(
                        "`case` branch {} of `{}({})` is never taken",
                        b.index + 1,
                        match b.kind {
                            AssignKind::Init => "init",
                            AssignKind::Next => "next",
                        },
                        b.var
                    ),
                    Some(b.span),
                )
                .with_note(format!("no {relevant_name} state satisfies its guard")),
            );
        }
        if let Err(BddError::ResourceExhausted(reason)) =
            compiled.model.manager_mut().check_budget()
        {
            return Err(Exhausted(reason.to_string()));
        }
    }

    // W012: fairness constraints that admit no (reachable) state make
    // the fair-path semantics degenerate.
    let fairness: Vec<_> = compiled.model.fairness().to_vec();
    for (i, f) in fairness.iter().enumerate() {
        let mgr = compiled.model.manager_mut();
        let problem = if f.is_false() {
            Some("is unsatisfiable (equivalent to FALSE)")
        } else if mgr.and(*f, reach).is_false() {
            Some("is satisfied by no reachable state")
        } else {
            None
        };
        if let Some(what) = problem {
            report.push(
                Diagnostic::warning(
                    "W012",
                    format!("fairness constraint {what}"),
                    compiled.fairness_spans.get(i).copied(),
                )
                .with_note(
                    "no fair path exists, so every specification is checked \
                     over an empty fair state set",
                ),
            );
        }
        if let Err(BddError::ResourceExhausted(reason)) =
            compiled.model.manager_mut().check_budget()
        {
            return Err(Exhausted(reason.to_string()));
        }
    }
    Ok(())
}
