//! The JSON wire shape of one job result.
//!
//! `smc batch --json` and the `smc serve` NDJSON protocol render the
//! same per-job object from one function, so a service response and a
//! batch report entry are field-for-field interchangeable (the batch
//! report wraps them in `{"schema":…,"jobs":[…]}`, the server in a
//! per-request envelope). The field order is part of the schema: tests
//! pin it and clients may diff outputs byte-for-byte.

use crate::job::{JobOutcome, JobResult};

pub use smc_obs::json_escape;

/// Renders the body (the fields, no surrounding braces) of one job's
/// JSON object: name, trace id, outcome, exit class, work counters,
/// per-spec verdicts (with traces when the job ran with traces on), and
/// the exhaustion/error details when present.
pub fn job_json_fields(r: &JobResult) -> String {
    let mut out = format!(
        "\"name\":\"{}\",\"trace_id\":\"{}\",\"outcome\":\"{}\",\"exit_class\":{},\"wall_us\":{},\"cache_hit\":{},\"reach_iters\":{},\"cache_lookups\":{},\"created_nodes\":{}",
        json_escape(&r.name),
        json_escape(&r.trace_id),
        r.outcome.label(),
        r.outcome.exit_class(),
        r.wall_us,
        r.cache_hit,
        r.reach_iters,
        r.cache_lookups,
        r.created_nodes
    );
    // Append-only: v2 parsers that ignore unknown keys keep working.
    if let Some(h) = &r.heap {
        out.push_str(&format!(
            ",\"heap\":{{\"live_nodes\":{},\"widest_level\":{},\"widest_width\":{}}}",
            h.live_nodes, h.widest_level, h.widest_width
        ));
    }
    let specs = match &r.outcome {
        JobOutcome::Checked { specs } => Some(specs),
        JobOutcome::Exhausted { decided, .. } => Some(decided),
        _ => None,
    };
    if let Some(specs) = specs {
        out.push_str(",\"specs\":[");
        for (j, s) in specs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"formula\":\"{}\",\"holds\":{}",
                json_escape(&s.formula),
                s.holds
            ));
            if let Some(t) = &s.trace {
                out.push_str(",\"trace\":{\"loopback\":");
                match t.loopback {
                    Some(l) => out.push_str(&l.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(",\"states\":[");
                for (k, state) in t.states.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(state));
                    out.push('"');
                }
                out.push_str("]}");
            }
            out.push('}');
        }
        out.push(']');
    }
    if let JobOutcome::Exhausted { phase, reason, .. } = &r.outcome {
        out.push_str(&format!(
            ",\"phase\":\"{}\",\"reason\":\"{}\"",
            json_escape(phase),
            json_escape(reason)
        ));
    }
    if let JobOutcome::InputError { message } = &r.outcome {
        out.push_str(&format!(",\"error\":\"{}\"", json_escape(message)));
    }
    out
}
