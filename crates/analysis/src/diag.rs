//! The diagnostics engine: stable codes, severities, source spans and
//! the two renderers (human-readable with source snippets, and JSON
//! lines for tooling).
//!
//! # Code registry
//!
//! Codes are stable across releases; tools may match on them.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | E001 | error    | syntax error |
//! | E002 | error    | semantic error (unknown construct, type mismatch) |
//! | E003 | error    | model-layer error (empty initial set, ...) |
//! | E010 | error    | undeclared identifier |
//! | E011 | error    | duplicate `ASSIGN` to the same variable |
//! | E012 | error    | constant outside the assigned variable's domain |
//! | W001 | warning  | variable declared but never used |
//! | W002 | warning  | variable assigned but never read |
//! | W003 | warning  | `case` branch shadowed by an earlier `TRUE` guard |
//! | W004 | warning  | circular `next()` dependency between assignments |
//! | W005 | warning  | comparison with a constant outside the domain |
//! | W010 | warning  | transition relation not total (reachable deadlock) |
//! | W011 | warning  | `case` branch never taken on any relevant state |
//! | W012 | warning  | fairness constraint unsatisfiable or unreachable |
//! | W020 | warning  | specification passes vacuously |
//! | W021 | warning  | variable provably frozen at one value |
//! | W022 | warning  | variable influences no specification (outside every cone) |

use smc_obs::json_escape;
use smc_smv::Span;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The model is suspicious but loadable.
    Warning,
    /// The model cannot be compiled (or is certainly wrong).
    Error,
}

impl Severity {
    /// The lowercase wire name (`"warning"` / `"error"`), matching the
    /// vocabulary of [`smc_obs::Event::Diagnostic`].
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: a stable code, a severity, a message, an optional
/// source span and free-form notes (evidence, witnesses, hints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`E0xx` / `W0xx`; see the module table).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// One-line human description.
    pub message: String,
    /// Byte span in the source, when the finding has one.
    pub span: Option<Span>,
    /// Extra lines: evidence states, witness traces, hints.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>, span: Option<Span>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(
        code: &'static str,
        message: impl Into<String>,
        span: Option<Span>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Builder-style: appends a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

/// The result of one analysis run: every finding, plus whether the run
/// was cut short by the resource governor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings, sorted by source position then code.
    pub diagnostics: Vec<Diagnostic>,
    /// `Some(reason)` when the governor stopped the run before every
    /// pass finished; the diagnostics gathered so far are still valid.
    pub exhausted: Option<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Sorts findings by source position (span-less findings last), then
    /// by code, then by message, giving a deterministic presentation.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let ka = a.span.map_or(usize::MAX, |s| s.start);
            let kb = b.span.map_or(usize::MAX, |s| s.start);
            ka.cmp(&kb).then_with(|| a.code.cmp(b.code)).then_with(|| a.message.cmp(&b.message))
        });
    }

    /// The process exit code mandated for this report: 3 when the
    /// governor tripped, 2 on errors, 1 on warnings only, 0 when clean.
    pub fn exit_code(&self) -> i32 {
        if self.exhausted.is_some() {
            3
        } else if self.has_errors() {
            2
        } else if !self.diagnostics.is_empty() {
            1
        } else {
            0
        }
    }

    /// Renders the report for humans: one block per finding with a
    /// `file:line:col` locus, the offending source line with a caret
    /// underline, and `= note:` lines, followed by a summary line.
    pub fn render_human(&self, file: &str, source: &str) -> String {
        let lines = LineIndex::new(source);
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity.as_str(), d.code, d.message));
            if let Some(span) = d.span {
                let (line, col) = lines.locate(span.start);
                out.push_str(&format!("  --> {file}:{line}:{col}\n"));
                if let Some(text) = lines.line_text(source, line) {
                    let gutter = format!("{line}");
                    let pad = " ".repeat(gutter.len());
                    out.push_str(&format!("{pad} |\n"));
                    out.push_str(&format!("{gutter} | {text}\n"));
                    let width = caret_width(span, text, col);
                    out.push_str(&format!(
                        "{pad} | {}{}\n",
                        " ".repeat(col - 1),
                        "^".repeat(width)
                    ));
                }
            }
            for note in &d.notes {
                out.push_str(&format!("  = note: {note}\n"));
            }
            out.push('\n');
        }
        if let Some(reason) = &self.exhausted {
            out.push_str(&format!("analysis stopped early: {reason}\n"));
        }
        let (e, w) = (self.error_count(), self.warning_count());
        out.push_str(&format!("{file}: {e} error{}, {w} warning{}\n", plural(e), plural(w)));
        out
    }

    /// Renders the report as a single JSON object (stable field names;
    /// spans are byte offsets, `line`/`col` are 1-based).
    pub fn render_json(&self, file: &str, source: &str) -> String {
        let lines = LineIndex::new(source);
        let mut out = String::from("{");
        out.push_str(&format!("\"file\":\"{}\",", json_escape(file)));
        match &self.exhausted {
            Some(r) => out.push_str(&format!("\"exhausted\":\"{}\",", json_escape(r))),
            None => out.push_str("\"exhausted\":null,"),
        }
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
                d.code,
                d.severity.as_str(),
                json_escape(&d.message)
            ));
            match d.span {
                Some(s) => {
                    let (line, col) = lines.locate(s.start);
                    out.push_str(&format!(
                        ",\"start\":{},\"end\":{},\"line\":{line},\"col\":{col}",
                        s.start, s.end
                    ));
                }
                None => out.push_str(",\"start\":null,\"end\":null,\"line\":null,\"col\":null"),
            }
            out.push_str(",\"notes\":[");
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json_escape(n)));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Width of the caret underline: the span clamped to its first line, at
/// least one column.
fn caret_width(span: Span, line_text: &str, col: usize) -> usize {
    let len = span.end.saturating_sub(span.start).max(1);
    let room = line_text.len().saturating_sub(col - 1).max(1);
    len.min(room)
}

/// Byte-offset → (line, col) mapping. Both are 1-based; columns count
/// bytes (SMV sources are ASCII in practice).
pub(crate) struct LineIndex {
    /// Byte offset at which each line starts.
    starts: Vec<usize>,
}

impl LineIndex {
    pub(crate) fn new(source: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// (line, col), both 1-based, for a byte offset.
    pub(crate) fn locate(&self, offset: usize) -> (usize, usize) {
        let idx = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx + 1, offset - self.starts[idx] + 1)
    }

    /// The text of a 1-based line, without its newline.
    pub(crate) fn line_text<'s>(&self, source: &'s str, line: usize) -> Option<&'s str> {
        let start = *self.starts.get(line - 1)?;
        let end = self.starts.get(line).map_or(source.len(), |e| e - 1);
        source.get(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_contract() {
        let mut r = Report::new();
        assert_eq!(r.exit_code(), 0);
        r.push(Diagnostic::warning("W001", "unused", None));
        assert_eq!(r.exit_code(), 1);
        r.push(Diagnostic::error("E010", "unknown", None));
        assert_eq!(r.exit_code(), 2);
        r.exhausted = Some("deadline".into());
        assert_eq!(r.exit_code(), 3);
    }

    #[test]
    fn line_index_locates_offsets() {
        let src = "ab\ncde\n\nf";
        let ix = LineIndex::new(src);
        assert_eq!(ix.locate(0), (1, 1));
        assert_eq!(ix.locate(1), (1, 2));
        assert_eq!(ix.locate(3), (2, 1));
        assert_eq!(ix.locate(5), (2, 3));
        assert_eq!(ix.locate(7), (3, 1));
        assert_eq!(ix.locate(8), (4, 1));
        assert_eq!(ix.line_text(src, 2), Some("cde"));
        assert_eq!(ix.line_text(src, 3), Some(""));
        assert_eq!(ix.line_text(src, 4), Some("f"));
    }

    #[test]
    fn human_rendering_includes_snippet_and_caret() {
        let src = "MODULE main\nVAR x : boolean;\n";
        let mut r = Report::new();
        r.push(
            Diagnostic::warning("W001", "variable `x` is never used", Some(Span::new(16, 17)))
                .with_note("declare it where it is needed"),
        );
        let text = r.render_human("demo.smv", src);
        assert!(text.contains("warning[W001]: variable `x` is never used"), "{text}");
        assert!(text.contains("--> demo.smv:2:5"), "{text}");
        assert!(text.contains("2 | VAR x : boolean;"), "{text}");
        assert!(text.contains("|     ^"), "{text}");
        assert!(text.contains("= note: declare it"), "{text}");
        assert!(text.contains("demo.smv: 0 errors, 1 warning"), "{text}");
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let src = "MODULE main\n";
        let mut r = Report::new();
        r.push(Diagnostic::error("E010", "unknown identifier `y\"`", Some(Span::new(0, 6))));
        r.push(Diagnostic::warning("W010", "deadlock", None).with_note("stuck: x=0"));
        let json = r.render_json("m.smv", src);
        assert!(json.contains("\"code\":\"E010\""), "{json}");
        assert!(json.contains("\\\"`"), "{json}");
        assert!(json.contains("\"line\":1,\"col\":1"), "{json}");
        assert!(json.contains("\"start\":null"), "{json}");
        assert!(json.contains("\"errors\":1,\"warnings\":1"), "{json}");
        assert!(json.contains("\"notes\":[\"stuck: x=0\"]"), "{json}");
    }

    #[test]
    fn sort_orders_by_span_then_code() {
        let mut r = Report::new();
        r.push(Diagnostic::warning("W010", "late", None));
        r.push(Diagnostic::warning("W003", "mid", Some(Span::new(10, 12))));
        r.push(Diagnostic::error("E010", "early", Some(Span::new(2, 4))));
        r.push(Diagnostic::warning("W001", "also mid", Some(Span::new(10, 11))));
        r.sort();
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["E010", "W001", "W003", "W010"]);
    }
}
