//! Findings, rule metadata, and the human / JSON renderers.

use std::fmt;

/// How serious a finding is. Both severities gate CI — the split exists
/// so the catalogue can communicate intent (an `Error` is a contract
/// violation, a `Warning` is a convention drift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a workspace contract (determinism, schema, safety).
    Error,
    /// Violates a convention (hygiene budgets, message style).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Static description of one rule, as listed by `--list-rules` and
/// documented in `docs/LINTS.md`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id (`D001`, `S002`, ...), used in suppressions.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// True when `// daisy-lint: allow(<id>)` anywhere in the file
    /// suppresses the rule for the whole file (used by rules whose
    /// findings have no meaningful single line, e.g. missing crate
    /// attributes or per-crate budgets).
    pub file_scoped: bool,
}

/// The rule catalogue. Order is the presentation order everywhere.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        severity: Severity::Error,
        summary: "no HashMap/HashSet iteration in deterministic code (hash-seed-ordered); \
                  use BTreeMap/BTreeSet or sort first",
        file_scoped: false,
    },
    RuleInfo {
        id: "D002",
        severity: Severity::Error,
        summary: "no Instant::now/SystemTime/std::time outside telemetry's nd-marked plane",
        file_scoped: false,
    },
    RuleInfo {
        id: "D003",
        severity: Severity::Error,
        summary: "no thread spawning outside tensor::pool (the one sanctioned worker pool)",
        file_scoped: false,
    },
    RuleInfo {
        id: "D004",
        severity: Severity::Error,
        summary: "no entropy-seeded RNG or randomized-hasher construction outside tensor::rng",
        file_scoped: false,
    },
    RuleInfo {
        id: "S001",
        severity: Severity::Error,
        summary: "telemetry event names must come from telemetry::schema (literal or schema:: \
                  constant found in the vocabulary)",
        file_scoped: false,
    },
    RuleInfo {
        id: "S002",
        severity: Severity::Error,
        summary: "every telemetry::schema constant must document its `Fields:` contract",
        file_scoped: false,
    },
    RuleInfo {
        id: "S003",
        severity: Severity::Error,
        summary: "deterministic-plane events carry logical time only; wall-clock field names \
                  (ms/wall/elapsed/...) are reserved for telemetry's nd plane",
        file_scoped: false,
    },
    RuleInfo {
        id: "S004",
        severity: Severity::Error,
        summary: "profiler phase names must come from telemetry::schema::PHASES so traces, \
                  /metrics labels, and `daisy top` agree on one vocabulary",
        file_scoped: false,
    },
    RuleInfo {
        id: "H001",
        severity: Severity::Error,
        summary: "crate roots must carry #![forbid(unsafe_code)]",
        file_scoped: true,
    },
    RuleInfo {
        id: "H002",
        severity: Severity::Error,
        summary: "crate roots must carry #![warn(missing_docs)]",
        file_scoped: true,
    },
    RuleInfo {
        id: "H003",
        severity: Severity::Warning,
        summary: "per-crate unwrap()/expect() budget (counted baseline; new ones must be \
                  handled or the baseline consciously raised)",
        file_scoped: true,
    },
    RuleInfo {
        id: "H004",
        severity: Severity::Warning,
        summary: "tensor kernel assertions must carry dimension-bearing panic messages",
        file_scoped: false,
    },
    RuleInfo {
        id: "H005",
        severity: Severity::Error,
        summary: "unsafe code only in the audited files (tensor pool.rs and linalg.rs, serve \
                  shutdown.rs), each unsafe block or impl under a // SAFETY: comment and \
                  each unsafe fn with a # Safety doc section",
        file_scoped: false,
    },
    RuleInfo {
        id: "M001",
        severity: Severity::Error,
        summary: "metrics must be registered in telemetry::schema::METRICS with a fixed kind, \
                  emitted somewhere, and documented in docs/OBSERVABILITY.md",
        file_scoped: false,
    },
    RuleInfo {
        id: "K001",
        severity: Severity::Error,
        summary: "DAISY_* environment reads must go through telemetry::knobs; every mentioned \
                  knob must be registered and documented in docs/OBSERVABILITY.md",
        file_scoped: false,
    },
    RuleInfo {
        id: "W001",
        severity: Severity::Error,
        summary: "wire magics are declared exactly once, in daisy_wire::magic; no duplicate or \
                  inlined magic values elsewhere",
        file_scoped: false,
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One lint finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (always one of [`RULES`]).
    pub rule: &'static str,
    /// Severity inherited from the rule.
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message with the specifics.
    pub message: String,
}

impl Finding {
    /// Builds a finding, pulling severity from the catalogue.
    pub fn new(rule_id: &'static str, file: &str, line: u32, message: String) -> Finding {
        let info = rule(rule_id).unwrap_or_else(|| panic!("unknown rule id {rule_id}"));
        Finding {
            rule: rule_id,
            severity: info.severity,
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Renders findings for humans, one block per finding plus a summary
/// line. Deterministic: the caller sorts findings first.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}\n",
            f.severity, f.rule, f.message, f.file, f.line
        ));
    }
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.len() - errors;
    out.push_str(&format!(
        "daisy-lint: {files_scanned} files scanned, {errors} errors, {warnings} warnings\n"
    ));
    out
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a single machine-readable JSON object:
///
/// ```json
/// {"tool":"daisy-lint","version":1,
///  "summary":{"files":N,"errors":E,"warnings":W},
///  "findings":[{"rule":"D001","severity":"error","file":"...","line":1,
///               "message":"..."}]}
/// ```
///
/// Output is deterministic (sorted findings, fixed key order) so CI
/// artifacts diff cleanly between runs.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.len() - errors;
    let mut out = String::from("{\"tool\":\"daisy-lint\",\"version\":1,");
    out.push_str(&format!(
        "\"summary\":{{\"files\":{files_scanned},\"errors\":{errors},\"warnings\":{warnings}}},"
    ));
    out.push_str("\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule,
            f.severity,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Renders findings as a SARIF 2.1.0 log with one run, so CI can
/// upload the output for inline code-scanning annotations. The shape
/// is minimal but valid: `runs[0].tool.driver` names the tool and
/// carries the full rule catalogue; each result holds `ruleId`,
/// `level`, `message.text`, and one physical location
/// (`artifactLocation.uri` + `region.startLine`). Deterministic for
/// the same reasons as [`render_json`].
pub fn render_sarif(findings: &[Finding], _files_scanned: usize) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"daisy-lint\",\"informationUri\":\"docs/LINTS.md\",\"rules\":[",
    );
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            r.id,
            json_escape(r.summary)
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            f.rule,
            json_escape(&f.message),
            json_escape(&f.file),
            f.line.max(1)
        ));
    }
    out.push_str("]}]}");
    out
}

/// Sorts findings into the canonical presentation order:
/// file, then line, then rule id.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(rule(r.id).is_some());
            for other in &RULES[i + 1..] {
                assert_ne!(r.id, other.id);
            }
        }
    }

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![Finding::new(
            "D001",
            "crates/x/src/lib.rs",
            3,
            "say \"no\"\nplease".to_string(),
        )];
        let json = render_json(&findings, 7);
        assert!(json.contains("\\\"no\\\"\\nplease"));
        assert!(json.contains("\"summary\":{\"files\":7,\"errors\":1,\"warnings\":0}"));
    }

    #[test]
    fn sort_is_by_file_line_rule() {
        let mut f = vec![
            Finding::new("H004", "b.rs", 2, String::new()),
            Finding::new("D001", "b.rs", 2, String::new()),
            Finding::new("D002", "a.rs", 9, String::new()),
        ];
        sort(&mut f);
        let order: Vec<_> = f.iter().map(|x| (x.file.as_str(), x.line, x.rule)).collect();
        assert_eq!(order, vec![("a.rs", 9, "D002"), ("b.rs", 2, "D001"), ("b.rs", 2, "H004")]);
    }
}
