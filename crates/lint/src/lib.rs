//! # daisy-lint
//!
//! A zero-dependency static-analysis pass over the workspace's own
//! Rust sources, promoting the determinism contract (bit-exact results
//! and trace bytes at any thread count — see `DESIGN.md` §2b/§6d) from
//! test-time luck to a build-time gate.
//!
//! The linter lexes every workspace `.rs` file with a small hand-rolled
//! comment/string-aware lexer (no `syn`, no `regex` — consistent with
//! the repo's no-external-deps discipline), builds a workspace-wide
//! symbol table (pass 1, [`symbols`]), then checks four rule families
//! against the token streams and the table (pass 2):
//!
//! * **D-series (determinism)**: no hash-ordered iteration, wall-clock
//!   reads, rogue thread spawns, or entropy-seeded RNG construction in
//!   deterministic code.
//! * **S-series (schema)**: telemetry event names must exist in
//!   `telemetry::schema`, every schema constant must document its
//!   `Fields:` contract, and deterministic-plane events carry logical
//!   time only.
//! * **H-series (hygiene)**: crate-root `#![forbid(unsafe_code)]` +
//!   `#![warn(missing_docs)]`, per-crate unwrap/expect budgets,
//!   dimension-carrying kernel panic messages, and `unsafe` confined to
//!   audited files with a justification at each use.
//! * **Registry rules (M001/K001/W001)**: the whole tree checked
//!   against the invariant registries — the metric registry
//!   (`telemetry::schema::METRICS`), the environment-knob registry
//!   (`telemetry::knobs`, dumped by `daisy knobs`), and the wire-magic
//!   registry (`daisy_wire::magic`) — each kept in three-way sync
//!   between code, registry, and `docs/OBSERVABILITY.md`.
//!
//! Run it as `cargo run -p daisy-lint` or `daisy lint`; add
//! `--format json` for machine-readable findings or `--format sarif`
//! for a SARIF 2.1.0 log CI uploads to code scanning. Suppress an
//! intentional violation with a `// daisy-lint: allow(<RULE>)` comment
//! on (or directly above) the offending line. The full catalogue
//! lives in `docs/LINTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod schema;
pub mod symbols;
pub mod workspace;

pub use findings::{render_human, render_json, render_sarif, Finding, RuleInfo, Severity, RULES};
pub use rules::{lint_files, LintContext, LintReport};

use std::io;
use std::path::Path;

/// Path of the event vocabulary inside a workspace.
pub const SCHEMA_REL: &str = "crates/telemetry/src/schema.rs";

/// Lints the workspace rooted at `root`: collects every covered `.rs`
/// file, parses the invariant registries (event vocabulary, metric
/// registry, knob registry) plus `docs/OBSERVABILITY.md`, and runs all
/// rules.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = workspace::collect(root)?;
    let schema_src = files.iter().find(|f| f.rel == SCHEMA_REL).map(|f| f.src.as_str());
    let knobs_src = files
        .iter()
        .find(|f| f.rel == symbols::KNOBS_REL)
        .map(|f| f.src.as_str());
    let ctx = LintContext {
        events: schema_src.map(schema::parse).unwrap_or_default(),
        metrics: schema_src.map(schema::parse_metrics).unwrap_or_default(),
        knobs: knobs_src.map(schema::parse_knobs).unwrap_or_default(),
        docs: std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap_or_default(),
    };
    Ok(rules::lint_files(&files, &ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rel_matches_the_live_workspace() {
        let root = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert!(root.join(SCHEMA_REL).is_file());
    }
}
