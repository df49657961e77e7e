//! The rule implementations.
//!
//! Three families, mirroring `docs/LINTS.md`:
//!
//! * **D — determinism**: the bit-exact-at-any-thread-count contract
//!   (PR 2–4) must not be eroded by hash-ordered iteration, wall-clock
//!   reads, rogue threads, or entropy-seeded RNGs.
//! * **S — schema**: telemetry emitters and the event vocabulary in
//!   `telemetry::schema` must not drift apart.
//! * **H — hygiene**: crate-root attributes, unwrap/expect budgets,
//!   dimension-carrying kernel panics, audited `unsafe`.
//!
//! Every rule is lexical (token shapes over the [`crate::lexer`]
//! stream), which buys zero dependencies at the price of known
//! heuristics; the catalogue documents each rule's blind spots.

use crate::findings::{rule, Finding};
use crate::lexer::{self, Lexed, Tok, TokKind};
use crate::schema::{EventSchema, KnobRegistry, MetricRegistry};
use crate::symbols::{self, SymbolTable};
use crate::workspace::{FileKind, SourceFile, Suppressions};
use std::collections::{BTreeMap, BTreeSet};

/// Per-crate unwrap()/expect() budgets for H003, counted over non-test
/// `src/` code. This is a **ratchet baseline**: lowering a number is
/// always welcome; raising one is a conscious, reviewed decision.
pub const UNWRAP_BUDGETS: &[(&str, usize)] = &[
    ("baselines", 2),
    ("bench", 1),
    ("core", 10),
    ("daisy", 0),
    ("data", 3),
    ("datasets", 0),
    ("eval", 10),
    ("lint", 0),
    ("nn", 1),
    ("serve", 0),
    ("telemetry", 10),
    ("tensor", 9),
    ("wire", 4),
];

/// Files exempt from D002: the telemetry crate is the workspace's one
/// sanctioned wall-clock plane (its events mark themselves `nd`).
const TIME_EXEMPT_PREFIX: &str = "crates/telemetry/";
/// The one file allowed to spawn threads (D003).
const POOL_FILE: &str = "crates/tensor/src/pool.rs";
/// The one file allowed to construct entropy/hasher randomness (D004).
const RNG_FILE: &str = "crates/tensor/src/rng.rs";
/// Kernel files whose assertions must carry dimensions (H004).
const KERNEL_FILES: &[&str] = &["crates/tensor/src/linalg.rs", "crates/tensor/src/conv.rs"];
/// The audited files allowed to hold `unsafe` and `allow(unsafe_code)`
/// (H005): the worker pool's job dispatch, the AVX2 matmul tile and the
/// SIGTERM handler's FFI call.
const UNSAFE_FILES: &[&str] = &[
    "crates/serve/src/shutdown.rs",
    "crates/tensor/src/linalg.rs",
    "crates/tensor/src/pool.rs",
];

/// Map/set methods whose iteration order is hash-seed-dependent.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Field names that denote wall-clock measurements (S003).
const WALL_FIELDS: &[&str] = &[
    "ms",
    "wall",
    "wall_ms",
    "elapsed",
    "elapsed_ms",
    "duration",
    "duration_ms",
    "nanos",
    "micros",
    "secs",
    "seconds",
];

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Everything pass 2 checks the tree against: the parsed invariant
/// registries plus the documentation text their entries must appear
/// in. [`crate::lint_workspace`] assembles this from the live
/// workspace; fixture tests construct it directly.
#[derive(Debug, Default)]
pub struct LintContext {
    /// The telemetry event vocabulary (S001–S004).
    pub events: EventSchema,
    /// The metric registry (M001).
    pub metrics: MetricRegistry,
    /// The environment-knob registry (K001).
    pub knobs: KnobRegistry,
    /// `docs/OBSERVABILITY.md` text; M001/K001 require every
    /// registered metric and knob name to appear in it.
    pub docs: String,
}

/// Lints a set of in-memory source files against the workspace
/// registries. This is the engine behind [`crate::lint_workspace`];
/// tests call it directly with fixture files.
///
/// Two passes: pass 1 lexes every file and builds the workspace
/// [`SymbolTable`]; pass 2 runs the per-file rules (with cross-crate
/// name resolution through the table) and then the workspace-level
/// registry rules M001 / K001 / W001.
pub fn lint_files(files: &[SourceFile], ctx: &LintContext) -> LintReport {
    let mut all: Vec<Finding> = Vec::new();
    let mut lexed_files: Vec<(usize, Lexed, Suppressions, u32)> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        let lexed = lexer::lex(&file.src);
        let suppressions = Suppressions::parse(&lexed.comments);
        let cut = test_cut_line(&lexed.toks);
        lexed_files.push((idx, lexed, suppressions, cut));
    }

    // Pass 1: the workspace symbol table.
    let views: Vec<(&SourceFile, &[Tok], u32)> = lexed_files
        .iter()
        .map(|(idx, lexed, _, cut)| (&files[*idx], lexed.toks.as_slice(), *cut))
        .collect();
    let table = symbols::build(&views);

    // Pass 2: per-file rules.
    for (idx, lexed, _, cut) in &lexed_files {
        let file = &files[*idx];
        check_d001_hash_iteration(file, lexed, &mut all);
        check_d002_wall_clock(file, lexed, &mut all);
        check_d003_thread_spawn(file, lexed, &mut all);
        check_d004_rng_construction(file, lexed, &mut all);
        if file.kind == FileKind::Src && !file.rel.starts_with(TIME_EXEMPT_PREFIX) {
            check_s001_s003_event_calls(file, lexed, *cut, &ctx.events, &table, &mut all);
            check_s004_phase_literals(file, lexed, *cut, &ctx.events, &table, &mut all);
        }
        if file.rel == "crates/telemetry/src/schema.rs" {
            check_s002_schema_docs(file, &mut all);
        }
        if file.is_crate_root() {
            check_h001_h002_root_attrs(file, lexed, &mut all);
        }
        if KERNEL_FILES.contains(&file.rel.as_str()) {
            check_h004_kernel_panics(file, lexed, *cut, &mut all);
        }
        if file.kind != FileKind::Test {
            check_h005_unsafe(file, lexed, *cut, &mut all);
        }
    }

    check_h003_unwrap_budget(files, &lexed_files, &mut all);

    // Pass 2, workspace-level: the registry rules.
    check_m001_metric_registry(ctx, &table, &mut all);
    check_k001_knob_registry(ctx, &table, &mut all);
    check_w001_wire_magics(&table, &mut all);

    // Apply suppressions, dedupe (several patterns can fire on one
    // line, e.g. `use std::time::Instant`), and sort.
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    let mut kept = Vec::new();
    for f in all {
        let file_scoped = rule(f.rule).is_some_and(|r| r.file_scoped);
        let suppressed = lexed_files.iter().any(|(idx, _, sup, _)| {
            files[*idx].rel == f.file && sup.allows(f.rule, f.line, file_scoped)
        });
        if suppressed {
            continue;
        }
        if seen.insert((f.file.clone(), f.line, f.rule)) {
            kept.push(f);
        }
    }
    crate::findings::sort(&mut kept);
    LintReport {
        findings: kept,
        files_scanned: files.len(),
    }
}

/// Line of the first `#[cfg(test)]` attribute, or `u32::MAX` when the
/// file has none. By workspace convention test modules close out a
/// file, so "every line at or after the first `#[cfg(test)]`" is the
/// test region for the rules that exempt tests (S001, H003).
pub(crate) fn test_cut_line(toks: &[Tok]) -> u32 {
    for w in toks.windows(7) {
        if w[0].is_punct('#')
            && w[1].is_punct('[')
            && w[2].is_ident("cfg")
            && w[3].is_punct('(')
            && w[4].is_ident("test")
            && w[5].is_punct(')')
            && w[6].is_punct(']')
        {
            return w[0].line;
        }
    }
    u32::MAX
}

// ----- D001: HashMap/HashSet iteration -----

fn check_d001_hash_iteration(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    // Pass 1: names bound to hash-ordered collections, via type
    // annotations (`name: HashMap<..>`, incl. `std::collections::`
    // paths and struct fields) and constructor bindings
    // (`let name = HashMap::new()`).
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over path segments / references to the annotation.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1];
            if prev.is_punct(':')
                || prev.is_punct('&')
                || prev.is_ident("std")
                || prev.is_ident("collections")
                || prev.is_ident("mut")
                || prev.kind == TokKind::Lifetime
            {
                j -= 1;
            } else {
                break;
            }
        }
        let crossed_colon = j < i && toks[j..i].iter().any(|t| t.is_punct(':'));
        if crossed_colon && j > 0 && toks[j - 1].kind == TokKind::Ident {
            hash_names.insert(toks[j - 1].text.clone());
        }
        // `name = HashMap::new(...)` / `HashSet::with_capacity(...)`.
        if i >= 2 && toks[i - 1].is_punct('=') && toks[i - 2].kind == TokKind::Ident {
            hash_names.insert(toks[i - 2].text.clone());
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2: flag hash-ordered iteration over tracked names.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !hash_names.contains(&toks[i].text) {
            continue;
        }
        // name.iter() / .keys() / ... — anything order-dependent.
        if i + 3 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('(')
        {
            out.push(Finding::new(
                "D001",
                &file.rel,
                toks[i + 2].line,
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet in hash-seed order; use \
                     BTreeMap/BTreeSet or collect-and-sort before iterating",
                    toks[i].text, toks[i + 2].text
                ),
            ));
        }
        // for pat in [&[mut]] name { ... }
        if i + 1 < toks.len() && toks[i + 1].is_punct('{') {
            let mut j = i;
            while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j > 0 && toks[j - 1].is_ident("in") {
                out.push(Finding::new(
                    "D001",
                    &file.rel,
                    toks[i].line,
                    format!(
                        "`for .. in {}` iterates a HashMap/HashSet in hash-seed order; use \
                         BTreeMap/BTreeSet or collect-and-sort before iterating",
                        toks[i].text
                    ),
                ));
            }
        }
    }
}

// ----- D002: wall-clock reads -----

fn check_d002_wall_clock(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    if file.rel.starts_with(TIME_EXEMPT_PREFIX) {
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let flagged = if toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime") {
            Some(toks[i].text.as_str())
        } else if toks[i].is_ident("std")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("time")
        {
            Some("std::time")
        } else {
            None
        };
        if let Some(what) = flagged {
            out.push(Finding::new(
                "D002",
                &file.rel,
                toks[i].line,
                format!(
                    "`{what}` reads the wall clock in deterministic code; wall time may only \
                     enter telemetry's nd-marked plane (crates/telemetry)"
                ),
            ));
        }
    }
}

// ----- D003: thread spawning -----

fn check_d003_thread_spawn(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    if file.rel == POOL_FILE {
        return;
    }
    let toks = &lexed.toks;
    for i in 1..toks.len() {
        if toks[i].is_ident("spawn")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
            && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
        {
            out.push(Finding::new(
                "D003",
                &file.rel,
                toks[i].line,
                "thread spawning outside tensor::pool breaks the deterministic scheduling \
                 contract; dispatch work through the worker pool instead"
                    .to_string(),
            ));
        }
    }
}

// ----- D004: RNG construction -----

fn check_d004_rng_construction(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    if file.rel == RNG_FILE {
        return;
    }
    const BANNED: &[&str] = &[
        "RandomState",
        "DefaultHasher",
        "thread_rng",
        "from_entropy",
        "getrandom",
    ];
    for t in &lexed.toks {
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            out.push(Finding::new(
                "D004",
                &file.rel,
                t.line,
                format!(
                    "`{}` constructs nondeterministic randomness; all RNG streams must come \
                     from tensor::rng's seeded generator",
                    t.text
                ),
            ));
        }
    }
}

// ----- S001 / S003: event emission call sites -----

/// Finds `emit(...)` and `Event::new(...)` calls;
/// checks the event-name argument against the vocabulary (S001) and
/// field-name literals against the wall-clock blocklist (S003). Both
/// rules skip the file's test region.
///
/// The name argument resolves in three steps: a string literal checks
/// directly; a `schema::IDENT` path checks the vocabulary's constant
/// names; any other SCREAMING_CASE identifier (bare or path-final,
/// e.g. `tschema::INGEST_START` in another crate) resolves through
/// the vocabulary first and then the workspace symbol table — the
/// cross-crate upgrade. An identifier bound to more than one value
/// across the workspace is ambiguous and skipped (documented blind
/// spot).
fn check_s001_s003_event_calls(
    file: &SourceFile,
    lexed: &Lexed,
    test_cut: u32,
    schema: &EventSchema,
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if toks[i].line >= test_cut {
            break;
        }
        let is_emit_like =
            toks[i].is_ident("emit") && i + 1 < toks.len() && toks[i + 1].is_punct('(');
        let is_event_new = toks[i].is_ident("Event")
            && i + 4 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("new")
            && toks[i + 4].is_punct('(');
        if !is_emit_like && !is_event_new {
            continue;
        }
        let open = if is_emit_like { i + 1 } else { i + 4 };
        let close = match matching_paren(toks, open) {
            Some(c) => c,
            None => continue,
        };
        // --- S001: the event-name argument ---
        let arg = &toks[open + 1..close];
        let first_comma = top_level_comma(arg);
        let name_arg = &arg[..first_comma.unwrap_or(arg.len())];
        if name_arg.len() == 1 && name_arg[0].kind == TokKind::Str {
            if !schema.has_name(&name_arg[0].text) {
                out.push(Finding::new(
                    "S001",
                    &file.rel,
                    name_arg[0].line,
                    format!(
                        "event name \"{}\" is not in telemetry::schema; add it to \
                         crates/telemetry/src/schema.rs (with a `Fields:` doc) or use an \
                         existing constant",
                        name_arg[0].text
                    ),
                ));
            }
        } else if let Some(ident) = schema_const_ref(name_arg) {
            if !schema.has_const(&ident) {
                out.push(Finding::new(
                    "S001",
                    &file.rel,
                    name_arg.first().map(|t| t.line).unwrap_or(toks[i].line),
                    format!("`schema::{ident}` does not exist in crates/telemetry/src/schema.rs"),
                ));
            }
        } else if let Some((ident, line)) = final_screaming_ident(name_arg) {
            // Cross-crate: a constant declared anywhere in the
            // workspace, reached bare or through a non-`schema` path.
            if !schema.has_const(&ident) {
                if let Some(value) = table.resolve_str_const(&ident) {
                    if !schema.has_name(value) {
                        out.push(Finding::new(
                            "S001",
                            &file.rel,
                            line,
                            format!(
                                "`{ident}` resolves to \"{value}\", which is not in \
                                 telemetry::schema; add the event to \
                                 crates/telemetry/src/schema.rs or use an existing constant"
                            ),
                        ));
                    }
                }
            }
        }
        // --- S003: wall-clock field names anywhere in the call ---
        for k in 0..arg.len().saturating_sub(2) {
            if arg[k].is_ident("field")
                && arg[k + 1].is_punct('(')
                && arg[k + 2].kind == TokKind::Str
                && WALL_FIELDS.contains(&arg[k + 2].text.as_str())
            {
                out.push(Finding::new(
                    "S003",
                    &file.rel,
                    arg[k + 2].line,
                    format!(
                        "field \"{}\" smells like wall-clock time on the deterministic event \
                         plane; deterministic events carry logical time only (epoch/step/seq) — \
                         wall measurements belong in telemetry's nd-marked events",
                        arg[k + 2].text
                    ),
                ));
            }
        }
    }
}

/// Index of the matching `)` for the `(` at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the first comma at bracket depth 0 in `toks`.
fn top_level_comma(toks: &[Tok]) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// Extracts the final SCREAMING_CASE identifier from a bare-ident or
/// path argument (`EPOCH`, `tschema :: INGEST_START`), for cross-crate
/// constant resolution. Returns `None` for anything more complex than
/// a path (calls, concatenations) or for non-constant-style idents.
fn final_screaming_ident(arg: &[Tok]) -> Option<(String, u32)> {
    let last = arg.last()?;
    if last.kind != TokKind::Ident
        || !arg.iter().all(|t| t.kind == TokKind::Ident || t.is_punct(':'))
    {
        return None;
    }
    let name = &last.text;
    let screaming = name.chars().any(|c| c.is_ascii_uppercase())
        && !name.chars().any(|c| c.is_ascii_lowercase());
    screaming.then(|| (name.clone(), last.line))
}

/// Extracts `IDENT` from a `[path ::] schema :: IDENT` argument.
fn schema_const_ref(arg: &[Tok]) -> Option<String> {
    for k in 0..arg.len().saturating_sub(3) {
        if arg[k].is_ident("schema")
            && arg[k + 1].is_punct(':')
            && arg[k + 2].is_punct(':')
            && arg[k + 3].kind == TokKind::Ident
        {
            return Some(arg[k + 3].text.clone());
        }
    }
    None
}

// ----- S004: profiler phase names -----

/// Finds `phase_scope!("...")` and `profile::scope(...)` call sites
/// and checks the phase name against the `PHASES` vocabulary, so
/// traces, `/metrics` labels, and `daisy top` never drift apart. A
/// `profile::scope(IDENT)` argument resolves cross-crate through the
/// workspace symbol table when the constant binds unambiguously.
/// Skips the file's test region (tests profile synthetic phase trees).
fn check_s004_phase_literals(
    file: &SourceFile,
    lexed: &Lexed,
    test_cut: u32,
    schema: &EventSchema,
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let flag = |name: &str, line: u32, out: &mut Vec<Finding>| {
        out.push(Finding::new(
            "S004",
            &file.rel,
            line,
            format!(
                "phase \"{name}\" is not in telemetry::schema::PHASES; add it there so \
                 traces, /metrics labels, /profile and `daisy top` stay in sync"
            ),
        ));
    };
    for i in 0..toks.len() {
        if toks[i].line >= test_cut {
            break;
        }
        // phase_scope ! ( "lit" )
        let macro_lit = (toks[i].is_ident("phase_scope")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('(')
            && toks[i + 3].kind == TokKind::Str)
            .then(|| &toks[i + 3]);
        // profile :: scope ( "lit" )
        let fn_lit = (toks[i].is_ident("profile")
            && i + 5 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("scope")
            && toks[i + 4].is_punct('(')
            && toks[i + 5].kind == TokKind::Str)
            .then(|| &toks[i + 5]);
        if let Some(lit) = macro_lit.or(fn_lit) {
            if !schema.has_phase(&lit.text) {
                flag(&lit.text, lit.line, out);
            }
            continue;
        }
        // profile :: scope ( IDENT ) — cross-crate constant.
        if toks[i].is_ident("profile")
            && i + 6 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("scope")
            && toks[i + 4].is_punct('(')
            && toks[i + 5].kind == TokKind::Ident
            && toks[i + 6].is_punct(')')
        {
            if let Some(value) = table.resolve_str_const(&toks[i + 5].text) {
                if !schema.has_phase(value) {
                    flag(value, toks[i + 5].line, out);
                }
            }
        }
    }
}

// ----- S002: schema doc contracts -----

fn check_s002_schema_docs(file: &SourceFile, out: &mut Vec<Finding>) {
    let schema = crate::schema::parse(&file.src);
    for (ident, doc) in &schema.docs {
        if !doc.contains("Fields:") {
            out.push(Finding::new(
                "S002",
                &file.rel,
                schema.lines.get(ident).copied().unwrap_or(1),
                format!(
                    "schema constant `{ident}` does not document its `Fields:` contract; \
                     emitters and the report renderer drift apart without it"
                ),
            ));
        }
    }
}

// ----- H001 / H002: crate-root attributes -----

fn check_h001_h002_root_attrs(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let has_attr = |lint_name: &str, levels: &[&str]| {
        toks.windows(4).any(|w| {
            w[0].kind == TokKind::Ident
                && levels.contains(&w[0].text.as_str())
                && w[1].is_punct('(')
                && w[2].is_ident(lint_name)
                && w[3].is_punct(')')
        })
    };
    if !has_attr("unsafe_code", &["forbid", "deny"]) {
        out.push(Finding::new(
            "H001",
            &file.rel,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !has_attr("missing_docs", &["warn", "deny"]) {
        out.push(Finding::new(
            "H002",
            &file.rel,
            1,
            "crate root is missing `#![warn(missing_docs)]`".to_string(),
        ));
    }
}

// ----- H003: unwrap/expect budget -----

fn check_h003_unwrap_budget(
    files: &[SourceFile],
    lexed_files: &[(usize, Lexed, Suppressions, u32)],
    out: &mut Vec<Finding>,
) {
    let budgets: BTreeMap<&str, usize> = UNWRAP_BUDGETS.iter().copied().collect();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, lexed, _, cut) in lexed_files {
        let file = &files[*idx];
        if file.kind != FileKind::Src {
            continue;
        }
        let mut n = 0usize;
        let toks = &lexed.toks;
        for i in 1..toks.len() {
            if toks[i].line >= *cut {
                break;
            }
            if (toks[i].is_ident("unwrap") || toks[i].is_ident("expect"))
                && toks[i - 1].is_punct('.')
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('(')
            {
                n += 1;
            }
        }
        *counts.entry(file.crate_key.clone()).or_insert(0) += n;
    }
    for (crate_key, count) in &counts {
        let budget = budgets.get(crate_key.as_str()).copied();
        let root_rel = if crate_key == "daisy" {
            "src/lib.rs".to_string()
        } else {
            format!("crates/{crate_key}/src/lib.rs")
        };
        match budget {
            Some(budget) if *count > budget => out.push(Finding::new(
                "H003",
                &root_rel,
                1,
                format!(
                    "crate `{crate_key}` has {count} unwrap()/expect() calls in non-test code, \
                     over its budget of {budget}; handle the error (and keep the budget) or \
                     consciously raise the baseline in crates/lint/src/rules.rs"
                ),
            )),
            None if *count > 0 => out.push(Finding::new(
                "H003",
                &root_rel,
                1,
                format!(
                    "crate `{crate_key}` has no unwrap()/expect() budget; add a baseline entry \
                     to UNWRAP_BUDGETS in crates/lint/src/rules.rs"
                ),
            )),
            _ => {}
        }
    }
}

// ----- H004: dimension-carrying kernel panics -----

fn check_h004_kernel_panics(
    file: &SourceFile,
    lexed: &Lexed,
    test_cut: u32,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    const MACROS: &[&str] = &["assert", "assert_eq", "assert_ne", "panic"];
    for i in 0..toks.len() {
        if toks[i].line >= test_cut {
            break;
        }
        if toks[i].kind != TokKind::Ident || !MACROS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if !(i + 2 < toks.len() && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('(')) {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 2) else {
            continue;
        };
        let has_dimension_message = toks[i + 3..close]
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains('{'));
        if !has_dimension_message {
            out.push(Finding::new(
                "H004",
                &file.rel,
                toks[i].line,
                format!(
                    "kernel `{}!` without a dimension-carrying message; panic text must \
                     interpolate the offending shapes (e.g. \"matmul {{m}}x{{k}} · {{k2}}x{{n}}\")",
                    toks[i].text
                ),
            ));
        }
    }
}

// ----- H005: audited unsafe -----

/// `unsafe` and `allow(unsafe_code)` may appear in non-test code only
/// in [`UNSAFE_FILES`]. There, every `unsafe` block and `unsafe impl`
/// needs a `// SAFETY:` comment in the comment lines directly above its
/// line, and every `unsafe fn` a `# Safety` section in the doc comment
/// above it (attribute lines may sit in between).
///
/// Blind spots: a justification inside a multi-line `/* */` comment is
/// not seen, nor is a multi-line attribute between a doc comment and
/// its `unsafe fn`; `unsafe` in other shapes (`unsafe trait`,
/// `unsafe extern`) is only checked against the file list.
fn check_h005_unsafe(file: &SourceFile, lexed: &Lexed, test_cut: u32, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let audited = UNSAFE_FILES.contains(&file.rel.as_str());
    // First token of each line, and the text of each comment-only line.
    let mut first_tok: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        first_tok.entry(t.line).or_insert(i);
    }
    let comment_lines: BTreeMap<u32, &str> = lexed
        .comments
        .iter()
        .filter(|c| !first_tok.contains_key(&c.line))
        .map(|c| (c.line, c.text.as_str()))
        .collect();
    let is_attr_line = |line: u32| {
        first_tok.get(&line).is_some_and(|&i| {
            toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        })
    };
    // Does the run of comment (and, for `unsafe fn`, attribute) lines
    // directly above `line` contain `needle`?
    let justified = |line: u32, needle: &str, skip_attrs: bool| {
        let mut l = line.saturating_sub(1);
        while l > 0 {
            match comment_lines.get(&l) {
                Some(text) if text.contains(needle) => return true,
                Some(_) => {}
                None if skip_attrs && is_attr_line(l) => {}
                None => return false,
            }
            l -= 1;
        }
        false
    };
    let files = UNSAFE_FILES.join(", ");
    for (i, t) in toks.iter().enumerate() {
        if t.line >= test_cut {
            break;
        }
        if t.is_ident("unsafe_code") && !audited && is_allow_arg(toks, i) {
            out.push(Finding::new(
                "H005",
                &file.rel,
                t.line,
                format!("`allow(unsafe_code)` outside the audited files ({files})"),
            ));
            continue;
        }
        if !t.is_ident("unsafe") {
            continue;
        }
        if !audited {
            out.push(Finding::new(
                "H005",
                &file.rel,
                t.line,
                format!(
                    "`unsafe` outside the audited files ({files}); keep it in one of them \
                     behind a safe API"
                ),
            ));
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if next.is_ident("fn") {
            if !justified(t.line, "# Safety", true) {
                out.push(Finding::new(
                    "H005",
                    &file.rel,
                    t.line,
                    "`unsafe fn` without a `# Safety` section in its doc comment; state what \
                     callers must uphold"
                        .to_string(),
                ));
            }
        } else if (next.is_punct('{') || next.is_ident("impl"))
            && !justified(t.line, "SAFETY:", false)
        {
            out.push(Finding::new(
                "H005",
                &file.rel,
                t.line,
                format!(
                    "`unsafe {}` without a `// SAFETY:` comment directly above it; say why \
                     it is sound",
                    if next.is_ident("impl") {
                        "impl"
                    } else {
                        "{ .. }"
                    }
                ),
            ));
        }
    }
}

/// True when the identifier at `i` is an argument of an `allow` or
/// `expect` lint attribute (`allow(a, unsafe_code)`).
fn is_allow_arg(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct('(') {
            return j > 0 && (toks[j - 1].is_ident("allow") || toks[j - 1].is_ident("expect"));
        }
        if !(t.kind == TokKind::Ident || t.is_punct(',')) {
            return false;
        }
    }
    false
}

// ----- M001: metric registry -----

/// Every metric the workspace emits must be declared — with its kind —
/// in `telemetry::schema::METRICS`, every registered metric must
/// actually be emitted somewhere, and every registered name must be
/// documented in `docs/OBSERVABILITY.md`. The emitted-name universe is
/// every string literal in non-test code, which also covers call sites
/// that pass the name through a variable (e.g. the kernel work
/// histograms routed through a helper).
fn check_m001_metric_registry(ctx: &LintContext, table: &SymbolTable, out: &mut Vec<Finding>) {
    for call in &table.metric_calls {
        match ctx.metrics.kind(&call.name) {
            None => out.push(Finding::new(
                "M001",
                &call.file,
                call.line,
                format!(
                    "metric \"{}\" is not registered in telemetry::schema::METRICS; declare it \
                     there with its kind so /metrics output, `daisy top`, and the docs stay in \
                     sync",
                    call.name
                ),
            )),
            Some(kind) if kind != call.func => out.push(Finding::new(
                "M001",
                &call.file,
                call.line,
                format!(
                    "metric \"{}\" is registered as a {} but constructed here with `{}(`; fix \
                     the call or the registry entry — one metric, one kind",
                    call.name, kind, call.func
                ),
            )),
            Some(_) => {}
        }
    }
    for name in ctx.metrics.kinds.keys() {
        let line = ctx.metrics.lines.get(name).copied().unwrap_or(1);
        if !table.emitted_names.contains(name) {
            out.push(Finding::new(
                "M001",
                crate::SCHEMA_REL,
                line,
                format!(
                    "metric \"{name}\" is registered but never emitted anywhere in the \
                     workspace; delete the registry entry or wire up the emitter"
                ),
            ));
        }
        if !ctx.docs.contains(name.as_str()) {
            out.push(Finding::new(
                "M001",
                crate::SCHEMA_REL,
                line,
                format!(
                    "metric \"{name}\" is registered but not documented in \
                     docs/OBSERVABILITY.md; add it to the metric vocabulary section"
                ),
            ));
        }
    }
}

// ----- K001: environment-knob registry -----

/// All `DAISY_*` environment configuration flows through
/// `telemetry::knobs`: direct `env::var("DAISY_…")` reads outside the
/// registry module are findings, any string that mentions an
/// unregistered knob name is a finding (help text and warnings cannot
/// advertise knobs that do not exist), and every registered knob must
/// be documented in `docs/OBSERVABILITY.md`.
fn check_k001_knob_registry(ctx: &LintContext, table: &SymbolTable, out: &mut Vec<Finding>) {
    for read in &table.env_reads {
        out.push(Finding::new(
            "K001",
            &read.file,
            read.line,
            format!(
                "direct env::var(\"{}\") bypasses the knob registry; read it through \
                 telemetry::knobs::raw/flag so `daisy knobs` and the docs see it",
                read.name
            ),
        ));
    }
    for mention in &table.knob_mentions {
        if !ctx.knobs.has(&mention.name) {
            out.push(Finding::new(
                "K001",
                &mention.file,
                mention.line,
                format!(
                    "\"{}\" is not a registered knob; register it in telemetry::knobs::KNOBS \
                     or fix the name (help text and messages must not advertise knobs that do \
                     not exist)",
                    mention.name
                ),
            ));
        }
    }
    for (name, line) in &ctx.knobs.lines {
        if !ctx.docs.contains(name.as_str()) {
            out.push(Finding::new(
                "K001",
                symbols::KNOBS_REL,
                *line,
                format!(
                    "knob \"{name}\" is registered but not documented in \
                     docs/OBSERVABILITY.md; add it to the knob table"
                ),
            ));
        }
    }
}

// ----- W001: wire-magic registry -----

/// Every 4/8-byte wire magic lives in `daisy_wire::magic`, exactly
/// once. Byte-string magic constants declared outside `crates/wire/src/`
/// are findings, two constants binding the same magic value are
/// findings (at every site after the first), and inlining a declared
/// magic's value as a string literal elsewhere is a finding.
fn check_w001_wire_magics(table: &SymbolTable, out: &mut Vec<Finding>) {
    const WIRE_SRC: &str = "crates/wire/src/";
    let mut first_site: BTreeMap<&str, &symbols::MagicDef> = BTreeMap::new();
    for def in &table.magic_defs {
        if !def.file.starts_with(WIRE_SRC) {
            out.push(Finding::new(
                "W001",
                &def.file,
                def.line,
                format!(
                    "wire magic `{}` (= {:?}) is declared outside daisy-wire; move it to \
                     crates/wire/src/magic.rs and re-export, so every on-disk and on-socket \
                     format shares one magic table",
                    def.ident, def.value
                ),
            ));
        }
        match first_site.get(def.value.as_str()) {
            None => {
                first_site.insert(&def.value, def);
            }
            Some(first) => out.push(Finding::new(
                "W001",
                &def.file,
                def.line,
                format!(
                    "magic value {:?} is already declared as `{}` at {}:{}; re-use that \
                     constant instead of declaring it twice",
                    def.value, first.ident, first.file, first.line
                ),
            )),
        }
    }
    let wire_values: BTreeSet<&str> = table
        .magic_defs
        .iter()
        .filter(|d| d.file.starts_with(WIRE_SRC))
        .map(|d| d.value.as_str())
        .collect();
    for (file, line, text) in &table.str_literals {
        if wire_values.contains(text.as_str()) {
            out.push(Finding::new(
                "W001",
                file,
                *line,
                format!(
                    "string literal {text:?} inlines a declared wire magic; use the \
                     daisy_wire::magic constant so format changes stay one-line"
                ),
            ));
        }
    }
}
