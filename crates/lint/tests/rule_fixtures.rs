//! One bad and one good fixture per rule: the bad snippet must produce
//! exactly the expected finding, the good twin must lint clean. This is
//! the rule catalogue's executable specification — a rule change that
//! widens or narrows a pattern shows up here first.

use daisy_lint::workspace::{FileKind, SourceFile};
use daisy_lint::{lint_files, schema, Finding, LintContext};
use std::path::PathBuf;

/// The event vocabulary the fixtures lint against: one documented
/// constant, so S-rules can see both a known and an unknown name.
const SCHEMA_FIXTURE: &str = r#"
/// Start of a training run.
///
/// Fields: `epoch`, `step`.
pub const TRAIN_START: &str = "train_start";

/// The profiler phase vocabulary (S004).
///
/// Fields: none (a vocabulary, not an event).
pub const PHASES: &[&str] = &["fit", "epoch"];
"#;

fn file(rel: &str, kind: FileKind, src: &str) -> SourceFile {
    let crate_key = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("daisy")
        .to_string();
    SourceFile {
        path: PathBuf::new(),
        rel: rel.to_string(),
        crate_key,
        kind,
        src: src.to_string(),
    }
}

/// The context every fixture lints against: the event vocabulary above
/// plus empty metric/knob registries and empty docs (the registry
/// rules are exercised by their own fixtures with explicit contexts).
fn fixture_ctx() -> LintContext {
    LintContext {
        events: schema::parse(SCHEMA_FIXTURE),
        ..LintContext::default()
    }
}

/// Lints a single fixture file and returns its findings.
fn lint_one(rel: &str, kind: FileKind, src: &str) -> Vec<Finding> {
    lint_files(&[file(rel, kind, src)], &fixture_ctx()).findings
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ----- D001: hash-ordered iteration -----

#[test]
fn d001_flags_hashmap_iteration() {
    let bad = "
use std::collections::HashMap;
fn f() {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    counts.insert(1, 2);
    for (k, v) in &counts {
        println!(\"{k} {v}\");
    }
    let _ = counts.iter().count();
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["D001", "D001"]);
    assert_eq!(findings[0].line, 6, "the `for .. in &counts` loop");
    assert_eq!(findings[1].line, 9, "the `.iter()` call");
    assert!(findings[0].message.contains("hash-seed order"));
}

#[test]
fn d001_allows_btreemap_iteration_and_hash_membership() {
    let good = "
use std::collections::{BTreeMap, HashSet};
fn f() {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    counts.insert(1, 2);
    for (k, v) in &counts {
        println!(\"{k} {v}\");
    }
    // Membership-only HashSet use is order-independent and fine.
    let seen: HashSet<u32> = HashSet::new();
    assert!(!seen.contains(&3), \"seen {seen:?}\");
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, good).is_empty());
}

// ----- D002: wall-clock reads -----

#[test]
fn d002_flags_instant_outside_telemetry() {
    let bad = "
use std::time::Instant;
fn f() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["D002", "D002"]);
    assert!(findings[0].message.contains("wall clock"));
}

#[test]
fn d002_exempts_the_telemetry_plane() {
    let same_code = "
use std::time::Instant;
fn f() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}
";
    assert!(lint_one("crates/telemetry/src/x.rs", FileKind::Src, same_code).is_empty());
}

// ----- D003: thread spawning -----

#[test]
fn d003_flags_thread_spawn_outside_the_pool() {
    let bad = "
fn f() {
    std::thread::spawn(|| {});
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["D003"]);
    assert!(findings[0].message.contains("tensor::pool"));
}

#[test]
fn d003_exempts_the_pool_itself() {
    let same_code = "
fn f() {
    std::thread::Builder::new().spawn(|| {}).ok();
}
";
    assert!(lint_one("crates/tensor/src/pool.rs", FileKind::Src, same_code).is_empty());
}

// ----- D004: RNG construction -----

#[test]
fn d004_flags_entropy_seeded_randomness() {
    let bad = "
use std::collections::hash_map::RandomState;
fn f() -> RandomState {
    RandomState::new()
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["D004", "D004", "D004"]);
    assert!(findings[0].message.contains("seeded"));
}

#[test]
fn d004_allows_seeded_rng_and_exempts_rng_rs() {
    let good = "
fn f() {
    let mut rng = Rng::seed_from_u64(7);
    let _ = rng.next_u64();
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, good).is_empty());
    let rng_impl = "
fn f() {
    // rng.rs may talk about DefaultHasher in its seeding docs/impl.
    use std::collections::hash_map::DefaultHasher;
    let _ = DefaultHasher::new();
}
";
    assert!(lint_one("crates/tensor/src/rng.rs", FileKind::Src, rng_impl).is_empty());
}

// ----- S001: event names must be in the vocabulary -----

#[test]
fn s001_flags_unknown_event_names_and_consts() {
    let bad = "
fn f(rec: &Recorder) {
    rec.emit(\"bogus_event\", &[]);
    rec.emit(schema::NOPE, &[]);
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["S001", "S001"]);
    assert!(findings[0].message.contains("bogus_event"));
    assert!(findings[1].message.contains("NOPE"));
}

#[test]
fn s001_accepts_vocabulary_names_and_skips_tests() {
    let good = "
fn f(rec: &Recorder) {
    rec.emit(\"train_start\", &[]);
    rec.emit(schema::TRAIN_START, &[]);
}

#[cfg(test)]
mod tests {
    fn g(rec: &Recorder) {
        rec.emit(\"test_only_event\", &[]);
    }
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, good).is_empty());
}

// ----- S002: schema constants document their fields -----

#[test]
fn s002_flags_schema_consts_without_a_fields_contract() {
    let bad = "
/// Start of a training run, but no field list.
pub const TRAIN_START: &str = \"train_start\";
";
    let findings = lint_one("crates/telemetry/src/schema.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["S002"]);
    assert!(findings[0].message.contains("TRAIN_START"));
}

#[test]
fn s002_accepts_documented_schema_consts() {
    let findings = lint_one("crates/telemetry/src/schema.rs", FileKind::Src, SCHEMA_FIXTURE);
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- S003: no wall-clock fields on the deterministic plane -----

#[test]
fn s003_flags_wall_clock_field_names() {
    let bad = "
fn f(rec: &Recorder) {
    rec.emit(\"train_start\", &[field(\"elapsed_ms\", 3.0)]);
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["S003"]);
    assert!(findings[0].message.contains("elapsed_ms"));
}

#[test]
fn s003_accepts_logical_time_fields() {
    let good = "
fn f(rec: &Recorder) {
    rec.emit(\"train_start\", &[field(\"epoch\", 3), field(\"step\", 40)]);
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, good).is_empty());
}

// ----- S004: profiler phase names must be in PHASES -----

#[test]
fn s004_flags_unknown_phase_literals() {
    let bad = "
fn f() {
    daisy_telemetry::phase_scope!(\"warp_drive\");
    let _guard = daisy_telemetry::profile::scope(\"bogus_phase\");
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["S004", "S004"]);
    assert!(findings[0].message.contains("warp_drive"));
    assert!(findings[1].message.contains("bogus_phase"));
}

#[test]
fn s004_accepts_vocabulary_phases_and_skips_tests() {
    let good = "
fn f() {
    daisy_telemetry::phase_scope!(\"fit\");
    let _guard = daisy_telemetry::profile::scope(\"epoch\");
}

#[cfg(test)]
mod tests {
    fn g() {
        daisy_telemetry::phase_scope!(\"test_only_phase\");
    }
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, good).is_empty());
}

// ----- H001 / H002: crate-root attributes -----

#[test]
fn h001_h002_flag_a_bare_crate_root() {
    let bad = "//! A crate with no hygiene attributes.\npub fn f() {}\n";
    let findings = lint_one("crates/foo/src/lib.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["H001", "H002"]);
}

#[test]
fn h001_h002_accept_forbid_or_deny_plus_warn() {
    let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    assert!(lint_one("crates/foo/src/lib.rs", FileKind::Src, good).is_empty());
    // `deny(unsafe_code)` (tensor's pool carve-out) also satisfies H001.
    let deny = "//! Docs.\n#![deny(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
    assert!(lint_one("crates/foo/src/lib.rs", FileKind::Src, deny).is_empty());
}

// ----- H003: unwrap/expect budget -----

#[test]
fn h003_flags_a_crate_over_its_budget() {
    // `datasets` has a budget of zero.
    let bad = "
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
    let findings = lint_one("crates/datasets/src/gen.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["H003"]);
    assert_eq!(findings[0].file, "crates/datasets/src/lib.rs");
    assert!(findings[0].message.contains("over its budget of 0"));
}

#[test]
fn h003_flags_a_crate_with_no_baseline_and_skips_tests() {
    let bad = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = lint_one("crates/mystery/src/gen.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["H003"]);
    assert!(findings[0].message.contains("no unwrap()/expect() budget"));

    let test_only = "
pub fn f() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
    assert!(lint_one("crates/datasets/src/gen.rs", FileKind::Src, test_only).is_empty());
}

// ----- H004: dimension-carrying kernel panics -----

#[test]
fn h004_flags_bare_kernel_asserts() {
    let bad = "
pub fn matmul(a: &Tensor, b: &Tensor) {
    assert_eq!(a.cols(), b.rows(), \"inner dimensions differ\");
}
";
    let findings = lint_one("crates/tensor/src/linalg.rs", FileKind::Src, bad);
    assert_eq!(rules_of(&findings), ["H004"]);
    assert!(findings[0].message.contains("dimension-carrying"));
}

#[test]
fn h004_accepts_shape_interpolating_messages_and_is_kernel_scoped() {
    let good = "
pub fn matmul(a: &Tensor, b: &Tensor) {
    assert_eq!(a.cols(), b.rows(), \"matmul {:?} x {:?}\", a.shape(), b.shape());
}
";
    assert!(lint_one("crates/tensor/src/linalg.rs", FileKind::Src, good).is_empty());
    // The same bare assert outside the kernel files is not H004's business.
    let elsewhere = "
pub fn f(n: usize) {
    assert!(n > 0, \"need at least one row\");
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, elsewhere).is_empty());
}

// ----- H005: audited unsafe -----

#[test]
fn h005_flags_unsafe_outside_the_audited_files_and_unjustified_unsafe_inside() {
    let outside = "
#![allow(unsafe_code)]
pub fn f(p: *const u8) -> u8 {
    // SAFETY: the caller passes a valid pointer.
    unsafe { *p }
}
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, outside);
    assert_eq!(rules_of(&findings), ["H005", "H005"]);
    assert_eq!(findings[0].line, 2, "the allow(unsafe_code)");
    assert_eq!(findings[1].line, 5, "the unsafe block, justified or not");
    assert!(findings[1].message.contains("outside the audited files"));

    let unjustified = "
struct Ptr(*const u8);
unsafe impl Send for Ptr {}

/// Reads one byte.
#[inline]
unsafe fn read(p: *const u8) -> u8 {
    *p
}

pub fn f(p: &u8) -> u8 {
    // Reads it.
    unsafe { read(p) }
}
";
    let findings = lint_one("crates/tensor/src/linalg.rs", FileKind::Src, unjustified);
    assert_eq!(rules_of(&findings), ["H005", "H005", "H005"]);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [3, 7, 13], "the impl, the fn and the block");
    assert!(findings[0].message.contains("SAFETY:"));
    assert!(findings[1].message.contains("# Safety"));
}

#[test]
fn h005_accepts_justified_unsafe_in_audited_files_and_skips_tests() {
    let good = "
#![allow(unsafe_code)]
struct Ptr(*const u8);
// SAFETY: the pointer is only read on the thread
// that owns its referent.
unsafe impl Send for Ptr {}

/// Reads one byte.
///
/// # Safety
/// `p` must be valid for reads.
#[target_feature(enable = \"avx2\")]
#[inline]
unsafe fn read(p: *const u8) -> u8 {
    *p
}

pub fn f(p: &u8) -> u8 {
    // SAFETY: a reference is valid for reads.
    unsafe { read(p) }
}
";
    assert!(lint_one("crates/tensor/src/pool.rs", FileKind::Src, good).is_empty());
    let test_only = "
pub fn f() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 1u8;
        let _ = unsafe { *(&x as *const u8) };
    }
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, test_only).is_empty());
    let integration = "#[test]\nfn t() { let _ = unsafe { std::mem::zeroed::<u8>() }; }\n";
    assert!(lint_one("tests/x.rs", FileKind::Test, integration).is_empty());
}

// ----- Suppressions -----

#[test]
fn line_suppression_silences_exactly_its_rule_and_line() {
    let suppressed = "
// daisy-lint: allow(D002) -- fixture
use std::time::Instant;
fn f() {
    let _ = Instant::now(); // daisy-lint: allow(D002)
}
";
    assert!(lint_one("crates/core/src/x.rs", FileKind::Src, suppressed).is_empty());
    // The wrong rule id does not suppress.
    let wrong_rule = "
// daisy-lint: allow(D001)
use std::time::Instant;
";
    let findings = lint_one("crates/core/src/x.rs", FileKind::Src, wrong_rule);
    assert_eq!(rules_of(&findings), ["D002"]);
}

#[test]
fn file_scoped_rules_accept_an_allow_anywhere_in_the_file() {
    let src = "//! Deliberately attribute-free.\n\npub fn f() {}\n\n// daisy-lint: allow(H001, H002)\n";
    assert!(lint_one("crates/foo/src/lib.rs", FileKind::Src, src).is_empty());
}

// ----- Cross-file behaviour -----

#[test]
fn findings_are_sorted_and_deduped_across_files() {
    let a = file(
        "crates/core/src/b.rs",
        FileKind::Src,
        "use std::time::Instant;\n",
    );
    let b = file(
        "crates/core/src/a.rs",
        FileKind::Src,
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    let report = lint_files(&[a, b], &fixture_ctx());
    let got: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule))
        .collect();
    assert_eq!(
        got,
        [
            ("crates/core/src/a.rs", "D003"),
            ("crates/core/src/b.rs", "D002"),
        ],
        "sorted by file, one finding per (file, line, rule)"
    );
    assert_eq!(report.files_scanned, 2);
}

// ----- M001: metric registry -----

/// A metric registry fixture with one metric of each kind.
const METRICS_FIXTURE: &str = r#"
pub enum MetricKind { Counter, Gauge, Histogram }
pub const METRICS: &[(&str, MetricKind)] = &[
    ("pool.jobs", MetricKind::Counter),
    ("train.norm", MetricKind::Gauge),
];
"#;

fn metrics_ctx(docs: &str) -> LintContext {
    LintContext {
        events: schema::parse(SCHEMA_FIXTURE),
        metrics: schema::parse_metrics(METRICS_FIXTURE),
        docs: docs.to_string(),
        ..LintContext::default()
    }
}

#[test]
fn m001_flags_unregistered_and_kind_mismatched_metrics() {
    let bad = r#"
fn f() {
    metrics::counter("pool.jobs").add(1);
    metrics::counter("pool.surprise").add(1);
    metrics::gauge("pool.jobs").set(2);
}
"#;
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, bad)],
        &metrics_ctx("`pool.jobs` and `train.norm` are documented; train.norm too"),
    )
    .findings;
    // "train.norm" is registered but never emitted by the fixture file,
    // so that finding rides along at the registry's location.
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert!(got.contains(&("M001", 4)), "unregistered name: {findings:?}");
    assert!(got.contains(&("M001", 5)), "kind mismatch: {findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("never emitted")),
        "train.norm is unemitted: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "M001"));
    assert!(findings[0].message.contains("pool.surprise") || findings.len() == 3);
}

#[test]
fn m001_accepts_registered_emitted_documented_metrics() {
    let good = r#"
fn f() {
    metrics::counter("pool.jobs").add(1);
    metrics::gauge("train.norm").set(0.5);
}
"#;
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, good)],
        &metrics_ctx("Counters: `pool.jobs`. Gauges: `train.norm`."),
    )
    .findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn m001_flags_undocumented_registry_entries() {
    let good_calls = r#"
fn f() {
    metrics::counter("pool.jobs").add(1);
    metrics::gauge("train.norm").set(0.5);
}
"#;
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, good_calls)],
        &metrics_ctx("only `pool.jobs` is documented"),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["M001"]);
    assert!(findings[0].message.contains("train.norm"));
    assert!(findings[0].message.contains("not documented"));
    assert_eq!(findings[0].file, "crates/telemetry/src/schema.rs");
}

// ----- K001: environment-knob registry -----

const KNOBS_FIXTURE: &str = r#"
pub const KNOBS: &[Knob] = &[
    Knob { name: "DAISY_TRACE", default: "-", owner: "telemetry", doc: "sink" },
];
"#;

fn knobs_ctx(docs: &str) -> LintContext {
    LintContext {
        events: schema::parse(SCHEMA_FIXTURE),
        knobs: schema::parse_knobs(KNOBS_FIXTURE),
        docs: docs.to_string(),
        ..LintContext::default()
    }
}

#[test]
fn k001_flags_direct_env_reads_and_unregistered_mentions() {
    let bad = r#"
fn f() {
    let _ = std::env::var("DAISY_TRACE");
    eprintln!("try DAISY_TURBO=1 for speed");
}
"#;
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, bad)],
        &knobs_ctx("`DAISY_TRACE` is documented"),
    )
    .findings;
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert!(got.contains(&("K001", 3)), "direct env read: {findings:?}");
    assert!(got.contains(&("K001", 4)), "unregistered mention: {findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("bypasses the knob registry")));
    assert!(findings.iter().any(|f| f.message.contains("DAISY_TURBO")));
}

#[test]
fn k001_accepts_registry_reads_and_skips_tests() {
    let good = r#"
fn f() {
    let _ = telemetry::knobs::raw("DAISY_TRACE");
}
#[cfg(test)]
mod tests {
    fn t() { let _ = std::env::var("DAISY_TRACE"); }
}
"#;
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, good)],
        &knobs_ctx("`DAISY_TRACE` is documented"),
    )
    .findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn k001_flags_undocumented_registered_knobs() {
    let findings = lint_files(
        &[file("crates/core/src/x.rs", FileKind::Src, "pub fn f() {}\n")],
        &knobs_ctx("no knobs documented here"),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["K001"]);
    assert!(findings[0].message.contains("DAISY_TRACE"));
    assert_eq!(findings[0].file, "crates/telemetry/src/knobs.rs");
}

// ----- W001: wire-magic registry -----

#[test]
fn w001_flags_magics_declared_outside_wire_and_duplicates() {
    let wire = r#"
pub const CHUNK: &[u8; 8] = b"DAISYCH1";
const CHUNK_AGAIN: &[u8; 8] = b"DAISYCH1";
"#;
    let rogue = r#"
const MY_MAGIC: &[u8; 8] = b"DAISYXX1";
"#;
    let findings = lint_files(
        &[
            file("crates/wire/src/magic.rs", FileKind::Src, wire),
            file("crates/data/src/x.rs", FileKind::Src, rogue),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["W001", "W001"]);
    let outside = findings
        .iter()
        .find(|f| f.message.contains("declared outside daisy-wire"))
        .expect("outside-wire finding");
    assert_eq!((outside.file.as_str(), outside.line), ("crates/data/src/x.rs", 2));
    let dup = findings
        .iter()
        .find(|f| f.message.contains("already declared as `CHUNK`"))
        .expect("duplicate finding");
    assert_eq!((dup.file.as_str(), dup.line), ("crates/wire/src/magic.rs", 3));
}

#[test]
fn w001_flags_inlined_magic_values() {
    let wire = r#"
pub const CHUNK: &[u8; 8] = b"DAISYCH1";
"#;
    let inline_use = r#"
fn f(buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"DAISYCH1");
}
"#;
    let findings = lint_files(
        &[
            file("crates/wire/src/magic.rs", FileKind::Src, wire),
            file("crates/data/src/x.rs", FileKind::Src, inline_use),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["W001"]);
    assert!(findings[0].message.contains("inlines a declared wire magic"));
    assert_eq!(findings[0].file, "crates/data/src/x.rs");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn w001_accepts_reexports_and_test_region_inlines() {
    let wire = r#"
pub const CHUNK: &[u8; 8] = b"DAISYCH1";
"#;
    let good = r#"
pub use daisy_wire::magic::CHUNK as CHUNK_MAGIC;
fn f(buf: &mut Vec<u8>) {
    buf.extend_from_slice(CHUNK_MAGIC);
}
#[cfg(test)]
mod tests {
    fn t() { assert_eq!(&b"DAISYCH1"[..], &super::CHUNK_MAGIC[..]); }
}
"#;
    let findings = lint_files(
        &[
            file("crates/wire/src/magic.rs", FileKind::Src, wire),
            file("crates/data/src/x.rs", FileKind::Src, good),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- Cross-crate resolution (two-pass upgrades of S001/S004) -----

#[test]
fn s001_resolves_constants_across_crates() {
    let decl = r#"
pub const ROGUE_EVENT: &str = "not_in_schema";
pub const GOOD_EVENT: &str = "train_start";
"#;
    let caller = r#"
fn f(rec: &Recorder) {
    rec.record(Event::new(other_crate::ROGUE_EVENT, vec![]));
    rec.record(Event::new(other_crate::GOOD_EVENT, vec![]));
}
"#;
    let findings = lint_files(
        &[
            file("crates/data/src/consts.rs", FileKind::Src, decl),
            file("crates/core/src/x.rs", FileKind::Src, caller),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["S001"]);
    assert_eq!(findings[0].file, "crates/core/src/x.rs");
    assert!(findings[0].message.contains("not_in_schema"), "{findings:?}");
}

#[test]
fn s004_resolves_phase_constants_across_crates() {
    let decl = r#"
pub const ROGUE_PHASE: &str = "warp_drive";
pub const GOOD_PHASE: &str = "fit";
"#;
    let caller = r#"
fn f() {
    let _a = profile::scope(ROGUE_PHASE);
    let _b = profile::scope(GOOD_PHASE);
}
"#;
    let findings = lint_files(
        &[
            file("crates/data/src/consts.rs", FileKind::Src, decl),
            file("crates/core/src/x.rs", FileKind::Src, caller),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert_eq!(rules_of(&findings), ["S004"]);
    assert!(findings[0].message.contains("warp_drive"), "{findings:?}");
}

#[test]
fn ambiguous_cross_crate_constants_are_not_resolved() {
    // Two crates bind the same ident to different strings: resolution
    // must refuse to guess, so neither call site is flagged.
    let a = r#"pub const EV: &str = "not_in_schema";"#;
    let b = r#"pub const EV: &str = "train_start";"#;
    let caller = r#"
fn f(rec: &Recorder) {
    rec.record(Event::new(EV, vec![]));
}
"#;
    let findings = lint_files(
        &[
            file("crates/data/src/a.rs", FileKind::Src, a),
            file("crates/serve/src/b.rs", FileKind::Src, b),
            file("crates/core/src/x.rs", FileKind::Src, caller),
        ],
        &fixture_ctx(),
    )
    .findings;
    assert!(findings.is_empty(), "{findings:?}");
}
