//! The central registry of `DAISY_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared here —
//! name, default, owning subsystem, one-line doc — and every read goes
//! through [`raw`] / [`raw_os`] / [`flag`], the workspace's only
//! sanctioned `env::var` call sites for `DAISY_*` names. The workspace
//! lint (rule K001) enforces the discipline: a direct
//! `env::var("DAISY_…")` outside this module, a `DAISY_*` name
//! mentioned anywhere in the tree but missing from [`KNOBS`], or a
//! registered knob absent from `docs/OBSERVABILITY.md` is a finding.
//!
//! Parsing and fallback behaviour deliberately stay at the call sites
//! (the pool warns once on a malformed `DAISY_THREADS`, the serving
//! plane warns per variable, the store silently falls back) — the
//! registry owns the *name*, the *default*, and the *documentation*,
//! not the error policy. `daisy knobs` dumps this table, so operators
//! and CI see the same source of truth the code compiles against.

/// One registered environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable name (`DAISY_*`).
    pub name: &'static str,
    /// Human-readable default used when the variable is unset or
    /// malformed (`-` when "unset" itself is the meaningful default).
    pub default: &'static str,
    /// The subsystem that reads the knob (crate or binary name).
    pub owner: &'static str,
    /// One-line description of the knob's effect.
    pub doc: &'static str,
}

/// Every `DAISY_*` environment variable read anywhere in the
/// workspace. Keep sorted by name within each owner group; `daisy
/// knobs` prints the table in this order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "DAISY_TRACE",
        default: "-",
        owner: "telemetry",
        doc: "Path of the JSONL trace sink; unset or empty disables tracing.",
    },
    Knob {
        name: "DAISY_PROFILE",
        default: "0",
        owner: "telemetry",
        doc: "Any value but empty or 0 enables the wall-clock phase profiler.",
    },
    Knob {
        name: "DAISY_THREADS",
        default: "-",
        owner: "tensor",
        doc: "Compute-pool worker threads; unset or malformed falls back to the available parallelism.",
    },
    Knob {
        name: "DAISY_MEM_BUDGET",
        default: "268435456",
        owner: "data",
        doc: "Resident-chunk cache budget in bytes for the columnar store (default 256 MiB).",
    },
    Knob {
        name: "DAISY_CKPT_EVERY",
        default: "1",
        owner: "core",
        doc: "Write a training checkpoint every N-th clean epoch boundary.",
    },
    Knob {
        name: "DAISY_SERVE_MAX_CONN",
        default: "4",
        owner: "serve",
        doc: "Maximum concurrent serving connections.",
    },
    Knob {
        name: "DAISY_SERVE_MAX_ROWS",
        default: "100000000",
        owner: "serve",
        doc: "Maximum rows a single serving request may ask for.",
    },
    Knob {
        name: "DAISY_SERVE_TIMEOUT_MS",
        default: "30000",
        owner: "serve",
        doc: "Per-connection socket deadline in milliseconds; 0 disables the deadline.",
    },
    Knob {
        name: "DAISY_SERVE_DRAIN_MS",
        default: "5000",
        owner: "serve",
        doc: "Grace window for in-flight streams after SIGTERM before the server exits.",
    },
    Knob {
        name: "DAISY_SERVE_SHED",
        default: "0",
        owner: "serve",
        doc: "Set to 1 to refuse (shed) connections beyond the limit instead of queueing them.",
    },
    Knob {
        name: "DAISY_SERVE_ADMIN",
        default: "-",
        owner: "serve",
        doc: "host:port of the admin/metrics HTTP endpoint; unset disables it.",
    },
    Knob {
        name: "DAISY_BENCH_JSON",
        default: "-",
        owner: "bench",
        doc: "Path where the kernels, serve or ingest bench writes its JSON report, replacing the file; 1 or empty writes BENCH_<bench>.json; unset disables.",
    },
    Knob {
        name: "DAISY_FULL",
        default: "0",
        owner: "bench",
        doc: "Set to 1 to run benches at full paper scale instead of the quick CI scale.",
    },
    Knob {
        name: "DAISY_ROWS",
        default: "-",
        owner: "bench",
        doc: "Overrides the bench harness row count; unset uses the scale preset.",
    },
    Knob {
        name: "DAISY_ITERS",
        default: "-",
        owner: "bench",
        doc: "Overrides the bench harness training iterations; unset uses the scale preset.",
    },
    Knob {
        name: "DAISY_SWEEP_DIR",
        default: "daisy-sweep",
        owner: "examples",
        doc: "Working directory of the checkpoint_sweep example (journal, checkpoints, traces).",
    },
    Knob {
        name: "DAISY_SWEEP_ITERS",
        default: "1500",
        owner: "examples",
        doc: "Training iterations per sweep cell in the checkpoint_sweep example.",
    },
    Knob {
        name: "DAISY_SWEEP_KILL_AT",
        default: "-",
        owner: "examples",
        doc: "Step at which the checkpoint_sweep example kills itself to exercise crash recovery; unset never.",
    },
];

/// Looks a knob up by name.
pub fn find(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Reads a registered knob's raw value from the environment. `None`
/// when unset (or not valid UTF-8) — interpreting the value, and
/// falling back to the registered default, stays with the caller.
///
/// Debug builds assert the name is registered, so a new knob cannot be
/// read before it is declared in [`KNOBS`].
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(find(name).is_some(), "unregistered knob {name}");
    std::env::var(name).ok()
}

/// [`raw`] without the UTF-8 requirement, for knobs that name
/// filesystem paths (`DAISY_TRACE`).
pub fn raw_os(name: &str) -> Option<std::ffi::OsString> {
    debug_assert!(find(name).is_some(), "unregistered knob {name}");
    std::env::var_os(name)
}

/// `true` when a registered boolean knob is set to exactly `1` — the
/// workspace-wide convention for opt-in flags (`DAISY_FULL`,
/// `DAISY_SERVE_SHED`).
pub fn flag(name: &str) -> bool {
    raw(name).is_some_and(|v| v == "1")
}

/// Renders the registry as the stable, machine-parseable table `daisy
/// knobs` prints: one knob per line, `name<TAB>default<TAB>owner<TAB>doc`,
/// in [`KNOBS`] order. The first tab-separated token of every line is
/// the knob name — the contract the registry round-trip test and the
/// CI docs-coverage gate parse against.
pub fn render() -> String {
    let mut out = String::new();
    for k in KNOBS {
        out.push_str(k.name);
        out.push('\t');
        out.push_str(k.default);
        out.push('\t');
        out.push_str(k.owner);
        out.push('\t');
        out.push_str(k.doc);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_daisy_prefixed() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(k.name.starts_with("DAISY_"), "{}", k.name);
            assert!(!k.doc.is_empty() && !k.owner.is_empty() && !k.default.is_empty());
            for other in &KNOBS[i + 1..] {
                assert_ne!(k.name, other.name);
            }
        }
    }

    #[test]
    fn render_lines_lead_with_the_name() {
        let rendered = render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), KNOBS.len());
        for (line, k) in lines.iter().zip(KNOBS) {
            assert_eq!(line.split('\t').next(), Some(k.name));
            assert_eq!(line.split('\t').count(), 4);
        }
    }

    #[test]
    fn lookup_and_flag_honour_registration() {
        assert!(find("DAISY_TRACE").is_some());
        assert!(find("DAISY_NOPE").is_none());
        // An unset opt-in flag reads as off.
        assert!(!flag("DAISY_SERVE_SHED") || std::env::var("DAISY_SERVE_SHED").is_ok());
    }
}
