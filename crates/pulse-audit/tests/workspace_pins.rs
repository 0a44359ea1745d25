//! Regression pins against real workspace source. Memory-ordering bugs
//! cannot be distinguished behaviorally on x86 (its hardware model is
//! stronger than Relaxed), so the fix in `pulse-sim`'s worker-abort path is
//! pinned structurally: the audit's own `atomic-ordering` rule must stay
//! silent on `runner.rs`, and the abort flag's accesses must carry the
//! Acquire/Release pair the failure-context handoff relies on.
//!
//! The lint opt-in is pinned the same way: the checks clippy and rustc make
//! for the audit (`unwrap`/`expect`/`panic`, casts, missing docs) only reach
//! a crate whose manifest carries `[lints] workspace = true`.

// The source-loading helper sits outside `#[test]` fns, where the
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

use pulse_audit::audit_files;
use pulse_audit::source::SourceFile;

fn runner_source() -> (PathBuf, String) {
    // Integration tests run with the crate under test as CWD; the workspace
    // root is two levels up.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../pulse-sim/src/runner.rs")
        .canonicalize()
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    (path, text)
}

#[test]
fn sim_runner_abort_flag_passes_the_atomic_ordering_rule() {
    let (path, text) = runner_source();
    let file = SourceFile::parse(path, "pulse-sim", &text);
    let findings: Vec<String> = audit_files(std::slice::from_ref(&file))
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == "atomic-ordering")
        .map(|d| d.to_string())
        .collect();
    assert!(
        findings.is_empty(),
        "worker-abort flag regressed to a too-weak ordering:\n{findings:?}"
    );
}

#[test]
fn sim_runner_abort_flag_uses_acquire_release_pair() {
    let (_, text) = runner_source();
    // The flag is raised with Release so the failing worker's writes (the
    // failure context) are published, and polled with Acquire so siblings
    // observe them. Both halves must survive refactors.
    assert!(
        text.contains("abort.store(true, Ordering::Release)"),
        "abort raise no longer uses Ordering::Release"
    );
    assert!(
        text.contains("abort.load(Ordering::Acquire)"),
        "abort poll no longer uses Ordering::Acquire"
    );
    assert!(
        !text.contains("abort.load(Ordering::Relaxed)")
            && !text.contains("abort.store(true, Ordering::Relaxed)"),
        "abort flag regressed to Ordering::Relaxed"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// The `key = value` lines of the TOML table headed `[header]`.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn every_crate_opts_into_the_workspace_lint_table() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found the workspace crates");
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap();
        assert!(
            toml_table(&text, "[lints]").contains(&"workspace = true".to_owned()),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }

    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let clippy = toml_table(&root_manifest, "[workspace.lints.clippy]");
    let rustc = toml_table(&root_manifest, "[workspace.lints.rust]");
    for (table, lint) in [
        (&clippy, "unwrap_used"),
        (&clippy, "expect_used"),
        (&clippy, "panic"),
        (&clippy, "float_cmp"),
        (&clippy, "cast_possible_truncation"),
        (&rustc, "missing_docs"),
    ] {
        assert!(
            table
                .iter()
                .any(|l| *l == format!("{lint} = \"warn\"") || *l == format!("{lint} = \"deny\"")),
            "workspace lint table lacks `{lint}`: {table:?}"
        );
    }

    let core_lib = std::fs::read_to_string(root.join("crates/pulse-core/src/lib.rs")).unwrap();
    assert!(
        core_lib.contains("#![warn(clippy::as_conversions, unreachable_pub)]"),
        "pulse-core no longer warns on raw `as` casts and unreachable `pub` items"
    );
}
