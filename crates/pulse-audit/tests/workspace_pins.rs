//! Regression pins against real workspace source and configuration.
//!
//! Memory-ordering bugs cannot be distinguished behaviorally on x86 (its
//! hardware model is stronger than Relaxed), so `pulse-sim`'s worker-abort
//! flag is pinned structurally: clippy.toml disallows `AtomicBool` outside
//! its `AbortFlag` wrapper, and the wrapper's two accesses must carry the
//! Acquire/Release pair the failure-context handoff relies on.
//!
//! The lint configuration is pinned the same way: the checks clippy and
//! rustc make for the workspace only reach a crate whose manifest carries
//! `[lints] workspace = true`, and the determinism guards only hold while
//! `clippy.toml` lists them.

// The source-loading helpers sit outside `#[test]` fns, where the
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

#[test]
fn sim_runner_abort_flag_uses_acquire_release_pair() {
    let text =
        std::fs::read_to_string(workspace_root().join("crates/pulse-sim/src/runner.rs")).unwrap();
    // The flag is raised with Release so the failing worker's writes (the
    // failure context) are published, and polled with Acquire so siblings
    // observe them. Both halves must survive refactors.
    assert!(
        text.contains("struct AbortFlag("),
        "the abort flag lost its AbortFlag wrapper"
    );
    assert!(
        text.contains("self.0.store(true, Ordering::Release)"),
        "AbortFlag::raise no longer uses Ordering::Release"
    );
    assert!(
        text.contains("self.0.load(Ordering::Acquire)"),
        "AbortFlag::is_raised no longer uses Ordering::Acquire"
    );
    assert!(
        !text.contains("self.0.load(Ordering::Relaxed)")
            && !text.contains("self.0.store(true, Ordering::Relaxed)"),
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

/// The `path = "..."` values of the top-level TOML array `key = [ ... ]`.
fn toml_array_paths(text: &str, key: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .skip(1)
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| {
            let (_, rest) = l.split_once("path = \"")?;
            rest.split_once('"').map(|(path, _)| path.to_owned())
        })
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

    // The determinism guards (DESIGN.md §8): wall clock, hash-container
    // iteration order, raw atomic flags.
    let clippy_toml = std::fs::read_to_string(root.join("clippy.toml")).unwrap();
    for (table, path) in [
        ("disallowed-methods", "std::time::Instant::now"),
        ("disallowed-methods", "std::time::SystemTime::now"),
        ("disallowed-methods", "std::time::SystemTime::elapsed"),
        ("disallowed-types", "std::time::SystemTime"),
        ("disallowed-types", "std::collections::HashMap"),
        ("disallowed-types", "std::collections::HashSet"),
        ("disallowed-types", "std::sync::atomic::AtomicBool"),
    ] {
        assert!(
            toml_array_paths(&clippy_toml, table).contains(&path.to_owned()),
            "clippy.toml `{table}` lacks `{path}`"
        );
    }

    let core_lib = std::fs::read_to_string(root.join("crates/pulse-core/src/lib.rs")).unwrap();
    assert!(
        core_lib.contains("#![warn(clippy::as_conversions, unreachable_pub)]"),
        "pulse-core no longer warns on raw `as` casts and unreachable `pub` items"
    );
}
