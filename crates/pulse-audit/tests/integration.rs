//! End-to-end tests of the audit pipeline: multi-file, multi-rule fixtures
//! through the public [`pulse_audit::audit_files`] entry point, plus a
//! self-check that the workspace the audit ships in passes its own rules.

use std::path::{Path, PathBuf};

use pulse_audit::source::SourceFile;
use pulse_audit::{audit_files, audit_workspace};

fn file(path: &str, krate: &str, text: &str) -> SourceFile {
    SourceFile::parse(PathBuf::from(path), krate, text)
}

#[test]
fn mixed_fixture_fires_expected_rules_only() {
    let files = vec![
        // Float equality in library code of a scoped crate → fires.
        file(
            "crates/pulse-sim/src/a.rs",
            "pulse-sim",
            "pub fn f(p: f64) -> bool { p == 0.0 }\n",
        ),
        // Same text inside #[cfg(test)] → exempt.
        file(
            "crates/pulse-sim/src/b.rs",
            "pulse-sim",
            "#[cfg(test)]\nmod tests {\n    fn g(p: f64) -> bool { p == 0.0 }\n}\n",
        ),
        // Float equality in pulse-core policy math → fires; waived line → silent.
        file(
            "crates/pulse-core/src/c.rs",
            "pulse-core",
            concat!(
                "/// Doc.\npub fn h(p: f64) -> bool {\n",
                "    let bad = p == 0.0;\n",
                "    // audit:allow(float-cmp): fixture justification\n",
                "    let good = p == 0.0;\n",
                "    bad && good\n}\n",
            ),
        ),
        // Float equality on a probability-looking value → fires.
        file(
            "crates/pulse-core/src/d.rs",
            "pulse-core",
            "/// Doc.\npub fn z(p: f64) -> bool { p == 0.5 }\n",
        ),
        // Wall-clock in a deterministic crate → fires.
        file(
            "crates/pulse-sim/src/e.rs",
            "pulse-sim",
            "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
        ),
    ];
    let out = audit_files(&files);
    assert_eq!(out.files_scanned, 5);
    let fired: Vec<(&str, &str)> = out
        .diagnostics
        .iter()
        .map(|d| (d.path.to_str().unwrap(), d.rule))
        .collect();
    assert!(fired.contains(&("crates/pulse-sim/src/a.rs", "float-cmp")));
    assert!(fired.contains(&("crates/pulse-core/src/c.rs", "float-cmp")));
    assert!(fired.contains(&("crates/pulse-core/src/d.rs", "float-cmp")));
    assert!(fired.contains(&("crates/pulse-sim/src/e.rs", "wall-clock")));
    // The #[cfg(test)] file and the waived line stay silent.
    assert!(!fired.iter().any(|(p, _)| *p == "crates/pulse-sim/src/b.rs"));
    assert_eq!(
        out.diagnostics
            .iter()
            .filter(|d| d.path.to_str() == Some("crates/pulse-core/src/c.rs"))
            .count(),
        1,
        "only the unwaived comparison fires"
    );
}

#[test]
fn waiver_naming_unknown_rule_is_flagged() {
    let files = vec![file(
        "crates/pulse-core/src/w.rs",
        "pulse-core",
        "// audit:allow(no-such-rule): bogus\n/// Doc.\npub fn ok() {}\n",
    )];
    let out = audit_files(&files);
    assert_eq!(out.diagnostics.len(), 1);
    assert_eq!(out.diagnostics[0].rule, "waiver");
}

#[test]
fn workspace_audit_is_self_clean() {
    // CARGO_MANIFEST_DIR = crates/pulse-audit → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists");
    let out = audit_workspace(root).expect("workspace walk succeeds");
    assert!(out.files_scanned > 50, "walk found the workspace sources");
    assert!(
        out.is_clean(),
        "workspace must pass its own audit:\n{}",
        out.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
