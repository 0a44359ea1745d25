//! PULSE-specific static analysis.
//!
//! `pulse-audit` walks every first-party `.rs` file in the workspace and
//! enforces the determinism and domain rules the PULSE policy core depends
//! on that rustc and clippy cannot express (see `rules` for the registry).
//! Checks a lint already makes — `unwrap`/`expect`/`panic`, raw `as` casts,
//! missing docs — live in the workspace `[lints]` table instead. The crate
//! is deliberately dependency-free so it runs in offline CI and can never
//! be broken by the code it checks.
//!
//! Library layout (the pipeline runs top to bottom; see DESIGN.md §13):
//! - [`walk`] — workspace file discovery (crate attribution, parsing);
//! - [`source`] — masked-text model of one file (strings/comments blanked,
//!   `#[cfg(test)]` spans and `audit:allow` waivers resolved);
//! - [`lex`] — token stream over the masked text;
//! - [`index`] — brace-matched item index (functions, typed bindings, spawn
//!   sites) and the cross-file fact table;
//! - [`rules`] — the rule trait, registry and one module per rule;
//! - [`diagnostics`] / [`output`] — the diagnostic type and its text / JSON
//!   / SARIF renderings;
//! - [`baseline`] — the committed CI ratchet (fail only on NEW findings).

pub mod baseline;
pub mod diagnostics;
pub mod index;
pub mod lex;
pub mod output;
pub mod rules;
pub mod source;
pub mod walk;

use std::io;
use std::path::Path;

use diagnostics::Diagnostic;
use index::Context;
use source::SourceFile;

/// Result of auditing a set of files.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditOutcome {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Check one parsed file against every in-scope rule (plus the framework
/// waiver-hygiene check); diagnostics come back sorted by (line, rule).
fn check_file(file: &SourceFile, ctx: &Context) -> Vec<Diagnostic> {
    let rules = rules::registry();
    let rule_names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    let mut out = rules::check_waiver_hygiene(file, &rule_names);
    for rule in &rules {
        if rule.scope().includes(&file.krate) {
            out.extend(rule.check(file, ctx));
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Run every registered rule over `files` (in-memory entry point; the CLI
/// and tests share it).
pub fn audit_files(files: &[SourceFile]) -> AuditOutcome {
    let ctx = Context::of(files);
    let mut diagnostics = Vec::new();
    for file in files {
        diagnostics.extend(check_file(file, &ctx));
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    AuditOutcome {
        files_scanned: files.len(),
        diagnostics,
    }
}

/// Walk the workspace rooted at `root` and audit every in-scope file.
pub fn audit_workspace(root: &Path) -> io::Result<AuditOutcome> {
    Ok(audit_files(&walk::workspace_files(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn diagnostics_are_sorted() {
        let files = vec![
            SourceFile::parse(PathBuf::from("b.rs"), "pulse-core", "let x = a == 0.0;\n"),
            SourceFile::parse(
                PathBuf::from("a.rs"),
                "pulse-core",
                "let y = b == 0.0;\nlet z = c == 0.0;\n",
            ),
        ];
        let out = audit_files(&files);
        assert_eq!(out.files_scanned, 2);
        assert_eq!(out.diagnostics.len(), 3);
        let keys: Vec<_> = out
            .diagnostics
            .iter()
            .map(|d| (d.path.clone(), d.line))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn clean_file_yields_clean_outcome() {
        let files = vec![SourceFile::parse(
            PathBuf::from("ok.rs"),
            "pulse-core",
            "/// Adds one.\npub fn add_one(x: u64) -> u64 { x + 1 }\n",
        )];
        assert!(audit_files(&files).is_clean());
    }

    #[test]
    fn out_of_scope_crate_not_checked_by_core_rules() {
        let files = vec![SourceFile::parse(
            PathBuf::from("exp.rs"),
            "pulse-experiments",
            "let t = Instant::now();\nlet x = v.unwrap();\n",
        )];
        assert!(audit_files(&files).is_clean());
    }

    #[test]
    fn semantic_rules_see_cross_file_facts_via_audit_files() {
        let files = vec![
            SourceFile::parse(
                PathBuf::from("a.rs"),
                "pulse-core",
                "/// Returns per-app totals.\npub fn by_app() -> HashMap<String, f64> { todo!() }\n",
            ),
            SourceFile::parse(
                PathBuf::from("b.rs"),
                "pulse-core",
                "/// Sums totals.\npub fn total() -> f64 { by_app().into_values().sum::<f64>() }\n",
            ),
        ];
        let out = audit_files(&files);
        assert!(
            out.diagnostics
                .iter()
                .any(|d| d.rule == "float-reduce-order"),
            "{:?}",
            out.diagnostics
        );
    }
}
