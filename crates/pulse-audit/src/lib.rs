//! PULSE-specific static analysis.
//!
//! `pulse-audit` walks every first-party `.rs` file in the workspace and
//! enforces the three domain rules that no rustc or clippy lint, type or
//! test can express (see [`rules`]). Everything else it once checked is now
//! compiler-enforced: the workspace `[lints]` table and `clippy.toml`
//! (wall clock, hash containers, atomics, `unwrap`/`expect`/`panic`, raw
//! `as` casts, missing docs), private types (the schedule hole sentinel)
//! and tests (event coverage, probability signatures); DESIGN.md §8 maps
//! each former rule to its replacement. The crate is deliberately
//! dependency-free so it runs in offline CI and can never be broken by the
//! code it checks.
//!
//! Library layout (the pipeline runs top to bottom):
//! - [`walk`] — workspace file discovery (crate attribution, parsing);
//! - [`source`] — masked-text model of one file (strings/comments blanked,
//!   test-only spans and `audit:allow` waivers resolved);
//! - [`rules`] — the rule trait, registry and one module per rule;
//! - [`diagnostics`] — the diagnostic type; [`AuditOutcome::render`] prints
//!   the report.

pub mod diagnostics;
pub mod rules;
pub mod source;
pub mod walk;

use std::io;
use std::path::Path;

use diagnostics::Diagnostic;
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

    /// The human-readable report: one `path:line: [rule] message` line per
    /// diagnostic (plus its suggested rewrite under `fix_hints`), then a
    /// summary line.
    pub fn render(&self, fix_hints: bool) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
            if fix_hints {
                if let Some(hint) = &d.hint {
                    out.push_str("    hint: ");
                    out.push_str(hint);
                    out.push('\n');
                }
            }
        }
        if self.is_clean() {
            out.push_str(&format!(
                "pulse-audit: clean ({} files, {} rules)\n",
                self.files_scanned,
                rules::registry().len(),
            ));
        } else {
            out.push_str(&format!(
                "pulse-audit: {} violation(s) across {} files scanned\n",
                self.diagnostics.len(),
                self.files_scanned
            ));
        }
        out
    }
}

/// Check one parsed file against every in-scope rule (plus the framework
/// waiver-hygiene check); diagnostics come back sorted by (line, rule).
fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let rules = rules::registry();
    let rule_names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    let mut out = rules::check_waiver_hygiene(file, &rule_names);
    for rule in &rules {
        if rule.scope().includes(&file.krate) {
            out.extend(rule.check(file));
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Run every registered rule over `files` (in-memory entry point; the CLI
/// and tests share it).
pub fn audit_files(files: &[SourceFile]) -> AuditOutcome {
    let mut diagnostics: Vec<Diagnostic> = files.iter().flat_map(check_file).collect();
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
            "let same = ratio == 0.0;\n",
        )];
        assert!(audit_files(&files).is_clean());
    }

    #[test]
    fn text_report_lists_diagnostics_hints_and_summary() {
        let outcome = AuditOutcome {
            files_scanned: 2,
            diagnostics: vec![
                Diagnostic::new(
                    "a.rs",
                    3,
                    "float-cmp",
                    "float `==` comparison against a literal",
                )
                .with_hint("use an ordering test"),
                Diagnostic::new("b.rs", 7, "ledger-sweep", "full-function ledger sweep"),
            ],
        };
        let text = outcome.render(true);
        assert!(text.contains("a.rs:3: [float-cmp]"), "{text}");
        assert!(text.contains("    hint: use an ordering test"));
        assert!(text.contains("2 violation(s) across 2 files"));
        assert!(!outcome.render(false).contains("hint:"));
    }

    #[test]
    fn clean_text_report_shows_file_and_rule_counts() {
        let clean = AuditOutcome {
            files_scanned: 5,
            diagnostics: Vec::new(),
        };
        assert_eq!(
            clean.render(false),
            "pulse-audit: clean (5 files, 3 rules)\n"
        );
    }
}
