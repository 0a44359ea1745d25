//! The rule registry: one module per rule.
//!
//! Adding a rule is three steps (see DESIGN.md §8): create a module
//! implementing [`Rule`], add it to [`registry`], and cover it with
//! firing/clean/waived unit tests. A rule earns its place only if rustc,
//! clippy (the workspace `[lints]` table and `clippy.toml`), a type or a test
//! cannot make the check.
//!
//! Every rule is a text rule over the masked line view of a single file
//! ([`SourceFile::masked_lines`]), so patterns inside strings and comments
//! never match.
//!
//! Waivers use `// audit:allow(<rule-name>): <justification>` on the
//! offending line or on a comment line directly above it; the framework
//! rejects waivers with an empty justification.

pub mod float_cmp;
pub mod ledger_sweep;
pub mod unseeded_rng;

use crate::diagnostics::Diagnostic;
use crate::source::SourceFile;

/// Which crates a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every first-party workspace crate.
    AllCrates,
    /// Only the named crates.
    Only(&'static [&'static str]),
}

impl Scope {
    /// Does the scope include `krate`?
    pub fn includes(&self, krate: &str) -> bool {
        match self {
            Scope::AllCrates => true,
            Scope::Only(names) => names.contains(&krate),
        }
    }
}

/// A single static-analysis rule.
pub trait Rule {
    /// Stable rule name, used in diagnostics and waiver comments.
    fn name(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;

    /// Crates the rule applies to.
    fn scope(&self) -> Scope;

    /// Scan one file; return all violations.
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic>;
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_cmp::FloatCmp),
        Box::new(ledger_sweep::LedgerSweep),
        Box::new(unseeded_rng::UnseededRng),
    ]
}

/// Framework-level check shared by all rules: every waiver present in the
/// file must name a registered rule and carry a non-empty justification.
pub fn check_waiver_hygiene(file: &SourceFile, rule_names: &[&str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for w in file.all_waivers() {
        if !rule_names.contains(&w.rule.as_str()) {
            out.push(Diagnostic::new(
                file.path.clone(),
                w.line,
                "waiver",
                format!("waiver names unknown rule `{}`", w.rule),
            ));
        }
        if w.justification.is_empty() {
            out.push(
                Diagnostic::new(
                    file.path.clone(),
                    w.line,
                    "waiver",
                    format!(
                        "waiver for `{}` has no justification — write \
                         `// audit:allow({}): <why this is sound>`",
                        w.rule, w.rule
                    ),
                )
                .with_hint("append `: <justification>` to the waiver comment".to_owned()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "pulse-core", text)
    }

    #[test]
    fn registry_holds_the_three_rules_no_lint_can_express() {
        let mut names: Vec<_> = registry().iter().map(|r| r.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["float-cmp", "ledger-sweep", "unseeded-rng"]);
    }

    #[test]
    fn scope_only_filters() {
        let s = Scope::Only(&["pulse-core"]);
        assert!(s.includes("pulse-core"));
        assert!(!s.includes("pulse-sim"));
        assert!(Scope::AllCrates.includes("anything"));
    }

    #[test]
    fn unjustified_waiver_is_flagged() {
        let f = file("// audit:allow(cast)\nlet x = 1u32 as f64;\n");
        let ds = check_waiver_hygiene(&f, &["cast"]);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("no justification"));
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let f = file("// audit:allow(made-up): because\nlet x = 1;\n");
        let ds = check_waiver_hygiene(&f, &["cast"]);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("unknown rule"));
    }

    #[test]
    fn justified_known_waiver_passes() {
        let f =
            file("// audit:allow(cast): bounded by the 10-minute window\nlet x = 1u32 as f64;\n");
        assert!(check_waiver_hygiene(&f, &["cast"]).is_empty());
    }
}
