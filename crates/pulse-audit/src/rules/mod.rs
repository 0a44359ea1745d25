//! The rule registry: one module per rule.
//!
//! Adding a rule is three steps (see DESIGN.md "Static analysis &
//! invariants"): create a module implementing [`Rule`], add it to
//! [`registry`], and cover it with good/bad fixture tests. A rule earns its
//! place only if rustc or clippy cannot make the check: `unwrap`/`expect`/
//! `panic`, raw `as` casts and missing docs are workspace lints instead.
//!
//! Waivers use `// audit:allow(<rule-name>): <justification>` on the
//! offending line or on a comment line directly above it; the framework
//! rejects waivers with an empty justification.
//!
//! Rules come in two families sharing one trait:
//! - **text rules** (v1) scan the masked line view of a single file;
//! - **semantic rules** (v2) consume the token stream and item index in the
//!   [`Context`] — bindings classified by type, function signatures, spawn
//!   sites, and cross-file facts like "which functions return a `HashMap`".

pub mod atomic_ordering;
pub mod float_cmp;
pub mod float_reduce;
pub mod hashmap_iter;
pub mod ledger_sweep;
pub mod obs_event_coverage;
pub mod obs_sim_time;
pub mod probability_usage;
pub mod shared_mut_scope;
pub mod unseeded_rng;
pub mod variant_sentinel;
pub mod wall_clock;

use crate::diagnostics::Diagnostic;
pub use crate::index::Context;
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

    /// One-line description for `--list-rules` and the SARIF rule table.
    fn description(&self) -> &'static str;

    /// Crates the rule applies to.
    fn scope(&self) -> Scope;

    /// Scan one file; return all violations. Text rules ignore `ctx`;
    /// semantic rules read the file's token index and the cross-file facts
    /// from it.
    fn check(&self, file: &SourceFile, ctx: &Context) -> Vec<Diagnostic>;
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_cmp::FloatCmp),
        Box::new(wall_clock::WallClock),
        Box::new(obs_sim_time::ObsSimTime),
        Box::new(obs_event_coverage::ObsEventCoverage),
        Box::new(probability_usage::ProbabilityUsage),
        Box::new(variant_sentinel::VariantSentinel),
        Box::new(ledger_sweep::LedgerSweep),
        Box::new(hashmap_iter::HashMapIterOrder),
        Box::new(unseeded_rng::UnseededRng),
        Box::new(float_reduce::FloatReduceOrder),
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(shared_mut_scope::SharedMutInScope),
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
    fn registry_names_are_unique_and_kebab() {
        let rules = registry();
        assert!(rules.len() >= 12, "the audit ships at least 12 rules");
        let mut names: Vec<_> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate rule names");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
        }
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
