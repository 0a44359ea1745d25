//! `ledger-sweep`: no full-function ledger sweeps outside the ledger module.
//!
//! `ScheduleLedger` owns the one sweep over its functions. Billing sums each
//! minute's alive memory in ascending function order, and that order is
//! part of every bitwise pin between engines, so it is spelled in one
//! place. Engines read a minute through the ledger's queries: the sweep
//! itself (`keep_alive_mb_at`, `minute_footprint`) or
//! `fill_minute_footprint`, which the runtime's incremental ledger answers
//! from its per-minute alive set in the same order. A hand-rolled
//! `for f in 0..ledger.n_functions()` (or `0..schedules.len()`) loop outside
//! the ledger would be a second copy of the sweep, free to drift from the
//! billing order, and on the runtime an `O(n)`-per-minute cost its index
//! exists to avoid. This rule flags, outside
//! `crates/pulse-core/src/schedule.rs` (the module that owns the sweep):
//!
//! * `0..` ranges bounded by a ledger's `n_functions()`;
//! * `0..` ranges bounded by `schedules.len()`.
//!
//! Sweeps that are genuinely full-fleet by contract (e.g. the checkpoint
//! codecs, which must serialize every function) carry waivers naming this
//! rule.

use crate::diagnostics::Diagnostic;
use crate::rules::{Context, Rule, Scope};
use crate::source::SourceFile;
use std::path::Path;

/// See module docs.
pub struct LedgerSweep;

/// The module that owns the full sweep and may spell it freely.
const LEDGER_MODULE: &str = "crates/pulse-core/src/schedule.rs";

impl Rule for LedgerSweep {
    fn name(&self) -> &'static str {
        "ledger-sweep"
    }

    fn description(&self) -> &'static str {
        "no 0..n_functions()/0..schedules.len() full-ledger sweeps outside pulse-core's ledger module"
    }

    fn scope(&self) -> Scope {
        Scope::AllCrates
    }

    fn check(&self, file: &SourceFile, _ctx: &Context) -> Vec<Diagnostic> {
        if file.path == Path::new(LEDGER_MODULE) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, line) in file.masked_lines.iter().enumerate() {
            let lineno = i + 1;
            if file.in_test[i] || file.is_waived(self.name(), lineno) {
                continue;
            }
            if !line.contains("0..") {
                continue;
            }
            let ledger_bound = line.contains(".n_functions()")
                && (line.contains("ledger") || line.contains("Ledger"));
            let schedules_bound = line.contains("schedules.len()");
            if ledger_bound || schedules_bound {
                out.push(
                    Diagnostic::new(
                        file.path.clone(),
                        lineno,
                        "ledger-sweep",
                        "full-function ledger sweep outside the ledger module",
                    )
                    .with_hint(
                        "ask the ledger instead (keep_alive_mb_at / fill_minute_footprint / \
                         minute_footprint) so the sweep and its summation order live in one \
                         place; waive if the sweep is full-fleet by contract (e.g. a \
                         checkpoint codec)",
                    ),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check_at(path: &str, text: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(PathBuf::from(path), "pulse-sim", text);
        LedgerSweep.check(&f, &Context::default())
    }

    fn check(text: &str) -> Vec<Diagnostic> {
        check_at("crates/pulse-sim/src/engine.rs", text)
    }

    #[test]
    fn flags_n_functions_sweep() {
        let ds = check("for f in 0..self.ledger.n_functions() {\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("full-function"));
    }

    #[test]
    fn flags_schedules_len_sweep() {
        let ds = check("let totals: Vec<f64> = (0..schedules.len()).map(total_of).collect();\n");
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn non_ledger_ranges_are_fine() {
        // Family/trace/node sweeps are not ledger sweeps.
        let ds = check(
            "for f in 0..self.rt.families.len() {}\n\
             let busier = (0..self.trace.n_functions()).count();\n\
             for k in 0..nodes.len() {}\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn ledger_module_is_exempt() {
        let f = SourceFile::parse(
            PathBuf::from("crates/pulse-core/src/schedule.rs"),
            "pulse-core",
            "for f in 0..self.ledger.n_functions() {}\nfor f in 0..schedules.len() {}\n",
        );
        assert!(LedgerSweep.check(&f, &Context::default()).is_empty());
    }

    #[test]
    fn waiver_and_test_code_are_exempt() {
        let ds = check(
            "// audit:allow(ledger-sweep): checkpoint codec serializes every function\n\
             for f in 0..ledger.n_functions() {\n\
             #[cfg(test)]\nmod t { fn f() { let _ = 0..ledger.n_functions(); } }\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn strings_and_comments_are_masked() {
        let ds = check(
            "// the old loop was `for f in 0..schedules.len()`\n\
             let s = \"0..ledger.n_functions()\";\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }
}
