//! `unseeded-rng`: library code never seeds an RNG with a literal.
//!
//! Every stochastic path in the reproduction — assignment draws, synthetic
//! traces, fault injection, policy randomness — replays bit-identically
//! because the seed always arrives as data (a config field, a function
//! parameter, `base_seed + run`). A hard-coded literal seed
//! (`SmallRng::seed_from_u64(42)` in library code) looks deterministic but
//! cannot be varied per run, and two call sites sharing a literal silently
//! correlate their streams. The rule fires on `seed_from_u64`/`from_seed`
//! calls whose arguments hold no identifier, outside `#[cfg(test)]`; fixed
//! seeds in tests are exempt by design.
//!
//! Ambient entropy needs no rule: the vendored `rand` has no `thread_rng`,
//! `from_entropy` or `random`, so such calls do not compile.

use crate::diagnostics::Diagnostic;
use crate::rules::{Rule, Scope};
use crate::source::SourceFile;

/// See module docs.
pub struct UnseededRng;

/// Constructors whose argument list must mention at least one identifier
/// (a parameter, field or expression carrying the seed in from outside).
const SEEDED_CTORS: &[&str] = &["seed_from_u64(", "from_seed("];

impl Rule for UnseededRng {
    fn name(&self) -> &'static str {
        "unseeded-rng"
    }

    fn description(&self) -> &'static str {
        "no seed_from_u64/from_seed with a literal seed in library code"
    }

    fn scope(&self) -> Scope {
        Scope::AllCrates
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, line) in file.masked_lines.iter().enumerate() {
            let lineno = i + 1;
            if file.in_test[i] || file.is_waived(self.name(), lineno) {
                continue;
            }
            for ctor in SEEDED_CTORS {
                for (pos, _) in line.match_indices(ctor) {
                    let preceded_by_ident = line[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                    if preceded_by_ident {
                        continue;
                    }
                    let Some(args) = call_args(&line[pos + ctor.len()..]) else {
                        continue;
                    };
                    if is_literal_seed(args) {
                        out.push(
                            Diagnostic::new(
                                file.path.clone(),
                                lineno,
                                "unseeded-rng",
                                format!(
                                    "`{}` called with a hard-coded literal seed — route the \
                                     seed in as a parameter so runs can vary and replay",
                                    ctor.trim_end_matches('(')
                                ),
                            )
                            .with_hint(
                                "take a `seed: u64` parameter (or config field) and pass it \
                                 through",
                            ),
                        );
                    }
                }
            }
        }
        out
    }
}

/// The argument text up to the parenthesis closing the call, if it closes
/// on this line.
fn call_args(rest: &str) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' if depth > 0 => depth -= 1,
            ')' => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

/// Non-empty arguments in which every word is a numeric literal (`42`,
/// `0xDEAD_BEEF`, `7u64`, `[0u8; 32]`): no identifier carries a seed in.
fn is_literal_seed(args: &str) -> bool {
    let mut words = args
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .peekable();
    words.peek().is_some() && words.all(|w| w.starts_with(|c: char| c.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(text: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(PathBuf::from("x.rs"), "pulse-trace", text);
        UnseededRng.check(&f)
    }

    #[test]
    fn flags_literal_seed_in_library_code() {
        let ds = check(
            "fn gen() -> SmallRng { SmallRng::seed_from_u64(42) }\n\
             fn hex() -> SmallRng { SmallRng::seed_from_u64(0xDEAD_BEEFu64 ^ 7) }\n\
             fn arr() -> SmallRng { SmallRng::from_seed([0u8; 32]) }\n",
        );
        assert_eq!(ds.len(), 3, "{ds:?}");
        assert_eq!(ds[0].line, 1);
        assert!(ds[0].message.contains("hard-coded literal seed"));
    }

    #[test]
    fn seed_routed_through_parameter_is_clean() {
        let ds = check(
            "fn gen(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n\
             fn gen2(cfg: &Cfg) -> SmallRng { SmallRng::seed_from_u64(cfg.seed.wrapping_add(1)) }\n\
             fn gen3() -> SmallRng { SmallRng::seed_from_u64(BASE_SEED + 1) }\n\
             fn gen4(s: u64) -> SmallRng { SmallRng::seed_from_u64(mix(s, 3)) }\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn literal_seed_in_tests_is_exempt() {
        let ds = check(
            "#[cfg(test)]\nmod t {\n\
             fn rng() -> SmallRng { SmallRng::seed_from_u64(1234) }\n\
             }\n",
        );
        assert!(ds.is_empty());
    }

    #[test]
    fn waiver_suppresses() {
        let ds = check(
            "// audit:allow(unseeded-rng): protocol constant shared with the paper artifact\n\
             fn gen() -> SmallRng { SmallRng::seed_from_u64(2024) }\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn strings_comments_and_longer_names_are_not_matched() {
        let ds = check(
            "// SmallRng::seed_from_u64(42) in a comment\n\
             let s = \"seed_from_u64(42)\";\n\
             let r = reseed_from_u64(42);\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }
}
