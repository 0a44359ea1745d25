//! `float-cmp`: no `==`/`!=` against float literals in the policy core.
//!
//! Probabilities and memory values are `f64`s produced by chains of
//! arithmetic; exact equality against a literal (`p == 0.0`, `m != 1.0`)
//! silently stops matching once rounding enters the chain. Use a domain
//! predicate (e.g. `Probability::is_zero`), an epsilon comparison, or an
//! ordering test instead. This textual rule catches literal comparisons;
//! the `clippy::float_cmp` workspace lint covers typed ones but skips
//! comparisons with zero (`x == 0.0` passes it), the case this rule is for.

use crate::diagnostics::Diagnostic;
use crate::rules::{Rule, Scope};
use crate::source::SourceFile;

/// See module docs.
pub struct FloatCmp;

impl Rule for FloatCmp {
    fn name(&self) -> &'static str {
        "float-cmp"
    }

    fn description(&self) -> &'static str {
        "no ==/!= against float literals on probability/memory values (core + sim)"
    }

    fn scope(&self) -> Scope {
        Scope::Only(&["pulse-core", "pulse-sim"])
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, line) in file.masked_lines.iter().enumerate() {
            let lineno = i + 1;
            if file.in_test[i] || file.is_waived(self.name(), lineno) {
                continue;
            }
            for op in ["==", "!="] {
                for (pos, _) in line.match_indices(op) {
                    if !standalone_operator(line, pos, op) {
                        continue;
                    }
                    let lhs = token_before(&line[..pos]);
                    let rhs = token_after(&line[pos + op.len()..]);
                    if is_float_literal(&lhs) || is_float_literal(&rhs) {
                        out.push(
                            Diagnostic::new(
                                file.path.clone(),
                                lineno,
                                "float-cmp",
                                format!("float `{op}` comparison against a literal"),
                            )
                            .with_hint(
                                "use a domain predicate (Probability::is_zero), an epsilon \
                                 comparison, or an ordering test",
                            ),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Reject `==`/`!=` occurrences that are part of `<=`, `>=`, `=>`, `===`-like
/// neighbourhoods or compound-assignment operators.
fn standalone_operator(line: &str, pos: usize, op: &str) -> bool {
    const GLUE: &[char] = &['=', '!', '<', '>', '+', '-', '*', '/', '%', '&', '|', '^'];
    let before_ok = line[..pos]
        .chars()
        .next_back()
        .is_none_or(|c| !GLUE.contains(&c));
    let after_ok = line[pos + op.len()..]
        .chars()
        .next()
        .is_none_or(|c| c != '=');
    before_ok && after_ok
}

/// Last expression-ish token before the operator.
fn token_before(s: &str) -> String {
    s.trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.'))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

/// First expression-ish token after the operator.
fn token_after(s: &str) -> String {
    let t = s.trim_start();
    let neg = t.starts_with('-');
    let body: String = t
        .chars()
        .skip(usize::from(neg))
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.'))
        .collect();
    if neg {
        format!("-{body}")
    } else {
        body
    }
}

/// `0.0`, `-1.5`, `2.0f64`, `1.0e-3` — digits with a decimal point, optional
/// sign/suffix/exponent.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(text: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(PathBuf::from("x.rs"), "pulse-core", text);
        FloatCmp.check(&f)
    }

    #[test]
    fn flags_literal_on_either_side() {
        let ds = check("if p == 0.0 { }\nif 1.0 != q { }\nif m == 2.0f64 { }\n");
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn ignores_int_and_ident_comparisons() {
        let ds = check("if n == 0 { }\nif a == b { }\nif v != other.v { }\n");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn ignores_le_ge_and_match_arrows() {
        let ds = check("if p <= 0.0 { }\nif p >= 1.0 { }\nlet f = |x| match x { _ => 0.0 };\n");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn negative_literal_is_caught() {
        let ds = check("if delta == -1.0 { }\n");
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn test_code_and_waivers_exempt() {
        let ds = check(
            "#[cfg(test)]\nmod t { fn f() { assert!(p == 0.0); } }\n\
             // audit:allow(float-cmp): exact-zero is the only invalid divisor\n\
             if baseline == 0.0 { }\n",
        );
        assert!(ds.is_empty(), "{ds:?}");
    }
}
