//! Diagnostic rendering: human text, machine JSON, and SARIF 2.1.0.
//!
//! All three renderers are deterministic — diagnostics arrive sorted from
//! [`crate::AuditOutcome`] and fields are emitted in a fixed order — so the
//! outputs are snapshot-testable and diffable across runs. JSON is
//! hand-rolled (the crate is deliberately dependency-free; `pulse-obs` sets
//! the precedent for emitting JSON without serde).
//!
//! The SARIF output is the minimal valid subset of SARIF 2.1.0 that GitHub
//! code scanning and other SARIF viewers accept: one run, a tool driver
//! carrying the rule table from [`crate::rules::registry`], and one result
//! per diagnostic with a physical location. CI uploads it as an artifact so
//! findings are browsable without re-running the audit.

use crate::rules;
use crate::AuditOutcome;

/// Render the human-readable report (the default CLI output).
pub fn render_text(outcome: &AuditOutcome, fix_hints: bool) -> String {
    let mut out = String::new();
    for d in &outcome.diagnostics {
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
    if outcome.is_clean() {
        out.push_str(&format!(
            "pulse-audit: clean ({} files, {} rules)\n",
            outcome.files_scanned,
            rules::registry().len(),
        ));
    } else {
        out.push_str(&format!(
            "pulse-audit: {} violation(s) across {} files scanned\n",
            outcome.diagnostics.len(),
            outcome.files_scanned
        ));
    }
    out
}

/// Render the machine-readable JSON report.
pub fn render_json(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"",
            json_escape(&d.path.to_string_lossy()),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
        if let Some(hint) = &d.hint {
            out.push_str(&format!(", \"hint\": \"{}\"", json_escape(hint)));
        }
        out.push('}');
    }
    if outcome.diagnostics.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Render a minimal SARIF 2.1.0 report.
pub fn render_sarif(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\n");
    out.push_str("      \"name\": \"pulse-audit\",\n");
    out.push_str(&format!(
        "      \"version\": \"{}\",\n",
        json_escape(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("      \"rules\": [");
    let registry = rules::registry();
    for (i, rule) in registry.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_escape(rule.name()),
            json_escape(rule.description())
        ));
    }
    // The framework-level waiver-hygiene pseudo-rule also appears in results.
    out.push_str(
        ",\n        {\"id\": \"waiver\", \"shortDescription\": \
         {\"text\": \"audit:allow waivers must name a rule and justify themselves\"}}",
    );
    out.push_str("\n      ]\n");
    out.push_str("    }},\n");
    out.push_str("    \"results\": [");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_escape(d.rule),
            json_escape(&d.message),
            json_escape(&d.path.to_string_lossy().replace('\\', "/")),
            d.line
        ));
    }
    if outcome.diagnostics.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n    ]\n");
    }
    out.push_str("  }]\n");
    out.push_str("}\n");
    out
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Diagnostic;

    fn outcome() -> AuditOutcome {
        AuditOutcome {
            files_scanned: 2,
            diagnostics: vec![
                Diagnostic::new("a.rs", 3, "unwrap", "found `.unwrap()` in library code")
                    .with_hint("propagate with `?`"),
                Diagnostic::new("b.rs", 7, "cast", "raw `as f64` cast"),
            ],
        }
    }

    #[test]
    fn text_report_lists_diagnostics_and_summary() {
        let text = render_text(&outcome(), true);
        assert!(text.contains("a.rs:3: [unwrap]"));
        assert!(text.contains("    hint: propagate with `?`"));
        assert!(text.contains("2 violation(s) across 2 files"));
    }

    #[test]
    fn clean_text_report_shows_file_and_rule_counts() {
        let clean = AuditOutcome {
            files_scanned: 5,
            diagnostics: Vec::new(),
        };
        let text = render_text(&clean, false);
        let rules = rules::registry().len();
        assert!(
            text.contains(&format!("clean (5 files, {rules} rules)")),
            "{text}"
        );
    }

    #[test]
    fn json_is_deterministic_and_carries_all_fields() {
        let json = render_json(&outcome());
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(
            json.contains("\"path\": \"a.rs\", \"line\": 3, \"rule\": \"unwrap\""),
            "{json}"
        );
        assert!(json.contains("\"hint\": \"propagate with `?`\""));
        assert_eq!(json, render_json(&outcome()), "deterministic");
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let sarif = render_sarif(&outcome());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"pulse-audit\""));
        assert!(sarif.contains("{\"id\": \"hashmap-iter-order\""), "{sarif}");
        assert!(sarif.contains("{\"id\": \"waiver\""));
        assert!(sarif.contains("\"ruleId\": \"unwrap\""));
        assert!(sarif.contains("\"startLine\": 3"));
    }

    #[test]
    fn empty_outcome_renders_empty_arrays() {
        let clean = AuditOutcome {
            files_scanned: 1,
            diagnostics: Vec::new(),
        };
        assert!(render_json(&clean).contains("\"diagnostics\": []"));
        assert!(render_sarif(&clean).contains("\"results\": []"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
