//! Snapshot tests for the machine-readable reports (JSON, SARIF) and a
//! round-trip test of the baseline ratchet — the shapes CI consumes. The
//! snapshots are intentionally strict: renderer output is part of the
//! tool's contract, so an incidental field reorder should fail here, not in
//! a downstream SARIF viewer.

use std::path::PathBuf;

use pulse_audit::baseline::Baseline;
use pulse_audit::output::{render_json, render_sarif};
use pulse_audit::source::SourceFile;
use pulse_audit::{audit_files, AuditOutcome};

const FIXTURE: &str = "\
use std::collections::HashMap;

pub fn walk(m: &HashMap<u32, u32>) -> u32 {
    let mut acc = 0;
    for k in m.keys() {
        acc += *k;
    }
    acc
}
";

fn outcome() -> AuditOutcome {
    let file = SourceFile::parse(
        PathBuf::from("crates/demo/src/lib.rs"),
        "pulse-experiments",
        FIXTURE,
    );
    audit_files(std::slice::from_ref(&file))
}

#[test]
fn json_report_snapshot() {
    let out = outcome();
    let expected = "\
{
  \"files_scanned\": 1,
  \"diagnostics\": [
    {\"path\": \"crates/demo/src/lib.rs\", \"line\": 5, \"rule\": \"hashmap-iter-order\", \
\"message\": \"iteration over unordered hash container `m` — order depends on hasher state \
and breaks bit-identical reproduction\", \
\"hint\": \"use BTreeMap/BTreeSet, or collect and sort before consuming the order\"}
  ]
}
";
    assert_eq!(render_json(&out), expected);
}

#[test]
fn json_report_is_structurally_sound_when_clean() {
    let empty = AuditOutcome {
        files_scanned: 3,
        diagnostics: Vec::new(),
    };
    let json = render_json(&empty);
    assert!(json.contains("\"files_scanned\": 3"));
    assert!(json.contains("\"diagnostics\": []"));
    // Balanced braces/brackets — cheap well-formedness check without a parser.
    for (open, close) in [('{', '}'), ('[', ']')] {
        let opens = json.matches(open).count();
        let closes = json.matches(close).count();
        assert_eq!(opens, closes, "unbalanced {open}{close} in:\n{json}");
    }
}

#[test]
fn sarif_report_carries_rule_table_and_result_locations() {
    let sarif = render_sarif(&outcome());
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("sarif-schema-2.1.0.json"));
    assert!(sarif.contains("\"name\": \"pulse-audit\""));
    // Every registered rule appears in the driver's rule table.
    for rule in pulse_audit::rules::registry() {
        assert!(
            sarif.contains(&format!("\"id\": \"{}\"", rule.name())),
            "rule {} missing from SARIF driver table",
            rule.name()
        );
    }
    assert!(sarif.contains("\"id\": \"waiver\""));
    // The finding shows up as a result with a physical location.
    assert!(sarif.contains("\"ruleId\": \"hashmap-iter-order\""));
    assert!(sarif.contains("\"uri\": \"crates/demo/src/lib.rs\""));
    assert!(sarif.contains("\"startLine\": 5"));
}

#[test]
fn baseline_ratchet_round_trips_and_flags_only_regressions() {
    let out = outcome();
    let accepted = Baseline::from_diagnostics(&out.diagnostics);

    // Same findings: no regressions.
    assert!(accepted.regressions(&out.diagnostics).is_empty());

    // A second finding of an accepted (path, rule) pair IS a regression:
    // the ratchet compares counts, not mere presence.
    let mut doubled = out.diagnostics.clone();
    doubled.extend(out.diagnostics.iter().cloned());
    let regressed = accepted.regressions(&doubled);
    assert_eq!(regressed.len(), 2, "whole regressed group is reported");

    // Serialized form reloads to the same decisions.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline-roundtrip.tsv");
    accepted.store(&path).unwrap();
    let reloaded = Baseline::load(&path).unwrap();
    assert!(reloaded.regressions(&out.diagnostics).is_empty());
    assert!(!reloaded.regressions(&doubled).is_empty());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn malformed_baseline_is_a_hard_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline-malformed.tsv");
    std::fs::write(&path, "not-a-baseline\n").unwrap();
    let err = Baseline::load(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_file(&path).unwrap();
}
