//! Committed baseline / ratchet for CI.
//!
//! A baseline records, per `(path, rule)` pair, how many findings are
//! currently accepted. CI runs the audit with `--baseline audit-baseline.tsv`
//! and fails **only on regressions** — a pair whose current count exceeds
//! its baselined count. Pre-existing findings keep CI green while they are
//! being burned down, but no new finding can land; shrinking counts are
//! allowed without touching the file, which is what makes it a ratchet
//! rather than a suppression list. Regenerate with `--write-baseline` after
//! deliberate changes (the diff then shows exactly which debt was added or
//! paid off, reviewable like any other change).
//!
//! The workspace's committed baseline is empty — the audit holds at zero
//! findings — so the ratchet currently enforces "no findings at all" and
//! exists so a future justified exception is a reviewed one-line diff
//! instead of a waiver scattered in source.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::diagnostics::Diagnostic;

/// On-disk format version.
pub const BASELINE_FORMAT: u32 = 1;

/// Accepted finding counts per `(path, rule)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(workspace-relative path, rule name)` → accepted count.
    pub counts: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Snapshot the baseline that would accept exactly `diagnostics`.
    pub fn from_diagnostics(diagnostics: &[Diagnostic]) -> Self {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diagnostics {
            *counts
                .entry((d.path.to_string_lossy().into_owned(), d.rule.to_owned()))
                .or_insert(0) += 1;
        }
        Self { counts }
    }

    /// Load a baseline file. A malformed file is an error: a silently-empty
    /// baseline would turn every accepted finding into a CI failure — or
    /// worse, on a `--write-baseline` round-trip, silently accept new ones.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        parse(&text).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed baseline file {}", path.display()),
            )
        })
    }

    /// Write the baseline to `path` (deterministic order, diff-friendly).
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let mut out = format!("pulse-audit-baseline\t{BASELINE_FORMAT}\n");
        for ((p, rule), count) in &self.counts {
            out.push_str(&format!("{p}\t{rule}\t{count}\n"));
        }
        fs::write(path, out)
    }

    /// The diagnostics in groups that regressed past the baseline: every
    /// diagnostic of any `(path, rule)` pair whose current count exceeds the
    /// accepted count. Returning the whole group (not just the excess) is
    /// deliberate — the findings are indistinguishable, so the report shows
    /// all candidate lines for the regression.
    pub fn regressions<'d>(&self, diagnostics: &'d [Diagnostic]) -> Vec<&'d Diagnostic> {
        let current = Self::from_diagnostics(diagnostics);
        let mut out = Vec::new();
        for (key, &count) in &current.counts {
            let accepted = self.counts.get(key).copied().unwrap_or(0);
            if count > accepted {
                out.extend(
                    diagnostics
                        .iter()
                        .filter(|d| d.path.to_string_lossy() == key.0.as_str() && d.rule == key.1),
                );
            }
        }
        out
    }
}

fn parse(text: &str) -> Option<Baseline> {
    let mut lines = text.lines();
    let mut header = lines.next()?.split('\t');
    if header.next()? != "pulse-audit-baseline"
        || header.next()?.parse::<u32>().ok()? != BASELINE_FORMAT
    {
        return None;
    }
    let mut counts = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let path = parts.next()?.to_owned();
        let rule = parts.next()?.to_owned();
        let count = parts.next()?.parse::<usize>().ok()?;
        counts.insert((path, rule), count);
    }
    Some(Baseline { counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(path: &str, line: usize, rule: &'static str) -> Diagnostic {
        Diagnostic::new(path, line, rule, "msg")
    }

    #[test]
    fn counts_group_by_path_and_rule() {
        let ds = vec![
            diag("a.rs", 1, "unwrap"),
            diag("a.rs", 9, "unwrap"),
            diag("b.rs", 2, "cast"),
        ];
        let b = Baseline::from_diagnostics(&ds);
        assert_eq!(b.counts[&("a.rs".to_owned(), "unwrap".to_owned())], 2);
        assert_eq!(b.counts[&("b.rs".to_owned(), "cast".to_owned())], 1);
    }

    #[test]
    fn ratchet_allows_accepted_and_shrinking_counts() {
        let accepted =
            Baseline::from_diagnostics(&[diag("a.rs", 1, "unwrap"), diag("a.rs", 9, "unwrap")]);
        // Same count: fine. Fewer: fine.
        assert!(accepted
            .regressions(&[diag("a.rs", 1, "unwrap"), diag("a.rs", 9, "unwrap")])
            .is_empty());
        assert!(accepted
            .regressions(&[diag("a.rs", 1, "unwrap")])
            .is_empty());
    }

    #[test]
    fn ratchet_fails_on_new_findings_only() {
        let accepted = Baseline::from_diagnostics(&[diag("a.rs", 1, "unwrap")]);
        // A second unwrap in a.rs regresses that group; the cast in b.rs is
        // brand new; both are reported, and nothing else.
        let current = vec![
            diag("a.rs", 1, "unwrap"),
            diag("a.rs", 5, "unwrap"),
            diag("b.rs", 2, "cast"),
        ];
        let regressed = accepted.regressions(&current);
        assert_eq!(regressed.len(), 3);
        assert!(regressed.iter().any(|d| d.line == 5));
        assert!(regressed.iter().any(|d| d.rule == "cast"));
    }

    #[test]
    fn empty_baseline_means_zero_tolerance() {
        let b = Baseline::default();
        assert!(b.regressions(&[]).is_empty());
        assert_eq!(b.regressions(&[diag("a.rs", 1, "unwrap")]).len(), 1);
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("pulse-audit-baseline-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("baseline.tsv");
        let b = Baseline::from_diagnostics(&[diag("a.rs", 1, "unwrap"), diag("b.rs", 2, "cast")]);
        b.store(&path).expect("store");
        assert_eq!(Baseline::load(&path).expect("load"), b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_baseline_is_an_error_not_empty() {
        let dir =
            std::env::temp_dir().join(format!("pulse-audit-badbase-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("baseline.tsv");
        std::fs::write(&path, "garbage\n").expect("write");
        assert!(Baseline::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
