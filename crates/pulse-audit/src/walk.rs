//! Workspace file discovery.
//!
//! The audit scans first-party sources only: `crates/<name>/src/**/*.rs`
//! (crate name taken from the directory) plus the root package's `src/`
//! (crate name `pulse`). `vendor/` stand-ins, `target/`, integration
//! `tests/`, `benches/` and `examples/` are deliberately out of scope —
//! the rules state guarantees about shipped library code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Discover every in-scope `.rs` file under `root` (the workspace root) and
/// parse it into the masked-text source model. Paths are workspace-relative;
/// the result is sorted by path so downstream diagnostics are deterministic.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut found: Vec<(PathBuf, String)> = Vec::new();

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            let krate = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &krate, &mut found)?;
            }
        }
    }

    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, "pulse", &mut found)?;
    }

    let mut files = Vec::with_capacity(found.len());
    for (path, krate) in found {
        let text = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        files.push(SourceFile::parse(rel, &krate, &text));
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Recursively gather `.rs` files under `dir`, skipping build/vendor trees.
fn collect_rs(dir: &Path, krate: &str, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if matches!(name.as_deref(), Some("target") | Some("vendor")) {
                continue;
            }
            collect_rs(&path, krate, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path, krate.to_owned()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the real workspace when run from the repo (CARGO_MANIFEST_DIR
    /// is `crates/pulse-audit`, two levels below the root).
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
    }

    #[test]
    fn finds_core_files_with_crate_names() {
        let files = workspace_files(&repo_root()).expect("walk succeeds");
        assert!(files
            .iter()
            .any(|f| f.krate == "pulse-core" && f.path.ends_with("interarrival.rs")));
        assert!(files.iter().any(|f| f.krate == "pulse-audit"));
        assert!(files.iter().any(|f| f.krate == "pulse"));
    }

    #[test]
    fn vendor_is_not_scanned() {
        let files = workspace_files(&repo_root()).expect("walk succeeds");
        assert!(files.iter().all(|f| !f.path.starts_with("vendor")));
    }

    #[test]
    fn paths_are_sorted_and_relative() {
        let files = workspace_files(&repo_root()).expect("walk succeeds");
        let paths: Vec<_> = files.iter().map(|f| f.path.clone()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert!(paths.iter().all(|p| p.is_relative()));
    }
}
