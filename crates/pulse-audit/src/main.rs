//! CLI entry point for the workspace audit.
//!
//! Exits 0 when the workspace is clean (or, with `--baseline`, when nothing
//! regressed past the committed ratchet), 1 when findings fail the run, 2 on
//! usage or I/O errors. Reports go to stdout or `--out` in one of three
//! formats: human text (default), machine JSON, or SARIF 2.1.0 for CI
//! artifact upload.

use std::path::PathBuf;
use std::process::ExitCode;

use pulse_audit::baseline::Baseline;
use pulse_audit::{output, rules};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    fix_hints: bool,
    list_rules: bool,
    format: Format,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        fix_hints: false,
        list_rules: false,
        format: Format::Text,
        out: None,
        baseline: None,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(v);
            }
            "--format" => {
                let v = args.next().ok_or("--format requires text|json|sarif")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => {
                let v = args.next().ok_or("--out requires a path")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = args.next().ok_or("--baseline requires a path")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--write-baseline" => opts.write_baseline = true,
            "--fix-hints" => opts.fix_hints = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "\
pulse-audit — PULSE-specific static analysis

USAGE:
    pulse-audit [OPTIONS]

OPTIONS:
    --root <path>       workspace root to scan (default: current directory)
    --format <fmt>      report format: text (default), json, sarif
    --out <path>        write the report to a file instead of stdout
    --baseline <path>   ratchet file: exit 1 only on findings NOT covered by
                        the baseline (new (path, rule) pairs or grown counts)
    --write-baseline    rewrite the baseline file to accept current findings
                        (requires --baseline), then exit by the ratchet
    --fix-hints         print a suggested rewrite under each text diagnostic
    --list-rules        list registered rules with their descriptions and exit

Waive a finding with `// audit:allow(<rule>): <justification>` on the
offending line or on a comment line directly above it. Waivers without a
justification are themselves violations.";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::registry() {
            println!("{:<20} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if opts.write_baseline && opts.baseline.is_none() {
        eprintln!("error: --write-baseline requires --baseline <path>\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let outcome = match pulse_audit::audit_workspace(&opts.root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    // A root with zero source files is a misconfiguration (wrong --root, CI
    // checkout missing), not a clean workspace — fail loudly instead of
    // letting a green "clean (0 files)" hide it.
    if outcome.files_scanned == 0 {
        eprintln!(
            "error: no workspace .rs files found under {}",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let report = match opts.format {
        Format::Text => output::render_text(&outcome, opts.fix_hints),
        Format::Json => output::render_json(&outcome),
        Format::Sarif => output::render_sarif(&outcome),
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("error: failed to write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{report}"),
    }

    // Ratchet: with a baseline, only regressions beyond it fail the run.
    if let Some(baseline_path) = &opts.baseline {
        if opts.write_baseline {
            let snapshot = Baseline::from_diagnostics(&outcome.diagnostics);
            if let Err(e) = snapshot.store(baseline_path) {
                eprintln!("error: failed to write {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "pulse-audit: baseline written to {} ({} accepted finding(s))",
                baseline_path.display(),
                outcome.diagnostics.len()
            );
            return ExitCode::SUCCESS;
        }
        let accepted = match Baseline::load(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: failed to load {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        let regressions = accepted.regressions(&outcome.diagnostics);
        if regressions.is_empty() {
            eprintln!(
                "pulse-audit: no regressions past baseline ({} accepted finding(s))",
                outcome.diagnostics.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "pulse-audit: {} finding(s) regress past the baseline:",
            regressions.len()
        );
        for d in regressions {
            eprintln!("  NEW {d}");
        }
        return ExitCode::FAILURE;
    }

    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
