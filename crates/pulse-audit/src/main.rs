//! CLI entry point for the workspace audit.
//!
//! Exits 0 when the workspace is clean, 1 when any rule fires, 2 on usage
//! or I/O errors. The report goes to stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use pulse_audit::rules;

struct Options {
    root: PathBuf,
    fix_hints: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        fix_hints: false,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(v);
            }
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
    --fix-hints         print a suggested rewrite under each diagnostic
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

    print!("{}", outcome.render(opts.fix_hints));
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
