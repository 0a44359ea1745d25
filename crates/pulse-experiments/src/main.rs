//! `pulse-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! pulse-exp [--quick|--full] [--seed N] [--runs N] [--horizon MIN]
//!           [--demo] [--rps N] [--duration SECS]
//!           [--out DIR] [--trace-out FILE] [all | <exp>...]
//! ```
//!
//! * `--quick` (default): 4-day trace, 30 runs — minutes of wall clock.
//! * `--full`: the paper-scale setup — 14-day trace, 1000 runs.
//! * `--demo`: shorthand for `--rps 200000 --duration 10`, the single-box
//!   serving demo scale (place it before any explicit `--rps`/`--duration`
//!   override).
//! * `--trace-out FILE`: write a structured JSONL event trace (see
//!   `pulse-obs`) for the experiments that support it (`chaos`,
//!   `overload`, `serve`; `recover` writes a checkpointed journal
//!   instead). The file is truncated once per invocation.
//! * experiments: `table1 fig1 fig2 table2 fig4 fig5 fig6a fig6b fig7 fig8
//!   fig9 fig10 fig11 fig12`, extensions such as `validate`, `chaos`
//!   (fault-injection sweep), `overload` (bounded admission + node
//!   capacity + watchdog), `recover` (crash-recovery matrix) and `serve`
//!   (live open-loop serving), or `all`.
//!
//! Every flag accepts both `--flag value` and `--flag=value`. Parse errors
//! name the offending flag — and for malformed values, the value — then
//! exit with status 2.

use pulse_experiments::{run_experiment, ExpConfig, ServeOptions, EXPERIMENTS};

/// The parsed command line.
#[derive(Debug)]
struct Cli {
    cfg: ExpConfig,
    names: Vec<String>,
    out_dir: Option<std::path::PathBuf>,
    help: bool,
}

// Per-experiment wall time is printed for the operator only.
#[allow(clippy::disallowed_methods)]
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&raw) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    if cli.help {
        print_usage();
        return;
    }
    let cfg = cli.cfg;
    let mut names = cli.names;
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    if let Some(path) = &cfg.trace_out {
        // Truncate once here; experiments open the file in append mode so
        // several sweeps in one invocation share the stream.
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("error: cannot create trace file {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if names.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if names.iter().any(|n| n == "all") {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    println!(
        "# pulse-exp: seed={} horizon={}min runs={}\n",
        cfg.seed, cfg.horizon, cfg.n_runs
    );
    let mut failed = false;
    for name in names {
        let started = std::time::Instant::now();
        match run_experiment(&name, &cfg) {
            Ok(report) => {
                println!("{report}");
                if let Some(dir) = &cli.out_dir {
                    let path = dir.join(format!("{name}.txt"));
                    if let Err(e) = std::fs::write(&path, &report) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        failed = true;
                    }
                }
                eprintln!("[{name} done in {:.1?}]", started.elapsed());
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Parse the raw argument list. Both `--flag value` and `--flag=value` are
/// accepted. Errors are loud and specific: a flag with no value says so by
/// name; a flag with a malformed value names the flag *and* echoes the
/// value; an unknown `--flag` is rejected instead of being silently treated
/// as an experiment name.
fn parse_args(raw: &[String]) -> Result<Cli, String> {
    // Normalize --flag=value into two tokens so both spellings share one
    // code path.
    let mut tokens: Vec<String> = Vec::with_capacity(raw.len());
    for a in raw {
        match a.strip_prefix("--").and_then(|rest| rest.split_once('=')) {
            Some((flag, value)) => {
                tokens.push(format!("--{flag}"));
                tokens.push(value.to_string());
            }
            None => tokens.push(a.clone()),
        }
    }
    let mut cli = Cli {
        cfg: ExpConfig::quick(),
        names: Vec::new(),
        out_dir: None,
        help: false,
    };
    let mut it = tokens.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cli.cfg = ExpConfig::quick(),
            "--full" => cli.cfg = ExpConfig::full(),
            "--seed" => cli.cfg.seed = parse_num(take_value(&mut it, "--seed")?, "--seed")?,
            "--runs" => {
                cli.cfg.n_runs = parse_num(take_value(&mut it, "--runs")?, "--runs")?;
            }
            "--horizon" => {
                cli.cfg.horizon = parse_num(take_value(&mut it, "--horizon")?, "--horizon")?;
            }
            "--demo" => cli.cfg.serve = ServeOptions::demo(),
            "--rps" => cli.cfg.serve.rps = parse_num(take_value(&mut it, "--rps")?, "--rps")?,
            "--duration" => {
                cli.cfg.serve.seconds =
                    parse_num(take_value(&mut it, "--duration")?, "--duration")?;
            }
            "--out" => {
                cli.out_dir = Some(std::path::PathBuf::from(take_value(&mut it, "--out")?));
            }
            "--trace-out" => {
                cli.cfg.trace_out = Some(std::path::PathBuf::from(take_value(
                    &mut it,
                    "--trace-out",
                )?));
            }
            "--help" | "-h" => cli.help = true,
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag {flag}; see --help"));
            }
            name => cli.names.push(name.to_string()),
        }
    }
    Ok(cli)
}

/// Take the next token as `flag`'s value; a missing token — or another flag
/// where the value should be — is an error naming `flag`.
fn take_value<'a>(
    it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    flag: &str,
) -> Result<&'a str, String> {
    it.next_if(|v| !v.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parse `v` as a number for `flag`; the error names both.
fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value for {flag}: {v:?} is not a number"))
}

fn print_usage() {
    eprintln!(
        "usage: pulse-exp [--quick|--full] [--seed N] [--runs N] [--horizon MIN] [--demo] [--rps N] [--duration SECS] [--out DIR] [--trace-out FILE] [all | <exp>...]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let raw: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        parse_args(&raw)
    }

    #[test]
    fn space_and_equals_spellings_agree() {
        let a = parse(&["--seed", "7", "--runs=3", "chaos"]).unwrap();
        assert_eq!(a.cfg.seed, 7);
        assert_eq!(a.cfg.n_runs, 3);
        assert_eq!(a.names, ["chaos"]);
    }

    #[test]
    fn missing_value_names_the_flag() {
        let e = parse(&["--seed"]).unwrap_err();
        assert!(
            e.contains("--seed") && e.contains("requires a value"),
            "{e}"
        );
    }

    #[test]
    fn a_following_flag_is_not_a_value() {
        let e = parse(&["--runs", "--seed", "9"]).unwrap_err();
        assert!(
            e.contains("--runs") && e.contains("requires a value"),
            "{e}"
        );
    }

    #[test]
    fn malformed_value_names_flag_and_value() {
        let e = parse(&["--horizon", "soon"]).unwrap_err();
        assert!(e.contains("--horizon") && e.contains("soon"), "{e}");
        let e = parse(&["--rps=fast"]).unwrap_err();
        assert!(e.contains("--rps") && e.contains("fast"), "{e}");
    }

    #[test]
    fn unknown_flags_fail_instead_of_becoming_experiment_names() {
        let e = parse(&["--sede", "7"]).unwrap_err();
        assert!(e.contains("--sede"), "{e}");
    }

    #[test]
    fn demo_sets_serve_scale_and_later_flags_override_it() {
        let a = parse(&["--demo", "serve"]).unwrap();
        assert_eq!(a.cfg.serve, ServeOptions::demo());
        let b = parse(&["--demo", "--rps=50000", "serve"]).unwrap();
        assert_eq!(b.cfg.serve.rps, 50_000);
        assert_eq!(b.cfg.serve.seconds, ServeOptions::demo().seconds);
    }

    #[test]
    fn experiment_names_and_out_dir_still_parse() {
        let a = parse(&["--trace-out=t.jsonl", "--out", "results", "fig4", "fig5"]).unwrap();
        assert_eq!(
            a.cfg.trace_out.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        assert_eq!(a.out_dir.as_deref(), Some(std::path::Path::new("results")));
        assert_eq!(a.names, ["fig4", "fig5"]);
    }
}
