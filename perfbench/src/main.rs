//! `pulse-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the output checks, every metric with its unit and sample count,
//! and (traced runs) the per-layer self-time table; the last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits with 1 when any output check fails and 2
//! on a usage error.

use pulse_perfbench::{run, Opts, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("pulse-perfbench: {msg}");
    eprintln!(
        "usage: pulse-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: pulse_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        tiny: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => opts.seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.traced = false,
                "1" => opts.traced = true,
                _ => return bad(),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(report) = run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    print!("{}", report.render());
    println!("{}", report.json(opts.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
