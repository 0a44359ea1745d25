//! Validate a JSONL trace produced by `pulse-exp --trace-out`: every line
//! must parse back into a typed `pulse::obs::ObsEvent` (CI's obs and fleet
//! jobs run this as a schema self-check), and the event mix is summarized
//! by kind. `--require k1,k2,...` additionally fails the check unless every
//! named kind appears at least once — CI uses it to prove the fleet
//! lifecycle events (`node_down`, `node_recovered`, `migrate`) actually
//! round-trip through a real traced sweep.
//!
//! ```bash
//! cargo run --release -p pulse-experiments -- --runs 1 --horizon 300 \
//!     --trace-out run.jsonl chaos
//! cargo run --example obs_schema_check -- run.jsonl
//! cargo run --example obs_schema_check -- fleet.jsonl \
//!     --require node_down,node_recovered,migrate
//! ```

#![allow(clippy::expect_used, clippy::panic)] // a validator should die loudly on bad input

use pulse::obs::ObsEvent;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut required: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--require" => {
                let list = args
                    .get(i + 1)
                    .expect("--require takes a comma-separated kind list");
                required.extend(list.split(',').map(str::to_string));
                i += 2;
            }
            other => {
                path = Some(other.to_string());
                i += 1;
            }
        }
    }
    let path = path.expect("usage: obs_schema_check <trace.jsonl> [--require k1,k2,...]");
    let text = std::fs::read_to_string(&path).expect("read trace file");

    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    let mut runs = 0usize;
    for (i, line) in text.lines().enumerate() {
        let ev = ObsEvent::from_json(line)
            .unwrap_or_else(|e| panic!("{path}:{}: invalid event: {e}", i + 1));
        if matches!(ev, ObsEvent::RunStart { .. }) {
            runs += 1;
        }
        let kind = ev.kind();
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
    }

    let total: usize = counts.iter().map(|(_, n)| n).sum();
    assert!(total > 0, "trace must be non-empty");
    assert!(runs > 0, "trace must contain at least one run_start header");
    for kind in &required {
        assert!(
            counts.iter().any(|(k, _)| k == kind),
            "required event kind {kind:?} never appeared in {path}"
        );
    }
    println!("{total} events across {runs} runs, all valid:");
    for (kind, n) in &counts {
        println!("  {kind:<14} {n}");
    }
}
