//! **Extension: crash-recovery harness** — kill a run at arbitrary points,
//! restore from the write-ahead journal, and prove the resumed run is
//! bit-identical to the uninterrupted one.
//!
//! The matrix covers both engines plus the multi-node fleet path: each run
//! writes a [`pulse_obs::JournalSink`] (epoch headers + periodic snapshot
//! checkpoints), is killed at a chosen minute with a simulated torn final
//! write, and is then recovered the way a real operator would —
//! [`pulse_obs::replay_journal`] finds the last intact checkpoint, the
//! engine restores it, and the resumed session runs to completion. Two
//! things must hold, and the table reports both:
//!
//! 1. the events the resumed run re-emits reproduce the journal tail (what
//!    the killed run had recorded after its last checkpoint) exactly —
//!    [`pulse_obs::first_divergence`] pinpoints the first mismatch when
//!    they do not;
//! 2. the final summary (cost, availability, accuracy, every counter and
//!    per-minute series) is bit-identical to the run that was never killed.
//!
//! A checkpoint carries no run state: it is a one-line header of input
//! fingerprints and a cursor, and restore replays a fresh session to the
//! cursor. Checkpoints here are taken by the segmented drive loop
//! (checkpoint → drop the session and its policy → journal the checkpoint
//! → restore into a freshly built policy and continue), so every checkpoint
//! boundary *itself* exercises the restore path — the journaled run is a
//! chain of recoveries even before the kill.

use crate::common::ExpConfig;
use crate::report::Table;
use pulse_core::types::PulseConfig;
use pulse_models::ModelFamily;
use pulse_obs::{first_divergence, replay_journal, JournalSink, MemorySink, ObsEvent, TraceSink};
use pulse_runtime::{
    ClusterConfig, FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    MS_PER_MINUTE,
};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::PulsePolicy;
use pulse_sim::Simulator;

/// One recovered kill point, as rendered into the report table.
struct Outcome {
    engine: &'static str,
    kill_minute: u64,
    checkpoints: u64,
    tail_events: usize,
    torn: bool,
    verdict: String,
}

fn pulse(fams: &[ModelFamily]) -> PulsePolicy {
    PulsePolicy::new(fams.to_vec(), PulseConfig::default())
}

/// Append a half-written line — the torn final write of a killed process.
fn tear(journal: Vec<u8>) -> String {
    let mut text = String::from_utf8_lossy(&journal).into_owned();
    text.push_str("{\"type\":\"bill\",\"minu");
    text
}

/// Combine the two recovery invariants into one table cell.
fn verdict(
    whole_dbg: &str,
    resumed_dbg: &str,
    tail: &[ObsEvent],
    resumed_events: &[ObsEvent],
) -> String {
    let prefix = &resumed_events[..tail.len().min(resumed_events.len())];
    if let Some(d) = first_divergence(tail, prefix) {
        return format!("tail diverges: {d}");
    }
    if whole_dbg != resumed_dbg {
        return "summary diverges".into();
    }
    "identical".into()
}

/// Kill/recover the minute engine at `kill_minute`, checkpointing every
/// `every` minutes.
fn sim_recover(
    sim: &Simulator,
    fams: &[ModelFamily],
    whole_dbg: &str,
    kill_minute: u64,
    every: u64,
) -> Result<Outcome, String> {
    let mut journal = JournalSink::new(Vec::new());
    let mut last_ckpt: Option<String> = None;
    let mut cur = 0u64;
    while cur < kill_minute {
        let seg_end = (cur + every).min(kill_minute);
        // Replay rebuilds the policy's state, so each segment starts from
        // a freshly built one.
        let mut policy = pulse(fams);
        let mut sess = match &last_ckpt {
            None => sim.session(&mut policy),
            Some(snap) => sim
                .restore(&mut policy, snap)
                .map_err(|e| format!("sim self-restore at minute {cur}: {e}"))?,
        }
        .traced(&mut journal);
        while sess.next_minute() < seg_end && sess.step_minute().is_some() {}
        if seg_end < kill_minute {
            let snap = sess.snapshot();
            drop(sess);
            journal.checkpoint(&snap);
            last_ckpt = Some(snap);
        }
        cur = seg_end;
    }
    let checkpoints = journal.checkpoints();
    let text = tear(journal.into_inner());

    let replay = replay_journal(&text).map_err(|e| e.to_string())?;
    let mut resume_policy = pulse(fams);
    let mut resume_sink = MemorySink::new();
    let resumed = match &replay.last_checkpoint {
        Some((_, snap)) => sim
            .restore(&mut resume_policy, snap)
            .map_err(|e| format!("recovery restore: {e}"))?,
        None => sim.session(&mut resume_policy),
    }
    .traced(&mut resume_sink)
    .finish();
    Ok(Outcome {
        engine: "sim",
        kill_minute,
        checkpoints,
        tail_events: replay.tail.len(),
        torn: replay.torn_tail,
        verdict: verdict(
            whole_dbg,
            &format!("{resumed:?}"),
            &replay.tail,
            resume_sink.events(),
        ),
    })
}

/// Everything that identifies one runtime engine under test — shared
/// across that engine's kill points.
struct RtCase<'a> {
    engine: &'static str,
    rt: &'a Runtime,
    fams: &'a [ModelFamily],
    plan: &'a FaultPlan,
    fleet: &'a FleetConfig,
    whole_dbg: &'a str,
}

/// Kill/recover the event-driven runtime (cluster-compatible or fleet) at
/// `kill_minute`, checkpointing every `every` minutes.
fn rt_recover(case: &RtCase<'_>, kill_minute: u64, every: u64) -> Result<Outcome, String> {
    let RtCase {
        engine,
        rt,
        fams,
        plan,
        fleet,
        whole_dbg,
    } = *case;
    let mut journal = JournalSink::new(Vec::new());
    let mut last_ckpt: Option<String> = None;
    let mut cur = 0u64;
    while cur < kill_minute {
        let seg_end = (cur + every).min(kill_minute);
        // Replay rebuilds the policy's state, so each segment starts from
        // a freshly built one.
        let mut policy = pulse(fams);
        let mut sess = match &last_ckpt {
            None => rt.session(&mut policy, plan, fleet.clone()),
            Some(snap) => rt
                .restore(&mut policy, plan, fleet.clone(), snap)
                .map_err(|e| format!("{engine} self-restore at minute {cur}: {e}"))?,
        }
        .traced(&mut journal);
        let boundary = seg_end * MS_PER_MINUTE;
        while sess.peek_time().is_some_and(|t| t < boundary) && sess.step().is_some() {}
        if seg_end < kill_minute {
            let snap = sess.snapshot();
            drop(sess);
            journal.checkpoint(&snap);
            last_ckpt = Some(snap);
        }
        cur = seg_end;
    }
    let checkpoints = journal.checkpoints();
    let text = tear(journal.into_inner());

    let replay = replay_journal(&text).map_err(|e| e.to_string())?;
    let mut resume_policy = pulse(fams);
    let mut resume_sink = MemorySink::new();
    let resumed = match &replay.last_checkpoint {
        Some((_, snap)) => rt
            .restore(&mut resume_policy, plan, fleet.clone(), snap)
            .map_err(|e| format!("recovery restore: {e}"))?,
        None => rt.session(&mut resume_policy, plan, fleet.clone()),
    }
    .traced(&mut resume_sink)
    .finish();
    Ok(Outcome {
        engine,
        kill_minute,
        checkpoints,
        tail_events: replay.tail.len(),
        torn: replay.torn_tail,
        verdict: verdict(
            whole_dbg,
            &format!("{resumed:?}"),
            &replay.tail,
            resume_sink.events(),
        ),
    })
}

/// Run the kill-point matrix and render the recovery report.
pub fn run(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let horizon = trace.minutes() as u64;
    let kills = [horizon / 4, (horizon * 3) / 5, (horizon * 9) / 10];
    let every = (horizon / 6).max(1);

    let mut table = Table::new(
        "Crash-recovery matrix: kill -> restore -> resume, vs the uninterrupted run",
        &["Engine", "Kill@min", "Ckpts", "Tail ev", "Torn", "Verdict"],
    );
    let mut rows: Vec<Outcome> = Vec::new();

    // Minute engine.
    let sim = Simulator::new(trace.clone(), fams.clone());
    let whole_sim = format!("{:?}", sim.run(&mut pulse(&fams)));
    for &k in &kills {
        rows.push(
            sim_recover(&sim, &fams, &whole_sim, k, every).unwrap_or_else(|e| failed("sim", k, e)),
        );
    }

    // Event-driven runtime, cluster-compatible path, with request-level
    // faults and the stochastic sampler on (replay must redraw both RNG
    // streams).
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(cfg.seed),
            ..RuntimeConfig::default()
        },
    );
    let plan = FaultPlan::uniform(0.05, 0.02, 0.01, cfg.seed ^ 0x7EC0);
    let single = FleetConfig::from(ClusterConfig::unlimited());
    let whole_rt = format!(
        "{:?}",
        rt.session(&mut pulse(&fams), &plan, single.clone())
            .finish()
    );
    let rt_case = RtCase {
        engine: "rt",
        rt: &rt,
        fams: &fams,
        plan: &plan,
        fleet: &single,
        whole_dbg: &whole_rt,
    };
    for &k in &kills {
        rows.push(rt_recover(&rt_case, k, every).unwrap_or_else(|e| failed("rt", k, e)));
    }

    // Multi-node fleet under a rolling node-crash plan.
    let fleet = FleetConfig::uniform(3, NodeCapacity::gb(6.0))
        .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, horizon));
    let whole_fleet = format!(
        "{:?}",
        rt.session(&mut pulse(&fams), &plan, fleet.clone()).finish()
    );
    let fleet_case = RtCase {
        engine: "fleet",
        rt: &rt,
        fams: &fams,
        plan: &plan,
        fleet: &fleet,
        whole_dbg: &whole_fleet,
    };
    for &k in &kills {
        rows.push(rt_recover(&fleet_case, k, every).unwrap_or_else(|e| failed("fleet", k, e)));
    }

    // With --trace-out, persist one complete fleet journal (epoch headers,
    // periodic checkpoints, the full traced event stream) so external
    // tooling — CI's `obs_schema_check --require journal_epoch,checkpoint`
    // — can validate the on-disk format end to end.
    if let Some(path) = &cfg.trace_out {
        match fleet_journal(&rt, &fams, &plan, &fleet, horizon, every) {
            Ok(text) => {
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("warning: cannot write journal {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: journal run failed: {e}"),
        }
    }

    let all_identical = rows.iter().all(|o| o.verdict == "identical");
    for o in rows {
        table.row(vec![
            o.engine.into(),
            o.kill_minute.to_string(),
            o.checkpoints.to_string(),
            o.tail_events.to_string(),
            if o.torn { "yes" } else { "no" }.into(),
            o.verdict,
        ]);
    }
    let note = if all_identical {
        "every kill point recovered bit-identically (summary + re-emitted event stream)"
    } else {
        "RECOVERY VIOLATION: at least one kill point diverged (see verdict column)"
    };
    format!("{}\n{note}\n", table.render())
}

/// Drive one fleet run to completion through a [`JournalSink`],
/// checkpointing every `every` minutes, and return the journal text.
fn fleet_journal(
    rt: &Runtime,
    fams: &[ModelFamily],
    plan: &FaultPlan,
    fleet: &FleetConfig,
    horizon: u64,
    every: u64,
) -> Result<String, String> {
    let mut journal = JournalSink::new(Vec::new());
    journal.record(&ObsEvent::RunStart {
        label: "recover/fleet-journal".into(),
    });
    let mut last_ckpt: Option<String> = None;
    let mut cur = 0u64;
    while cur < horizon {
        let seg_end = (cur + every).min(horizon);
        let mut policy = pulse(fams);
        let mut sess = match &last_ckpt {
            None => rt.session(&mut policy, plan, fleet.clone()),
            Some(snap) => rt
                .restore(&mut policy, plan, fleet.clone(), snap)
                .map_err(|e| format!("journal self-restore at minute {cur}: {e}"))?,
        }
        .traced(&mut journal);
        if seg_end < horizon {
            let boundary = seg_end * MS_PER_MINUTE;
            while sess.peek_time().is_some_and(|t| t < boundary) && sess.step().is_some() {}
            let snap = sess.snapshot();
            drop(sess);
            journal.checkpoint(&snap);
            last_ckpt = Some(snap);
        } else {
            let _ = sess.finish();
        }
        cur = seg_end;
    }
    journal.flush().map_err(|e| e.to_string())?;
    Ok(String::from_utf8_lossy(&journal.into_inner()).into_owned())
}

fn failed(engine: &'static str, kill_minute: u64, e: String) -> Outcome {
    Outcome {
        engine,
        kill_minute,
        checkpoints: 0,
        tail_events: 0,
        torn: false,
        verdict: format!("FAILED: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 240,
            n_runs: 1,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn every_kill_point_recovers_identically() {
        let out = run(&tiny());
        assert!(
            out.contains("every kill point recovered bit-identically"),
            "{out}"
        );
        for engine in ["sim", "rt", "fleet"] {
            assert!(out.contains(engine), "missing engine {engine}:\n{out}");
        }
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn matrix_is_deterministic() {
        assert_eq!(run(&tiny()), run(&tiny()));
    }

    #[test]
    fn trace_out_writes_a_replayable_journal() {
        let path = std::env::temp_dir().join("pulse_exp_recover_journal.jsonl");
        let cfg = ExpConfig {
            trace_out: Some(path.clone()),
            ..tiny()
        };
        let _ = run(&cfg);
        let text = std::fs::read_to_string(&path).expect("journal written");
        let _ = std::fs::remove_file(&path);
        let replay = replay_journal(&text).expect("journal replays clean");
        assert!(replay.last_checkpoint.is_some(), "no checkpoint in journal");
        assert!(!replay.torn_tail, "completed journal must not be torn");
        for kind in ["journal_epoch", "checkpoint", "run_start"] {
            assert!(
                text.contains(&format!("\"type\":\"{kind}\"")),
                "journal missing {kind} records"
            );
        }
    }
}
