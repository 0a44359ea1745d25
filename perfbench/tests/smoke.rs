//! Tiny-scale smoke of every workload, and the bitwise check of the
//! benchmark-side PULSE policy against `PulsePolicy`.

use pulse_core::types::PulseConfig;
use pulse_models::zoo;
use pulse_perfbench::probe::{CoreSink, TracedPulse};
use pulse_perfbench::{run, Opts, END_TO_END, PER_LAYER, WORKLOADS};
use pulse_runtime::{Runtime, RuntimeConfig};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::PulsePolicy;
use pulse_sim::Simulator;
use pulse_trace::synth::azure_like_12_with_horizon;

fn tiny(traced: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.05,
        traced,
        tiny: true,
    }
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    for w in WORKLOADS {
        for traced in [false, true] {
            let r = run(w, &tiny(traced)).expect("known workload");
            assert!(r.correct(), "{w} (traced: {traced}):\n{}", r.render());
            let (got, want) = if traced {
                (&r.per_layer, &PER_LAYER[..])
            } else {
                (&r.end_to_end, &END_TO_END[..])
            };
            let names: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{w} (traced: {traced})");
            if !traced {
                for m in got {
                    assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
                }
            }
            assert!(r.attempted > 0 && r.failed == 0, "{w}");
            let json = r.json(traced);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("no-such-workload", &tiny(false)).is_none());
}

#[test]
fn traced_pulse_is_bitwise_equal_to_pulse_policy() {
    let trace = azure_like_12_with_horizon(5, 3_000);
    let fams = round_robin_assignment(&zoo::standard(), trace.n_functions());
    let sink = CoreSink::default();

    let sim = Simulator::new(trace.clone(), fams.clone());
    let plain = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
    let traced = sim.run(&mut TracedPulse::new(fams.clone(), sink.clone()));
    assert_eq!(plain, traced);
    assert_eq!(
        plain.keepalive_cost_usd.to_bits(),
        traced.keepalive_cost_usd.to_bits()
    );
    assert!(plain.downgrades > 0, "the trace must exercise Algorithm 2");

    let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
    let plain = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
    let traced = rt.run(&mut TracedPulse::new(fams, sink.clone()));
    assert_eq!(
        plain.keepalive_cost_usd.to_bits(),
        traced.keepalive_cost_usd.to_bits()
    );
    assert_eq!(plain.records, traced.records);
    assert_eq!(plain.memory_at_tick_mb, traced.memory_at_tick_mb);
    assert_eq!(plain.downgrades, traced.downgrades);

    let times = sink.lock().expect("core lock");
    assert!(!times.schedule_ns.is_empty() && !times.flatten_us.is_empty());
    assert!(times.actions > 0 && times.peaks > 0);
}
