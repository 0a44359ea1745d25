//! # pulse-experiments — regenerating every table and figure of the paper
//!
//! One module per experiment of the PULSE paper (SC-W 2024), each producing
//! a plain-text table or ASCII series mirroring the published element. The
//! `pulse-exp` binary (see `main.rs`) runs any subset.
//!
//! | Experiment | Paper element | Module |
//! |---|---|---|
//! | E1 | Table I | [`exp_table1`] |
//! | E2, E3 | Figures 1–2 | [`exp_fig1_fig2`] |
//! | E4 | Tables II & III | [`exp_tables23`] |
//! | E5, E9 | Figures 4 & 7 | [`exp_fig4_fig7`] |
//! | E6–E8 | Figures 5, 6a, 6b | [`exp_fig5_fig6`] |
//! | E10 | Figure 8 | [`exp_fig8`] |
//! | E11 | Figure 9 | [`exp_fig9`] |
//! | E12–E14 | Figures 10–12 | [`exp_sensitivity`] |

pub mod common;
pub mod exp_ablation;
pub mod exp_chaos;
pub mod exp_characterize;
pub mod exp_fig1_fig2;
pub mod exp_fig4_fig7;
pub mod exp_fig5_fig6;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_fleet;
pub mod exp_overload;
pub mod exp_recover;
pub mod exp_scalability;
pub mod exp_sensitivity;
pub mod exp_serve;
pub mod exp_table1;
pub mod exp_tables23;
pub mod exp_validation;
pub mod milp_policy;
pub mod report;

pub use common::{ExpConfig, ServeOptions};

/// All experiment names accepted by the CLI, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "table2",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation-utility",
    "ablation-probability",
    "capacity",
    "scalability",
    "window",
    "validate",
    "chaos",
    "fleet",
    "characterize",
    "overload",
    "recover",
    "serve",
];

/// Run one experiment by name. Unknown names return an error string listing
/// the valid options.
pub fn run_experiment(name: &str, cfg: &ExpConfig) -> Result<String, String> {
    Ok(match name {
        "table1" => exp_table1::run(cfg.seed),
        "fig1" => exp_fig1_fig2::run_fig1(cfg),
        "fig2" => exp_fig1_fig2::run_fig2(cfg),
        "table2" | "table3" | "tables23" => exp_tables23::run(cfg),
        "fig4" => exp_fig4_fig7::run_fig4(cfg),
        "fig5" => exp_fig5_fig6::run_fig5(cfg),
        "fig6a" => exp_fig5_fig6::run_fig6a(cfg),
        "fig6b" => exp_fig5_fig6::run_fig6b(cfg),
        "fig7" => exp_fig4_fig7::run_fig7(cfg),
        "fig8" => exp_fig8::run(cfg),
        "fig9" => exp_fig9::run(cfg),
        "fig10" => exp_sensitivity::run_fig10(cfg),
        "fig11" => exp_sensitivity::run_fig11(cfg),
        "fig12" => exp_sensitivity::run_fig12(cfg),
        "ablation-utility" => exp_ablation::run_utility(cfg),
        "ablation-probability" => exp_ablation::run_probability(cfg),
        "capacity" => exp_ablation::run_capacity(cfg),
        "scalability" => exp_scalability::run_scalability(cfg),
        "window" => exp_scalability::run_window(cfg),
        "validate" => exp_validation::run(cfg),
        "chaos" => exp_chaos::run(cfg),
        "fleet" => exp_fleet::run(cfg),
        "characterize" => exp_characterize::run(cfg),
        "overload" => exp_overload::run(cfg),
        "recover" => exp_recover::run(cfg),
        "serve" => exp_serve::run(cfg),
        other => {
            return Err(format!(
                "unknown experiment {other:?}; valid: {}",
                EXPERIMENTS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_lists_options() {
        let err = run_experiment("nope", &ExpConfig::quick()).unwrap_err();
        assert!(err.contains("fig6a"));
    }

    #[test]
    fn table_aliases_work() {
        let cfg = ExpConfig {
            horizon: 1200,
            n_runs: 2,
            ..ExpConfig::quick()
        };
        assert!(run_experiment("table3", &cfg).is_ok());
    }

    /// The lines a `grep -v '^~'` keeps: what `results/quick.txt` pins.
    fn unmarked(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with(report::WALL_CLOCK_MARK))
            .collect()
    }

    /// Every wall-clock value sits on a marked line: the same measurements
    /// rendered with two different sets of timings (of different widths,
    /// too) read the same once the marked lines are dropped.
    #[test]
    fn wall_clock_values_sit_on_marked_lines() {
        let fast = [(1.2e-6, 3.4e-4), (2.5e-6, 5.0e-5), (9.0e-7, 1.1e-2)];
        let slow = [(3.3e-5, 0.25), (9.9e-10, 12.5), (4.0e-3, 4.0e-3)];
        let (a, b) = (
            exp_fig9::render(&fast, 80.12, 79.34),
            exp_fig9::render(&slow, 80.12, 79.34),
        );
        assert_ne!(a, b);
        assert_eq!(unmarked(&a), unmarked(&b));

        let rows = |wall_s: [f64; 2]| {
            [(12, 12_552, 3_545), (768, 803_328, 297)]
                .into_iter()
                .zip(wall_s)
                .map(
                    |((functions, invocations, downgrades), wall_s)| exp_scalability::ScaleRow {
                        functions,
                        invocations,
                        minutes: 5_760,
                        downgrades,
                        wall_s,
                    },
                )
                .collect::<Vec<_>>()
        };
        let (a, b) = (
            exp_scalability::render_scalability(&rows([0.01, 0.36])),
            exp_scalability::render_scalability(&rows([1.5, 1234.5])),
        );
        assert_ne!(a, b);
        assert_eq!(unmarked(&a), unmarked(&b));

        let demo = pulse_serve::DemoConfig {
            rps: 2_000,
            seconds: 1,
            functions: 3,
            seed: 7,
            max_pending: 64,
        };
        let measured = pulse_serve::run_demo(&demo, None);
        let mut slower = measured.clone();
        slower.wall_ms = measured.wall_ms * 1_000 + 12_345;
        slower.rps = measured.rps / 1_000.0 + 0.5;
        for (h, ns) in [
            (&mut slower.decision_ns, 1 << 20),
            (&mut slower.tick_ns, 1 << 30),
        ] {
            let count = h.count();
            *h = pulse_obs::Histogram::new();
            h.record_n(ns, count);
        }
        let (a, b) = (
            exp_serve::render(&demo, &measured),
            exp_serve::render(&demo, &slower),
        );
        assert_ne!(a, b);
        assert_eq!(unmarked(&a), unmarked(&b));
    }
}
