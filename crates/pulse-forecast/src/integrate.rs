//! Simulator policies for the Figure 8 integration experiment.
//!
//! Four policies: the two published techniques as-is (model-variant
//! *oblivious* — they always warm the highest-quality container, and they
//! enforce no memory constraint), and the two `+PULSE` integrations, where
//! "once techniques like Wild and IceBreaker forecast the inter-arrival
//! times of functions, PULSE takes the lead in determining which model
//! variant should be kept active and for how long" — plus PULSE's global
//! peak flattening.
//!
//! A technique is a [`Forecaster`]: after each invocation it yields the
//! warm window that follows, a length and the minutes it covers.
//! [`Forecast`] warms the highest-quality container at the covered
//! minutes; [`ForecastPulse`] adds no planner of its own, but hands the
//! window to [`PulseEngine::plan_window`], which picks each covered
//! minute's variant with the configured threshold scheme exactly as PULSE
//! plans its own window, and flattens peaks with
//! [`PulseEngine::flatten_minute`]. A further forecaster plugs in the same
//! way, as a window.

use crate::icebreaker::FftPredictor;
use crate::wild::{HybridHistogram, WildConfig};
use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::schedule::Slot;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_models::{ModelFamily, VariantId};
use pulse_sim::policy::{highest_ids, KeepAlivePolicy};
use pulse_trace::Trace;

/// Cap on how long a predicted warm window may extend (Wild's histogram
/// bound).
const MAX_WINDOW: u32 = 240;

/// A warm-up technique's forecast of each function's next warm window.
pub trait Forecaster: Send {
    /// Policy name of the published technique.
    const NAME: &'static str;
    /// Policy name of its PULSE integration.
    const PULSE_NAME: &'static str;

    /// Observe an invocation of `f` at `t` and forecast the window that
    /// follows: minutes `1..=len`, warm at minute `m` iff `covers(m)`.
    fn forecast(&mut self, f: FuncId, t: Minute) -> (u32, impl Fn(u64) -> bool);
}

/// A published technique as-is: its forecast windows, highest-quality
/// containers.
pub struct Forecast<F> {
    forecaster: F,
    highest: Vec<VariantId>,
}

/// Build a holed schedule covering `1..=window` where minute `m` keeps
/// `variant` alive iff `covers(m)` — the published techniques' plan.
fn holed_schedule(
    t: Minute,
    window: u32,
    covers: impl Fn(u64) -> bool,
    variant: VariantId,
) -> KeepAliveSchedule {
    let window = window.min(MAX_WINDOW);
    KeepAliveSchedule::from_slots(
        t,
        (1..=window as u64).map(|m| {
            if covers(m) {
                Slot::Alive(variant)
            } else {
                Slot::Hole
            }
        }),
    )
}

impl<F: Forecaster> KeepAlivePolicy for Forecast<F> {
    fn name(&self) -> &str {
        F::NAME
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        let (len, covers) = self.forecaster.forecast(f, t);
        holed_schedule(t, len, covers, self.highest[f])
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.highest[f]
    }
}

/// A technique + PULSE: the same forecast windows, PULSE's variant choice
/// inside them and PULSE's global peak flattening on top. PULSE picks each
/// warm minute's variant from the invocation probability instead of always
/// warming the highest — cheaper warm minutes, slightly lower accuracy,
/// faster warm service (the paper's Figure 8 shape).
pub struct ForecastPulse<F> {
    forecaster: F,
    engine: PulseEngine,
}

impl<F: Forecaster> KeepAlivePolicy for ForecastPulse<F> {
    fn name(&self) -> &str {
        F::PULSE_NAME
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        let (len, covers) = self.forecaster.forecast(f, t);
        self.engine.plan_window(f, t, len.min(MAX_WINDOW), covers)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        history: &[f64],
        first: bool,
        kam: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let step = self.engine.flatten_minute(t, history, first, kam, alive);
        step.map(|o| o.actions).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Serverless in the Wild
// ---------------------------------------------------------------------------

/// Serverless in the Wild's forecaster: a hybrid histogram per function.
pub struct Wild {
    histograms: Vec<HybridHistogram>,
}

impl Wild {
    fn new(n_functions: usize) -> Self {
        let histograms = vec![HybridHistogram::new(WildConfig::default()); n_functions];
        Self { histograms }
    }
}

impl Forecaster for Wild {
    const NAME: &'static str = "wild";
    const PULSE_NAME: &'static str = "wild+pulse";

    fn forecast(&mut self, f: FuncId, t: Minute) -> (u32, impl Fn(u64) -> bool) {
        self.histograms[f].record(t);
        let d = self.histograms[f].decide();
        (d.keepalive_min, move |m| d.covers(m))
    }
}

/// Wild as published: hybrid-histogram windows, highest-quality containers.
pub type WildPolicy = Forecast<Wild>;

/// Wild + PULSE: Wild's predicted warm window, PULSE's variant choice inside
/// it and PULSE's global peak flattening on top.
pub type WildPulsePolicy = ForecastPulse<Wild>;

impl WildPolicy {
    /// Wild over a family assignment.
    pub fn new(families: &[ModelFamily]) -> Self {
        Self {
            forecaster: Wild::new(families.len()),
            highest: highest_ids(families),
        }
    }
}

impl WildPulsePolicy {
    /// Integration over a family assignment.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig) -> Self {
        Self {
            forecaster: Wild::new(families.len()),
            engine: PulseEngine::new(families, config),
        }
    }
}

// ---------------------------------------------------------------------------
// IceBreaker
// ---------------------------------------------------------------------------

/// IceBreaker's forecaster: per-function FFT predictors fed from the (past
/// of the) trace, warm at the predicted-active minutes of the horizon.
pub struct IceBreaker {
    trace: Trace,
    predictors: Vec<FftPredictor>,
    cursors: Vec<u64>,
    horizon: u32,
}

impl IceBreaker {
    fn new(n_functions: usize, trace: Trace, horizon: u32) -> Self {
        assert_eq!(trace.n_functions(), n_functions);
        Self {
            trace,
            predictors: (0..n_functions).map(|_| FftPredictor::new()).collect(),
            cursors: vec![0; n_functions],
            horizon,
        }
    }

    /// Feed the predictor everything observed up to and including minute `t`
    /// (history only — this is a predictor, not an oracle).
    fn observe_up_to(&mut self, f: FuncId, t: Minute) {
        while self.cursors[f] <= t {
            let c = self.trace.function(f).at(self.cursors[f]);
            self.predictors[f].push(c as f64);
            self.cursors[f] += 1;
        }
    }

    /// Predicted-active minute offsets within the horizon after `t`.
    fn predicted(&mut self, f: FuncId, t: Minute) -> Vec<u64> {
        self.observe_up_to(f, t);
        self.predictors[f].predict_active(self.horizon as usize)
    }
}

impl Forecaster for IceBreaker {
    const NAME: &'static str = "icebreaker";
    const PULSE_NAME: &'static str = "icebreaker+pulse";

    fn forecast(&mut self, f: FuncId, t: Minute) -> (u32, impl Fn(u64) -> bool) {
        let active = self.predicted(f, t);
        (self.horizon, move |m| active.contains(&m))
    }
}

/// IceBreaker as published (single node type): FFT-predicted warm minutes,
/// highest-quality containers.
pub type IceBreakerPolicy = Forecast<IceBreaker>;

/// IceBreaker + PULSE: FFT-predicted warm minutes, PULSE's variant choice at
/// those minutes, and global flattening. The unpredicted minutes of the
/// window stay holes (no container), exactly as in [`IceBreakerPolicy`].
pub type IceBreakerPulsePolicy = ForecastPulse<IceBreaker>;

impl IceBreakerPolicy {
    /// IceBreaker over a family assignment and the workload it will face
    /// (only the past of the trace is ever read).
    pub fn new(families: &[ModelFamily], trace: Trace) -> Self {
        Self {
            forecaster: IceBreaker::new(families.len(), trace, 10),
            highest: highest_ids(families),
        }
    }
}

impl IceBreakerPulsePolicy {
    /// Integration over a family assignment and the workload.
    pub fn new(families: Vec<ModelFamily>, trace: Trace, config: PulseConfig) -> Self {
        let horizon = config.keepalive_minutes;
        Self {
            forecaster: IceBreaker::new(families.len(), trace, horizon),
            engine: PulseEngine::new(families, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;
    use pulse_sim::Simulator;
    use pulse_trace::synth;

    fn assignment(n: usize) -> Vec<ModelFamily> {
        (0..n).map(|i| zoo::standard()[i % 5].clone()).collect()
    }

    #[test]
    fn wild_schedule_covers_learned_cadence() {
        let fams = assignment(1);
        let mut p = WildPolicy::new(&fams);
        let mut s = None;
        for i in 0..30u64 {
            s = Some(p.schedule_on_invocation(0, i * 6));
        }
        let s = s.unwrap();
        // Idle time is always 6: warm at 6, holes early.
        assert_eq!(s.slot_at_offset(6), Some(Slot::Alive(fams[0].highest_id())));
        assert_eq!(s.slot_at_offset(2), Some(Slot::Hole));
    }

    #[test]
    fn wild_pulse_picks_cheap_variants_at_low_probability() {
        let fams = assignment(1);
        let mut wp = WildPulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut s = None;
        for i in 0..30u64 {
            s = Some(wp.schedule_on_invocation(0, i * 6));
        }
        let s = s.unwrap();
        // Probability mass is all at gap 6 → highest variant there.
        assert_eq!(s.variant_at_offset(6), Some(fams[0].highest_id()));
    }

    #[test]
    fn wild_pulse_plans_with_the_configured_scheme() {
        use pulse_core::types::SchemeKind;
        let fams = vec![zoo::gpt()];
        assert_eq!(fams[0].n_variants(), 3);
        let plan = |scheme| {
            let config = PulseConfig {
                scheme,
                ..PulseConfig::default()
            };
            let mut wp = WildPulsePolicy::new(fams.clone(), config);
            let mut t = 0;
            let mut s = wp.schedule_on_invocation(0, t);
            for i in 0..41u64 {
                t += if i % 2 == 0 { 3 } else { 6 };
                s = wp.schedule_on_invocation(0, t);
            }
            s
        };
        // Alternating gaps of 3 and 6 minutes, ending on a 3, put P just
        // above 0.5 on gap 3 (21 of 41 gaps overall, 7 of the last hour's
        // 13): T1's middle third, T2's upper half of (0, 1].
        assert_eq!(plan(SchemeKind::T1).variant_at_offset(3), Some(1));
        assert_eq!(plan(SchemeKind::T2).variant_at_offset(3), Some(2));
    }

    #[test]
    fn wild_pulse_cheaper_than_wild_end_to_end() {
        let trace = synth::azure_like_12_with_horizon(17, 3000);
        let fams = assignment(12);
        let sim = Simulator::new(trace.clone(), fams.clone());
        let wild = sim.run(&mut WildPolicy::new(&fams));
        let wp = sim.run(&mut WildPulsePolicy::new(
            fams.clone(),
            PulseConfig::default(),
        ));
        assert!(
            wp.keepalive_cost_usd < wild.keepalive_cost_usd,
            "wild+pulse {} !< wild {}",
            wp.keepalive_cost_usd,
            wild.keepalive_cost_usd
        );
        // Accuracy stays within a few points.
        assert!(wild.avg_accuracy_pct() - wp.avg_accuracy_pct() < 5.0);
    }

    #[test]
    fn icebreaker_predicts_periodic_function() {
        let trace = {
            let mut v = vec![0u32; 600];
            for t in (0..600).step_by(8) {
                v[t] = 1;
            }
            Trace::new(vec![pulse_trace::FunctionTrace::new("p", v)])
        };
        let fams = assignment(1);
        let sim = Simulator::new(trace.clone(), fams.clone());
        let m = sim.run(&mut IceBreakerPolicy::new(&fams, trace));
        // Once the predictor has seen a few hours, most starts are warm.
        assert!(
            m.warm_fraction() > 0.5,
            "warm fraction {}",
            m.warm_fraction()
        );
    }

    #[test]
    fn icebreaker_pulse_cheaper_than_icebreaker() {
        let trace = synth::azure_like_12_with_horizon(19, 3000);
        let fams = assignment(12);
        let sim = Simulator::new(trace.clone(), fams.clone());
        let ib = sim.run(&mut IceBreakerPolicy::new(&fams, trace.clone()));
        let ibp = sim.run(&mut IceBreakerPulsePolicy::new(
            fams.clone(),
            trace,
            PulseConfig::default(),
        ));
        // The integration warms the same predicted minutes with cheaper
        // variants, so cost cannot rise; the paper reports −14 %.
        assert!(
            ibp.keepalive_cost_usd <= ib.keepalive_cost_usd,
            "ib+pulse {} !<= ib {}",
            ibp.keepalive_cost_usd,
            ib.keepalive_cost_usd
        );
        assert!(ib.avg_accuracy_pct() - ibp.avg_accuracy_pct() < 5.0);
    }

    #[test]
    fn icebreaker_never_reads_the_future() {
        let trace = synth::azure_like_12_with_horizon(23, 500);
        let mut core = IceBreaker::new(12, trace, 10);
        core.observe_up_to(0, 100);
        assert_eq!(core.cursors[0], 101);
        assert_eq!(
            core.predictors[0].len(),
            101.min(core.predictors[0].history_len)
        );
        let _ = core.predicted(3, 250);
        assert_eq!(core.cursors[3], 251);
    }

    #[test]
    fn holed_schedule_shape() {
        let s = holed_schedule(100, 5, |m| m % 2 == 0, 7);
        assert_eq!(s.slot_at_offset(1), Some(Slot::Hole));
        assert_eq!(s.slot_at_offset(2), Some(Slot::Alive(7)));
        assert_eq!(s.slot_at_offset(5), Some(Slot::Hole));
        assert_eq!(s.slot_at_offset(6), None);
    }

    #[test]
    fn window_cap_enforced() {
        let s = holed_schedule(0, 10_000, |_| true, 0);
        assert_eq!(s.window(), MAX_WINDOW);
    }
}
