//! # pulse-forecast — state-of-the-art warm-up strategies, with and without PULSE
//!
//! The paper integrates PULSE into two published serverless warm-up systems
//! and shows the combination beats the originals (Figure 8):
//!
//! * **Serverless in the Wild** (Shahrad et al., ATC'20) — a *hybrid
//!   histogram* of per-function idle times: when the histogram is
//!   representative, the container is pre-warmed just before the head
//!   percentile of the idle-time distribution and kept alive until the tail
//!   percentile; when the pattern is uncertain (too few samples or too heavy
//!   a tail) a time-series fallback (ARIMA in the original; a one-step
//!   AR(p) forecast here, [`ar`]) predicts the next idle time. Implemented
//!   in [`wild`].
//! * **IceBreaker** (Roy et al., ASPLOS'22) — an FFT-based forecaster: the
//!   recent per-minute invocation signal is decomposed into its dominant
//!   harmonics, which are extrapolated to predict the minutes the function
//!   will fire; containers are warmed at (just before) predicted minutes.
//!   The paper's evaluation uses a single node type, so IceBreaker's
//!   node-selection utility function is not needed, and this crate leaves
//!   it out. Implemented in [`icebreaker`], on top of our own radix-2 FFT
//!   in [`mod@fft`].
//!
//! These two are the only forecasters here: the paper uses them as warm-up
//! baselines and claims nothing about forecast quality on its own.
//!
//! Neither original is model-variant aware: both keep the *highest-quality*
//! container alive in their predicted windows. [`integrate`] provides the
//! four simulator policies: each technique is an [`integrate::Forecaster`]
//! of warm windows, run as published or `+PULSE`, where PULSE picks the
//! variant inside the predicted window and runs its global peak flattening.

pub mod ar;
pub mod fft;
pub mod icebreaker;
pub mod integrate;
pub mod wild;

pub use fft::{fft, ifft, Complex};
pub use icebreaker::FftPredictor;
pub use wild::{HybridHistogram, WildDecision};
