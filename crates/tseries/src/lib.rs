//! Time-series feature kit for *historical evaluation sequences*.
//!
//! In the paper, every unlabeled sample accumulates a sequence
//! `H_t(x) = [φ_1(x), …, φ_t(x)]` of query-strategy scores across active
//! learning iterations. The proposed strategies extract features from that
//! sequence:
//!
//! * [`window::exp_weighted_sum`] — the WSHS weighted sum (Eq. 9–10),
//! * [`stats::window_variance`] — the FHS fluctuation term (Eq. 11),
//! * [`trend::mann_kendall`] — the Mann–Kendall trend statistic used as an
//!   LHS ranking feature,
//! * [`ar::ArPredictor`] / [`lstm::LstmPredictor`] — next-score predictors
//!   (the paper uses an LSTM; AR(p) is the cheap ablation alternative).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod ar;
pub(crate) mod lstm;
pub(crate) mod rolling;
pub(crate) mod stats;
pub(crate) mod trend;
pub(crate) mod window;

pub use ar::ArPredictor;
pub use lstm::{LstmConfig, LstmPredictor};
pub use rolling::RollingStats;
pub use stats::{autocorrelation, variance, window_variance};
pub use trend::{mann_kendall, Trend};
pub use window::{exp_weighted_sum, exp_weights, last_window, uniform_sum};

/// A next-score predictor over historical evaluation sequences.
///
/// Implemented by [`ArPredictor`] and [`LstmPredictor`]; the LHS strategy is
/// generic over this trait so either can provide the "predicted next
/// result" ranking feature.
pub trait SequencePredictor: Send + Sync {
    /// Predict the next value of `seq`. Implementations must return a finite
    /// value for any input, including the empty sequence.
    fn predict_next(&self, seq: &[f64]) -> f64;
}
