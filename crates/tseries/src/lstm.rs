//! A small scalar-sequence LSTM used to predict the next evaluation score.
//!
//! The paper trains "a simple LSTM" on historical evaluation sequences: the
//! scores of the past `k` iterations are the input and the current score is
//! the regression target. The history sequences here are scalar and short
//! (tens of steps), so a hand-written single-layer LSTM with full
//! backpropagation-through-time and Adam is enough; no tensor framework
//! is needed.
//!
//! Training is strictly sequential SGD: one Adam step per window over a
//! few hundred parameters, so its cost is per-step overhead more than
//! arithmetic. [`LstmPredictor::fit`] therefore owns one `Workspace`
//! that every step reuses. A step allocates nothing, computes `tanh(c)`
//! once in the forward pass for the backward pass to read back, and
//! computes Adam's bias corrections once per step, not per parameter.
//! `predict_next` and `mse` run the same forward pass.
//!
//! The trained weights feed the LHS ranking features, and through them
//! every LHS curve, golden and benchmark digest, so the arithmetic is
//! pinned to the bit (`fit_bits_are_pinned`). Every float keeps the
//! operation order of the plain textbook loop: no reciprocal in place of
//! a divide, no fused multiply-add, no reassociated sum. The gradient
//! norm is summed in flat-parameter order, and the backward pass's inner
//! loops run across hidden units, each unit keeping its own accumulation
//! order.

#![allow(clippy::needless_range_loop)]

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::SequencePredictor;

/// Hyper-parameters for [`LstmPredictor::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Input window length `k`: the last `k` scores predict the next one.
    pub window: usize,
    /// Training epochs over the extracted windows.
    pub epochs: usize,
    /// Adam step size.
    pub lr: f64,
    /// Gradient L2-norm clip; 0 disables clipping.
    pub clip: f64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            hidden: 8,
            window: 5,
            epochs: 30,
            lr: 0.02,
            clip: 5.0,
        }
    }
}

/// Flat parameter block: the four gate weight matrices stacked as
/// `[i; f; o; g]`, each `hidden × (1 + hidden)`, the gate biases, and the
/// scalar output head. The flat order `w`, `b`, `wy`, `by` is also the
/// layout of the gradient and of the Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Params {
    hidden: usize,
    /// `4*hidden` rows × `(1 + hidden)` columns, row-major.
    w: Vec<f64>,
    /// `4*hidden` gate biases.
    b: Vec<f64>,
    /// Output head weights (`hidden`) and bias.
    wy: Vec<f64>,
    by: f64,
}

impl Params {
    fn zeros(hidden: usize) -> Self {
        Self {
            hidden,
            w: vec![0.0; 4 * hidden * (1 + hidden)],
            b: vec![0.0; 4 * hidden],
            wy: vec![0.0; hidden],
            by: 0.0,
        }
    }

    fn init<R: Rng + ?Sized>(hidden: usize, rng: &mut R) -> Self {
        let mut p = Self::zeros(hidden);
        let scale = 1.0 / ((1 + hidden) as f64).sqrt();
        for w in &mut p.w {
            *w = rng.gen_range(-scale..scale);
        }
        for w in &mut p.wy {
            *w = rng.gen_range(-scale..scale);
        }
        // Forget-gate bias of 1.0 (standard initialization) so gradients
        // flow through short sequences from the first epoch.
        for j in 0..hidden {
            p.b[hidden + j] = 1.0;
        }
        p
    }

    /// Number of scalar parameters.
    fn len(&self) -> usize {
        self.w.len() + self.b.len() + self.wy.len() + 1
    }

    /// The parameters as slices in flat order.
    fn blocks_mut(&mut self) -> [&mut [f64]; 4] {
        [
            &mut self.w,
            &mut self.b,
            &mut self.wy,
            std::slice::from_mut(&mut self.by),
        ]
    }

    /// Check that the block lengths match `hidden` — the invariants the
    /// forward and backward passes index by.
    fn check_shape(&self) -> Result<(), String> {
        let h = self.hidden;
        if h == 0 {
            return Err("LSTM hidden size must be positive".into());
        }
        let expect_w = h
            .checked_add(1)
            .and_then(|cols| cols.checked_mul(h))
            .and_then(|n| n.checked_mul(4));
        let blocks = [
            ("w", self.w.len(), expect_w),
            ("b", self.b.len(), h.checked_mul(4)),
            ("wy", self.wy.len(), Some(h)),
        ];
        for (name, len, expect) in blocks {
            if Some(len) != expect {
                return Err(format!(
                    "LSTM parameter block `{name}` has {len} values, hidden size {h} needs {}",
                    expect.map_or_else(|| "more than usize::MAX".into(), |n| n.to_string())
                ));
            }
        }
        Ok(())
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Scratch buffers for one forward (and backward) pass over a window of
/// up to `steps` inputs. Step `t`'s states live at row `t + 1` of `h` and
/// `c`; row 0 is the all-zero initial state and is never written.
struct Workspace {
    /// Gate activations `[i; f; o; g]` per step, `4*hidden` each.
    gates: Vec<f64>,
    /// Hidden states, `(1 + steps) × hidden`.
    h: Vec<f64>,
    /// Cell states, `(1 + steps) × hidden`.
    c: Vec<f64>,
    /// `tanh(c)` per step, `steps × hidden`.
    tanh_c: Vec<f64>,
    /// Flat gradient in [`Params`] order; empty when only predicting.
    grad: Vec<f64>,
    /// Gradients flowing into the current step from the one after it
    /// (`dh`, `dc`) and out of it to the one before (`dh_prev`,
    /// `dc_prev`); empty when only predicting.
    dh: Vec<f64>,
    dc: Vec<f64>,
    dh_prev: Vec<f64>,
    dc_prev: Vec<f64>,
}

impl Workspace {
    /// Buffers for the forward pass only.
    fn predicting(hidden: usize, steps: usize) -> Self {
        Self {
            gates: vec![0.0; 4 * hidden * steps],
            h: vec![0.0; hidden * (1 + steps)],
            c: vec![0.0; hidden * (1 + steps)],
            tanh_c: vec![0.0; hidden * steps],
            grad: Vec::new(),
            dh: Vec::new(),
            dc: Vec::new(),
            dh_prev: Vec::new(),
            dc_prev: Vec::new(),
        }
    }

    /// Buffers for forward and backward passes over `params`.
    fn training(params: &Params, steps: usize) -> Self {
        let hidden = params.hidden;
        Self {
            grad: vec![0.0; params.len()],
            dh: vec![0.0; hidden],
            dc: vec![0.0; hidden],
            dh_prev: vec![0.0; hidden],
            dc_prev: vec![0.0; hidden],
            ..Self::predicting(hidden, steps)
        }
    }
}

/// Adam's moment estimates and step count, flat in [`Params`] order.
struct Adam {
    m1: Vec<f64>,
    m2: Vec<f64>,
    step: i32,
}

impl Adam {
    const B1: f64 = 0.9;
    const B2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    fn new(n: usize) -> Self {
        Self {
            m1: vec![0.0; n],
            m2: vec![0.0; n],
            step: 0,
        }
    }

    /// One update of `params` by `grad * scale`.
    fn update(&mut self, params: &mut Params, grad: &[f64], scale: f64, lr: f64) {
        let (b1, b2, eps) = (Self::B1, Self::B2, Self::EPS);
        self.step += 1;
        let c1 = 1.0 - b1.powi(self.step);
        let c2 = 1.0 - b2.powi(self.step);
        let mut offset = 0;
        for block in params.blocks_mut() {
            let end = offset + block.len();
            let moments = self.m1[offset..end]
                .iter_mut()
                .zip(&mut self.m2[offset..end]);
            for ((p, &g), (m1, m2)) in block.iter_mut().zip(&grad[offset..end]).zip(moments) {
                let g = g * scale;
                *m1 = b1 * *m1 + (1.0 - b1) * g;
                *m2 = b2 * *m2 + (1.0 - b2) * g * g;
                // Once a correction rounds to exactly 1.0 (after ~350 steps
                // for β1, ~36,800 for β2) its divide is the identity.
                let mh = if c1 == 1.0 { *m1 } else { *m1 / c1 };
                let vh = if c2 == 1.0 { *m2 } else { *m2 / c2 };
                *p -= lr * mh / (vh.sqrt() + eps);
            }
            offset = end;
        }
    }
}

/// An LSTM regression model over scalar sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmPredictor {
    params: Params,
    config: LstmConfig,
    /// Mean training target — fallback prediction for empty histories.
    fallback: f64,
}

impl LstmPredictor {
    /// Train on `sequences`: every window of `config.window` consecutive
    /// scores predicts the following score. Deterministic given `rng`.
    pub fn fit<R: Rng + ?Sized>(sequences: &[Vec<f64>], config: LstmConfig, rng: &mut R) -> Self {
        assert!(config.hidden > 0, "hidden size must be positive");
        assert!(config.window > 0, "window must be positive");
        let mut pairs: Vec<(&[f64], f64)> = Vec::new();
        for seq in sequences {
            for t in 1..seq.len() {
                let start = t.saturating_sub(config.window);
                pairs.push((&seq[start..t], seq[t]));
            }
        }
        let fallback = if pairs.is_empty() {
            0.0
        } else {
            pairs.iter().map(|(_, y)| *y).sum::<f64>() / pairs.len() as f64
        };
        let mut model = Self {
            params: Params::init(config.hidden, rng),
            config,
            fallback,
        };
        if pairs.is_empty() {
            return model;
        }
        let steps = pairs.iter().map(|(w, _)| w.len()).max().unwrap_or(0);
        let mut ws = Workspace::training(&model.params, steps);
        let mut adam = Adam::new(model.params.len());
        let (lr, clip) = (model.config.lr, model.config.clip);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _ in 0..model.config.epochs {
            // Fisher–Yates shuffle for SGD order.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &idx in &order {
                let (window, target) = pairs[idx];
                model.backward(&mut ws, window, target);
                let mut norm = 0.0;
                for g in &ws.grad {
                    norm += g * g;
                }
                norm = norm.sqrt();
                let scale = if clip > 0.0 && norm > clip {
                    clip / norm
                } else {
                    1.0
                };
                adam.update(&mut model.params, &ws.grad, scale, lr);
            }
        }
        model
    }

    /// The input window length: how many trailing scores a prediction
    /// reads.
    pub fn window(&self) -> usize {
        self.config.window
    }

    /// Check a deserialized model before it predicts: the parameter
    /// blocks must match the hidden size, and the window must be
    /// positive. A model from [`LstmPredictor::fit`] always passes.
    pub fn check_shape(&self) -> Result<(), String> {
        self.params.check_shape()?;
        if self.config.hidden != self.params.hidden {
            return Err(format!(
                "LSTM config says hidden size {}, parameters have {}",
                self.config.hidden, self.params.hidden
            ));
        }
        if self.config.window == 0 {
            return Err("LSTM window must be positive".into());
        }
        Ok(())
    }

    /// Forward pass over `window` (at most as long as `ws` was sized
    /// for), leaving every step's activations in `ws`; returns the
    /// prediction.
    fn forward(&self, ws: &mut Workspace, window: &[f64]) -> f64 {
        let p = &self.params;
        let hd = p.hidden;
        for (t, &x) in window.iter().enumerate() {
            let (h_prev, h) = ws.h[t * hd..(t + 2) * hd].split_at_mut(hd);
            let gates = &mut ws.gates[4 * hd * t..4 * hd * (t + 1)];
            for (row, (gate, w)) in gates.iter_mut().zip(p.w.chunks_exact(1 + hd)).enumerate() {
                let mut a = p.b[row] + w[0] * x;
                for (&wk, &hk) in w[1..].iter().zip(&*h_prev) {
                    a += wk * hk;
                }
                *gate = if row < 3 * hd { sigmoid(a) } else { a.tanh() };
            }
            let (i, rest) = gates.split_at(hd);
            let (f, rest) = rest.split_at(hd);
            let (o, g) = rest.split_at(hd);
            let (c_prev, c) = ws.c[t * hd..(t + 2) * hd].split_at_mut(hd);
            let tanh_c = &mut ws.tanh_c[t * hd..(t + 1) * hd];
            for j in 0..hd {
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
                tanh_c[j] = c[j].tanh();
                h[j] = o[j] * tanh_c[j];
            }
        }
        let last = window.len() * hd;
        let mut y = p.by;
        for (&w, &hv) in p.wy.iter().zip(&ws.h[last..last + hd]) {
            y += w * hv;
        }
        y
    }

    /// Full BPTT for one `(window, target)` pair: runs the forward pass,
    /// then writes the gradient of `0.5 * (pred - target)^2` into
    /// `ws.grad` in [`Params`] order.
    fn backward(&self, ws: &mut Workspace, window: &[f64], target: f64) {
        let pred = self.forward(ws, window);
        let p = &self.params;
        let hd = p.hidden;
        let in_dim = 1 + hd;
        let Workspace {
            gates,
            h,
            c,
            tanh_c,
            grad,
            dh,
            dc,
            dh_prev,
            dc_prev,
        } = ws;
        grad.fill(0.0);
        let (gw, rest) = grad.split_at_mut(p.w.len());
        let (gb, rest) = rest.split_at_mut(p.b.len());
        let (gwy, gby) = rest.split_at_mut(hd);
        let dy = pred - target;
        gby[0] = dy;
        let last = window.len() * hd;
        for j in 0..hd {
            gwy[j] = dy * h[last + j];
            dh[j] = dy * p.wy[j];
        }
        dc.fill(0.0);
        for (t, &x) in window.iter().enumerate().rev() {
            let step_gates = &gates[4 * hd * t..4 * hd * (t + 1)];
            let (i, rest) = step_gates.split_at(hd);
            let (f, rest) = rest.split_at(hd);
            let (o, g) = rest.split_at(hd);
            let c_prev = &c[t * hd..(t + 1) * hd];
            let h_prev = &h[t * hd..(t + 1) * hd];
            let tanh_c = &tanh_c[t * hd..(t + 1) * hd];
            dh_prev.fill(0.0);
            for j in 0..hd {
                let do_j = dh[j] * tanh_c[j];
                let dcj = dc[j] + dh[j] * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
                let di = dcj * g[j];
                let df = dcj * c_prev[j];
                let dg = dcj * i[j];
                dc_prev[j] = dcj * f[j];
                // Pre-activation gradients.
                let dai = di * i[j] * (1.0 - i[j]);
                let daf = df * f[j] * (1.0 - f[j]);
                let dao = do_j * o[j] * (1.0 - o[j]);
                let dag = dg * (1.0 - g[j] * g[j]);
                for (gate, da) in [dai, daf, dao, dag].into_iter().enumerate() {
                    let row = gate * hd + j;
                    let base = row * in_dim;
                    gb[row] += da;
                    gw[base] += da * x;
                    let gw_row = gw[base + 1..base + in_dim].iter_mut();
                    let w_row = &p.w[base + 1..base + in_dim];
                    for ((gwk, dhk), (&hk, &wk)) in
                        gw_row.zip(dh_prev.iter_mut()).zip(h_prev.iter().zip(w_row))
                    {
                        *gwk += da * hk;
                        *dhk += da * wk;
                    }
                }
            }
            std::mem::swap(dh, dh_prev);
            std::mem::swap(dc, dc_prev);
        }
    }
}

impl SequencePredictor for LstmPredictor {
    fn predict_next(&self, seq: &[f64]) -> f64 {
        if seq.is_empty() {
            return self.fallback;
        }
        let window = &seq[seq.len().saturating_sub(self.config.window)..];
        let mut ws = Workspace::predicting(self.params.hidden, window.len());
        let y = self.forward(&mut ws, window);
        if y.is_finite() {
            y
        } else {
            self.fallback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// The parameter at flat index `i` (the gradient's layout).
    fn param_mut(params: &mut Params, mut i: usize) -> &mut f64 {
        for block in params.blocks_mut() {
            if i < block.len() {
                return &mut block[i];
            }
            i -= block.len();
        }
        panic!("parameter index out of range")
    }

    fn loss(model: &LstmPredictor, window: &[f64], target: f64) -> f64 {
        let mut ws = Workspace::predicting(model.params.hidden, window.len());
        let y = model.forward(&mut ws, window);
        0.5 * (y - target) * (y - target)
    }

    /// Numerical gradient check: the analytic BPTT gradient must match the
    /// central finite difference on every parameter of a tiny net.
    #[test]
    fn gradient_check() {
        let mut r = rng();
        let config = LstmConfig {
            hidden: 3,
            window: 4,
            epochs: 0,
            lr: 0.0,
            clip: 0.0,
        };
        let model = LstmPredictor {
            params: Params::init(3, &mut r),
            config,
            fallback: 0.0,
        };
        let window = [0.2, -0.4, 0.9, 0.1];
        let target = 0.5;
        let mut ws = Workspace::training(&model.params, window.len());
        model.backward(&mut ws, &window, target);
        let analytic = ws.grad;
        assert_eq!(analytic.len(), model.params.len());
        let eps = 1e-6;
        for p_idx in 0..model.params.len() {
            let mut plus = model.clone();
            *param_mut(&mut plus.params, p_idx) += eps;
            let mut minus = model.clone();
            *param_mut(&mut minus.params, p_idx) -= eps;
            let numeric =
                (loss(&plus, &window, target) - loss(&minus, &window, target)) / (2.0 * eps);
            assert!(
                (numeric - analytic[p_idx]).abs() < 1e-4,
                "param {p_idx}: numeric {numeric} vs analytic {}",
                analytic[p_idx]
            );
        }
    }

    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The trained weights feed LHS features, and through them every LHS
    /// curve and golden: a rewrite of the training loop must not move a
    /// single bit. The constants were captured from the straightforward
    /// allocating implementation this loop replaced.
    #[test]
    fn fit_bits_are_pinned() {
        // Shaped like the trainer's corpus: short score histories in [0, 0.7).
        let mut data = ChaCha8Rng::seed_from_u64(2024);
        let seqs: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..8).map(|_| data.gen_range(0.0..0.7)).collect())
            .collect();
        let model = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        let p = &model.params;
        let bits = p.w.iter().chain(&p.b).chain(&p.wy).chain([&p.by]);
        assert_eq!(fnv1a(bits.map(|v| v.to_bits())), 0x0773_c73c_1378_1fe0);
        let windows: [&[f64]; 3] = [
            &[0.1, 0.2, 0.3],
            &[0.65, 0.05, 0.4, 0.2, 0.6, 0.3, 0.1],
            &[0.35],
        ];
        let expected = [
            0x3fd4_3eef_797e_9514u64,
            0x3fd4_3eef_7ad2_6378,
            0x3fd4_3eef_7936_a23b,
        ];
        for (w, want) in windows.into_iter().zip(expected) {
            assert_eq!(model.predict_next(w).to_bits(), want, "window {w:?}");
        }
    }

    #[test]
    fn learns_constant_sequence() {
        let seqs = vec![vec![0.7; 12]; 8];
        let model = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        let pred = model.predict_next(&[0.7, 0.7, 0.7, 0.7]);
        assert!((pred - 0.7).abs() < 0.05, "pred {pred}");
    }

    #[test]
    fn learns_linear_trend_better_than_mean() {
        // Sequences increasing by 0.05 per step from varied starts.
        let seqs: Vec<Vec<f64>> = (0..20)
            .map(|s| (0..15).map(|t| 0.01 * s as f64 + 0.05 * t as f64).collect())
            .collect();
        let model = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        let mut trained_mse = 0.0;
        for s in &seqs {
            for t in 1..s.len() {
                let d = model.predict_next(&s[..t]) - s[t];
                trained_mse += d * d;
            }
        }
        trained_mse /= seqs.iter().map(|s| s.len() - 1).sum::<usize>() as f64;
        // Baseline: always predict the corpus mean.
        let all: Vec<f64> = seqs.iter().flatten().copied().collect();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        let mut base = 0.0;
        let mut n = 0;
        for s in &seqs {
            for t in 1..s.len() {
                base += (mean - s[t]) * (mean - s[t]);
                n += 1;
            }
        }
        base /= n as f64;
        assert!(
            trained_mse < base * 0.5,
            "mse {trained_mse} vs mean-baseline {base}"
        );
    }

    #[test]
    fn empty_history_predicts_fallback() {
        let seqs = vec![vec![0.3, 0.3, 0.3]];
        let model = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        assert!((model.predict_next(&[]) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn no_training_data_is_safe() {
        let model = LstmPredictor::fit(&[], LstmConfig::default(), &mut rng());
        assert_eq!(model.predict_next(&[]), 0.0);
        assert!(model.predict_next(&[0.5]).is_finite());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let seqs = vec![vec![0.1, 0.5, 0.2, 0.8, 0.4]; 4];
        let a = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        let b = LstmPredictor::fit(&seqs, LstmConfig::default(), &mut rng());
        assert_eq!(a.predict_next(&[0.3, 0.9]), b.predict_next(&[0.3, 0.9]));
    }
}
