//! Plugging a custom model into the active-learning driver.
//!
//! The driver is generic over [`histal::core::Model`], so any learner
//! that can emit class probabilities participates in every strategy the
//! crate ships — including the history-aware ones. This example wires in
//! a nearest-centroid classifier over dense 2-D points (a completely
//! different model family and sample type than the built-ins) and runs
//! FHS(entropy) against random sampling.
//!
//! ```sh
//! cargo run --release --example custom_model
//! ```

use histal::prelude::*;
use histal_core::eval::{EvalCaps, SampleEval};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 2-D point sample.
type Point = [f64; 2];

/// Nearest-centroid classifier with a temperature-softmax posterior.
#[derive(Clone)]
struct CentroidModel {
    centroids: Vec<Point>,
    temperature: f64,
}

impl CentroidModel {
    fn new(n_classes: usize) -> Self {
        Self {
            centroids: vec![[0.0, 0.0]; n_classes],
            temperature: 4.0,
        }
    }

    fn probs(&self, x: &Point) -> Vec<f64> {
        let mut logits: Vec<f64> = self
            .centroids
            .iter()
            .map(|c| {
                let d2 = (x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2);
                -self.temperature * d2
            })
            .collect();
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for l in logits.iter_mut() {
            *l = (*l - max).exp();
            sum += *l;
        }
        for l in logits.iter_mut() {
            *l /= sum;
        }
        logits
    }
}

impl Model for CentroidModel {
    type Sample = Point;
    type Label = usize;

    fn fit(&mut self, samples: &[&Point], labels: &[&usize], _rng: &mut ChaCha8Rng) {
        let k = self.centroids.len();
        let mut sums = vec![[0.0f64; 2]; k];
        let mut counts = vec![0usize; k];
        for (x, &&y) in samples.iter().zip(labels) {
            sums[y][0] += x[0];
            sums[y][1] += x[1];
            counts[y] += 1;
        }
        for (c, (s, n)) in self.centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *n > 0 {
                *c = [s[0] / *n as f64, s[1] / *n as f64];
            }
        }
    }

    fn eval_sample(&self, sample: &Point, _caps: &EvalCaps, _seed: u64) -> SampleEval {
        SampleEval::from_probs(self.probs(sample))
    }

    fn metric(&self, samples: &[&Point], labels: &[&usize]) -> f64 {
        let correct = samples
            .iter()
            .zip(labels)
            .filter(|(x, &&y)| {
                let p = self.probs(x);
                let pred = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                pred == y
            })
            .count();
        correct as f64 / samples.len().max(1) as f64
    }
}

/// Three overlapping Gaussian blobs.
fn make_blobs(n: usize, seed: u64) -> (Vec<Point>, Vec<usize>) {
    let centers: [Point; 3] = [[0.0, 0.0], [2.0, 0.5], [1.0, 2.0]];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 3;
        let gauss = |rng: &mut ChaCha8Rng| -> f64 {
            // Sum of uniforms ≈ normal.
            (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() - 3.0
        };
        xs.push([
            centers[c][0] + 0.55 * gauss(&mut rng),
            centers[c][1] + 0.55 * gauss(&mut rng),
        ]);
        ys.push(c);
    }
    (xs, ys)
}

fn main() {
    let (pool, pool_labels) = make_blobs(1_200, 3);
    let (test, test_labels) = make_blobs(600, 4);
    let config = PoolConfig {
        batch_size: 10,
        rounds: 12,
        init_labeled: 10,
        record_history: false,
        ann: None,
    };

    for strategy in [
        Strategy::new(BaseStrategy::Random),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Fhs {
            l: 3,
            w_score: 0.5,
            w_fluct: 0.5,
        }),
    ] {
        let mut learner = ActiveLearner::builder(CentroidModel::new(3))
            .pool(pool.clone(), pool_labels.clone())
            .test(test.clone(), test_labels.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(99)
            .build();
        let r = learner
            .run()
            .expect("centroid model provides probabilities");
        println!("== {} ==", r.strategy_name);
        for p in r.curve.iter().step_by(3) {
            println!("  {:>4} labeled → accuracy {:.4}", p.n_labeled, p.metric);
        }
        println!("  final: {:.4}\n", r.final_metric().unwrap_or(f64::NAN));
    }
}
