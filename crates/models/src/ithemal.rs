//! The Ithemal-like learned throughput predictor.

use crate::features::{block_features, FEATURE_DIMS};
use crate::{isa_unsupported, ThroughputModel};
use bhive_asm::BasicBlock;
use bhive_learn::regress::{SgdConfig, SgdRegressor};
use bhive_uarch::{Uarch, UarchKind};
use serde::{Deserialize, Serialize};

/// Training configuration for the learned model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IthemalConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Seed for shuffling/initialization.
    pub seed: u64,
}

impl Default for IthemalConfig {
    fn default() -> Self {
        IthemalConfig {
            epochs: 400,
            learning_rate: 0.12,
            seed: 0x17E3,
        }
    }
}

/// A learned basic-block throughput predictor in the spirit of Ithemal:
/// trained end-to-end on *measured* data, producing one number per block
/// with no interpretable schedule.
///
/// Like the original — whose authors attribute its weakness on vectorized
/// blocks to training-set imbalance — this model is only as good as the
/// measured corpus it was fitted to.
#[derive(Debug, Clone)]
pub struct IthemalModel {
    uarch: &'static Uarch,
    /// A small bagged ensemble; predictions are averaged in log space.
    regressors: Vec<SgdRegressor>,
    trained_on: usize,
}

impl IthemalModel {
    /// Trains on `(block, measured_throughput)` pairs measured on
    /// `uarch`, whose tables also feed the analytic features.
    ///
    /// The target is log-throughput, which makes the squared loss a
    /// relative-error surrogate (Ithemal trains the same way).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or contains non-positive
    /// throughputs.
    pub fn train(
        data: &[(BasicBlock, f64)],
        uarch: &'static Uarch,
        config: IthemalConfig,
    ) -> IthemalModel {
        assert!(!data.is_empty(), "empty training set");
        let mut xs = Vec::with_capacity(data.len());
        let mut ys = Vec::with_capacity(data.len());
        for (block, tp) in data {
            assert!(*tp > 0.0, "non-positive measured throughput {tp}");
            xs.push(block_features(block, uarch));
            ys.push(tp.ln());
        }
        // Bagged ensemble: the same data, different shuffle orders.
        let regressors = (0..5)
            .map(|k| {
                SgdRegressor::train(
                    &xs,
                    &ys,
                    SgdConfig {
                        epochs: config.epochs,
                        learning_rate: config.learning_rate,
                        l2: 1e-6,
                        seed: config.seed.wrapping_add(k * 0x9E37),
                    },
                )
            })
            .collect();
        IthemalModel {
            uarch,
            regressors,
            trained_on: data.len(),
        }
    }

    /// Number of training examples the model was fitted to.
    pub fn training_set_size(&self) -> usize {
        self.trained_on
    }
}

impl ThroughputModel for IthemalModel {
    fn name(&self) -> &'static str {
        "ithemal"
    }

    fn uarch(&self) -> UarchKind {
        self.uarch.kind
    }

    fn predict(&self, block: &BasicBlock) -> Option<f64> {
        if block.is_empty() || isa_unsupported(block, self.uarch) {
            return None;
        }
        let features = block_features(block, self.uarch);
        debug_assert_eq!(features.len(), FEATURE_DIMS);
        let mean_log = self
            .regressors
            .iter()
            .map(|r| r.predict(&features))
            .sum::<f64>()
            / self.regressors.len() as f64;
        // Sanity envelope: a linear model extrapolates badly far off its
        // training distribution, but no throughput predictor would report
        // values wildly outside the analytic port/chain bounds.
        let max_bound = features[21].max(0.25);
        let lo = (max_bound / 8.0).max(0.2).ln();
        let hi = (max_bound * 8.0 + 4.0).ln();
        Some(mean_log.clamp(lo, hi).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;

    /// A toy "measured" corpus with simple analytic throughputs.
    fn toy_training_set() -> Vec<(BasicBlock, f64)> {
        let mut data = Vec::new();
        for n in 1..=6 {
            // n independent adds: throughput ~ n/4.
            let text = (0..n)
                .map(|i| format!("add r{}, 1", 8 + i))
                .collect::<Vec<_>>()
                .join("\n");
            data.push((parse_block(&text).unwrap(), (n as f64 / 4.0).max(0.25)));
            // n dependent imuls: throughput ~ 3n.
            let text = (0..n)
                .map(|_| "imul rax, rax".to_string())
                .collect::<Vec<_>>()
                .join("\n");
            data.push((parse_block(&text).unwrap(), 3.0 * n as f64));
        }
        data
    }

    #[test]
    fn learns_the_toy_corpus() {
        let data = toy_training_set();
        let config = IthemalConfig {
            epochs: 800,
            learning_rate: 0.2,
            seed: 1,
        };
        let model = IthemalModel::train(&data, Uarch::haswell(), config);
        for (block, measured) in &data {
            let predicted = model.predict(block).unwrap();
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.6,
                "block\n{block}\npredicted {predicted:.2}, measured {measured:.2}"
            );
        }
        assert_eq!(model.training_set_size(), data.len());
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_training_set();
        let a = IthemalModel::train(&data, Uarch::haswell(), IthemalConfig::default());
        let b = IthemalModel::train(&data, Uarch::haswell(), IthemalConfig::default());
        let block = parse_block("add rax, 1").unwrap();
        assert_eq!(a.predict(&block), b.predict(&block));
    }

    #[test]
    fn no_schedule_output() {
        let data = toy_training_set();
        let model = IthemalModel::train(&data, Uarch::haswell(), IthemalConfig::default());
        let block = parse_block("add rax, 1").unwrap();
        // "Ithemal is not a simulator ... without reporting an
        // interpretable execution trace."
        assert!(model.schedule(&block).is_none());
    }
}
