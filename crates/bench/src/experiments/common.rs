//! Helpers shared by the figure experiments.

use cdn_trace::Request;
use gbdt::{Confusion, Dataset, GbdtParams, Model};
use lfo::features::FeatureTracker;
use lfo::labels::build_training_set;
use lfo::LfoConfig;
use opt::{compute_opt, OptConfig};

use crate::harness::Scale;

/// Scale-aware acceptance gates: asserted at quick/full scale, announced
/// as skipped at smoke scale (smoke traces are too small for wall-clock
/// ratios or statistical bounds to be meaningful — every experiment that
/// gates was writing this same if/else by hand).
pub struct Gates {
    enforced: bool,
}

impl Gates {
    /// Builds the gate set for `scale`, printing the standard skip line
    /// (with the experiment's reason) when gates are off.
    pub fn at(scale: Scale, skip_reason: &str) -> Self {
        let enforced = scale != Scale::Smoke;
        if !enforced {
            println!("  gates: skipped at smoke scale ({skip_reason})");
        }
        Gates { enforced }
    }

    /// Whether gate conditions are asserted at this scale (recorded in
    /// the experiments' JSON documents).
    pub fn enforced(&self) -> bool {
        self.enforced
    }

    /// Asserts `cond` when gates are enforced; the message closure is
    /// only evaluated on failure.
    ///
    /// # Panics
    ///
    /// Panics with the message when enforced and `cond` is false.
    pub fn require(&self, cond: bool, message: impl FnOnce() -> String) {
        if self.enforced {
            assert!(cond, "{}", message());
        }
    }
}

/// Train on window A and score window B, using one continuous feature
/// tracker across both windows (the paper's protocol: train on requests
/// 0–1M, evaluate on 1–2M).
pub struct TrainEval {
    /// The trained model.
    pub model: Model,
    /// Predicted probabilities on window B.
    pub probs: Vec<f64>,
    /// OPT labels of window B.
    pub labels: Vec<f32>,
}

impl TrainEval {
    /// Confusion of the window-B predictions at `cutoff`.
    pub fn confusion(&self, cutoff: f64) -> Confusion {
        Confusion::at_cutoff(&self.probs, &self.labels, cutoff)
    }

    /// Prediction error (FP + FN fraction) at `cutoff`.
    pub fn error(&self, cutoff: f64) -> f64 {
        self.confusion(cutoff).error_fraction()
    }
}

/// Runs the train-on-A / evaluate-on-B protocol.
pub fn train_and_eval(
    window_a: &[Request],
    window_b: &[Request],
    cache_size: u64,
    gbdt: &GbdtParams,
) -> TrainEval {
    let lfo_config = LfoConfig {
        gbdt: gbdt.clone(),
        ..Default::default()
    };
    let opt_config = OptConfig::bhr(cache_size);
    let mut tracker = FeatureTracker::new(lfo_config.num_gaps, lfo_config.cost_model);

    let opt_a = compute_opt(window_a, &opt_config).expect("window A OPT");
    let data_a = build_training_set(window_a, &opt_a, &mut tracker, cache_size);
    let model = gbdt::train(&data_a, gbdt);

    let opt_b = compute_opt(window_b, &opt_config).expect("window B OPT");
    let data_b = build_training_set(window_b, &opt_b, &mut tracker, cache_size);
    let probs: Vec<f64> = (0..data_b.num_rows())
        .map(|r| model.predict_proba(&data_b.row(r)))
        .collect();
    TrainEval {
        model,
        probs,
        labels: data_b.labels().to_vec(),
    }
}

/// Builds a labeled dataset for one window (fresh tracker).
pub fn window_dataset(window: &[Request], cache_size: u64) -> Dataset {
    let lfo_config = LfoConfig::default();
    let opt_config = OptConfig::bhr(cache_size);
    let mut tracker = FeatureTracker::new(lfo_config.num_gaps, lfo_config.cost_model);
    let opt = compute_opt(window, &opt_config).expect("window OPT");
    build_training_set(window, &opt, &mut tracker, cache_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_trace::{GeneratorConfig, TraceGenerator};

    #[test]
    fn train_eval_protocol_produces_aligned_outputs() {
        let trace = TraceGenerator::new(GeneratorConfig::small(1, 4_000)).generate();
        let reqs = trace.requests();
        let te = train_and_eval(
            &reqs[..2_000],
            &reqs[2_000..],
            2 * 1024 * 1024,
            &GbdtParams::lfo_paper(),
        );
        assert_eq!(te.probs.len(), 2_000);
        assert_eq!(te.labels.len(), 2_000);
        assert!(te.error(0.5) < 0.5);
    }

    #[test]
    fn gates_skip_at_smoke_and_enforce_elsewhere() {
        let smoke = Gates::at(Scale::Smoke, "unit test");
        assert!(!smoke.enforced());
        smoke.require(false, || unreachable!("smoke gates never assert"));

        let quick = Gates::at(Scale::Quick, "unit test");
        assert!(quick.enforced());
        quick.require(true, || {
            unreachable!("message closure only runs on failure")
        });
    }

    #[test]
    #[should_panic(expected = "quick-scale gate fires")]
    fn enforced_gates_panic_on_violation() {
        Gates::at(Scale::Full, "unit test").require(false, || "quick-scale gate fires".into());
    }
}
