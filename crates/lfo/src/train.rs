//! Training LFO's classifier (paper §2.3).

use gbdt::{train, train_continued, BinMap, Confusion, Dataset, EngineKind, Model, PackedScorer};

use crate::config::{LfoConfig, RetrainConfig};

/// A model trained on one window, with its self-reported quality.
#[derive(Clone, Debug)]
pub struct TrainedWindow {
    /// The boosted-tree classifier.
    pub model: Model,
    /// Training-set accuracy at the configured cutoff.
    pub train_accuracy: f64,
    /// Training-set confusion at the configured cutoff.
    pub train_confusion: Confusion,
    /// Fraction of positive labels (OPT admissions) in the window.
    pub positive_fraction: f64,
    /// Predicted probabilities on the training set (for cutoff tuning).
    pub train_probs: Vec<f64>,
    /// Training labels (paired with `train_probs`).
    pub train_labels: Vec<f32>,
}

/// Trains the LFO classifier for one window's training set.
pub fn train_window(data: &Dataset, config: &LfoConfig) -> TrainedWindow {
    let model = train(data, &config.gbdt);
    finish_window(model, data, config)
}

/// Continues boosting from `base` for one window: the incumbent is capped
/// to `retrain.max_trees - retrain.delta_trees` newest trees (when a cap
/// is set), then `retrain.delta_trees` new trees are appended with the
/// score vector seeded from the incumbent's margins. `bin_map` supplies
/// the frozen quantile grid fitted at the last full rebuild.
pub fn train_window_continued(
    base: &Model,
    data: &Dataset,
    config: &LfoConfig,
    retrain: &RetrainConfig,
    bin_map: Option<&BinMap>,
) -> TrainedWindow {
    let mut params = config.gbdt.clone();
    params.num_iterations = retrain.delta_trees;
    let capped;
    let base = if retrain.max_trees > 0
        && base.trees().len() + retrain.delta_trees > retrain.max_trees
    {
        capped = base.retained_newest(retrain.max_trees.saturating_sub(retrain.delta_trees).max(1));
        &capped
    } else {
        base
    };
    let model = train_continued(base, data, &params, bin_map);
    finish_window(model, data, config)
}

/// Scores the training window (flat batch inference — bit-equal to the
/// recursive walk) and assembles the self-reported quality numbers.
fn finish_window(model: Model, data: &Dataset, config: &LfoConfig) -> TrainedWindow {
    let probs = batch_probs(&model, data);
    let confusion = Confusion::at_cutoff(&probs, data.labels(), config.cutoff);
    let positives = data.labels().iter().filter(|&&y| y >= 0.5).count();
    TrainedWindow {
        model,
        train_accuracy: 1.0 - confusion.error_fraction(),
        train_confusion: confusion,
        positive_fraction: positives as f64 / data.num_rows() as f64,
        train_probs: probs,
        train_labels: data.labels().to_vec(),
    }
}

/// Batch probabilities over a whole dataset through the flat layout —
/// bit-equal to per-row [`Model::predict_proba`]. Packs and chunks through
/// [`gbdt::PackedScorer`], the same batched entry point the serving
/// throughput harness uses, so there is exactly one copy of the batching
/// loop across the codebase.
fn batch_probs(model: &Model, data: &Dataset) -> Vec<f64> {
    let rows: Vec<Vec<f32>> = (0..data.num_rows()).map(|r| data.row(r)).collect();
    let scorer = PackedScorer::pack(model, EngineKind::Flat, &rows, &[]);
    let mut out = vec![0.0f64; rows.len()];
    scorer.score_all(&mut out);
    out
}

/// The cutoff that (approximately) equalizes false-positive and
/// false-negative rates over `(probs, labels)` — §3's observation that
/// raising the cutoff to about 0.65 "equalizes false negative and false
/// positive rate" and makes LFO less conservative.
pub fn equalize_cutoff(probs: &[f64], labels: &[f32]) -> f64 {
    let mut best = 0.5;
    let mut best_gap = f64::INFINITY;
    for step in 1..100 {
        let cutoff = step as f64 / 100.0;
        let c = Confusion::at_cutoff(probs, labels, cutoff);
        let gap = (c.false_positive_fraction() - c.false_negative_fraction()).abs();
        if gap < best_gap {
            best_gap = gap;
            best = cutoff;
        }
    }
    best
}

/// Evaluates a trained model against another window's labeled data,
/// returning the confusion at `cutoff` (the Figure 5 "prediction error" is
/// `error_fraction()` of this).
pub fn evaluate(model: &Model, data: &Dataset, cutoff: f64) -> Confusion {
    let probs = batch_probs(model, data);
    Confusion::at_cutoff(&probs, data.labels(), cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureTracker;
    use crate::labels::build_training_set;
    use cdn_trace::{GeneratorConfig, TraceGenerator};
    use opt::{compute_opt, OptConfig};

    fn window_dataset(seed: u64, n: u64, cache: u64) -> Dataset {
        let trace = TraceGenerator::new(GeneratorConfig::small(seed, n)).generate();
        let opt = compute_opt(trace.requests(), &OptConfig::bhr(cache)).unwrap();
        let cfg = LfoConfig::default();
        let mut tracker = FeatureTracker::new(cfg.num_gaps, cfg.cost_model);
        build_training_set(trace.requests(), &opt, &mut tracker, cache)
    }

    #[test]
    fn training_reaches_high_accuracy_on_its_own_window() {
        let data = window_dataset(1, 5_000, 4 * 1024 * 1024);
        let trained = train_window(&data, &LfoConfig::default());
        // The paper reports >93% test accuracy; training accuracy on the
        // same window must be at least that.
        assert!(
            trained.train_accuracy > 0.9,
            "train accuracy {}",
            trained.train_accuracy
        );
    }

    #[test]
    fn generalizes_to_the_next_window() {
        // Train on window 1, evaluate on window 2 of the same trace.
        let cache = 4 * 1024 * 1024;
        let trace = TraceGenerator::new(GeneratorConfig::small(2, 10_000)).generate();
        let reqs = trace.requests();
        let cfg = LfoConfig::default();
        let mut tracker = FeatureTracker::new(cfg.num_gaps, cfg.cost_model);
        let opt_a = compute_opt(&reqs[..5_000], &OptConfig::bhr(cache)).unwrap();
        let data_a = build_training_set(&reqs[..5_000], &opt_a, &mut tracker, cache);
        let opt_b = compute_opt(&reqs[5_000..], &OptConfig::bhr(cache)).unwrap();
        let data_b = build_training_set(&reqs[5_000..], &opt_b, &mut tracker, cache);

        let trained = train_window(&data_a, &cfg);
        let test = evaluate(&trained.model, &data_b, cfg.cutoff);
        let error = test.error_fraction();
        assert!(error < 0.25, "test error {error}");
    }

    #[test]
    fn equalize_cutoff_balances_error_rates() {
        // Probabilities skewed high: many negatives score above 0.5, so the
        // balancing cutoff must rise above 0.5.
        let probs: Vec<f64> = (0..100).map(|i| 0.3 + 0.6 * (i as f64 / 100.0)).collect();
        let labels: Vec<f32> = (0..100).map(|i| (i >= 70) as u8 as f32).collect();
        let c = equalize_cutoff(&probs, &labels);
        assert!(c > 0.5, "cutoff {c}");
        let conf = Confusion::at_cutoff(&probs, &labels, c);
        assert!(
            (conf.false_positive_fraction() - conf.false_negative_fraction()).abs() < 0.05,
            "rates not equalized at {c}"
        );
    }

    #[test]
    fn continued_window_appends_and_respects_cap() {
        let data = window_dataset(4, 3_000, 2 * 1024 * 1024);
        let cfg = LfoConfig::default(); // 30 trees per full rebuild
        let base = train_window(&data, &cfg);
        assert_eq!(base.model.trees().len(), 30);

        let uncapped = RetrainConfig {
            delta_trees: 5,
            full_refresh: 4,
            max_trees: 0,
        };
        let grown = train_window_continued(&base.model, &data, &cfg, &uncapped, None);
        assert_eq!(grown.model.trees().len(), 35);
        assert_eq!(&grown.model.trees()[..30], base.model.trees());

        let capped = RetrainConfig {
            max_trees: 32,
            ..uncapped
        };
        let capped_model = train_window_continued(&base.model, &data, &cfg, &capped, None);
        // 27 newest incumbent trees retained + 5 appended = the cap.
        assert_eq!(capped_model.model.trees().len(), 32);
        assert_eq!(&capped_model.model.trees()[..27], &base.model.trees()[3..]);
    }

    #[test]
    fn frozen_bin_map_from_same_window_changes_nothing() {
        let data = window_dataset(5, 2_000, 2 * 1024 * 1024);
        let cfg = LfoConfig::default();
        let base = train_window(&data, &cfg);
        let retrain = RetrainConfig {
            delta_trees: 4,
            full_refresh: 4,
            max_trees: 0,
        };
        let map = gbdt::BinMap::fit(&data, cfg.gbdt.max_bins);
        let with_map = train_window_continued(&base.model, &data, &cfg, &retrain, Some(&map));
        let without = train_window_continued(&base.model, &data, &cfg, &retrain, None);
        assert_eq!(with_map.model, without.model);
    }

    #[test]
    fn confusion_counts_cover_all_rows() {
        let data = window_dataset(3, 2_000, 1024 * 1024);
        let trained = train_window(&data, &LfoConfig::default());
        assert_eq!(trained.train_confusion.total(), data.num_rows());
        assert!((0.0..=1.0).contains(&trained.positive_fraction));
    }
}
