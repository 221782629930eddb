//! # gbdt — histogram-based gradient-boosted decision trees
//!
//! A from-scratch substitute for LightGBM (Ke et al., NeurIPS 2017), which
//! the paper uses to learn OPT's decisions: "LFO currently uses LightGBM.
//! Throughout our evaluation, we use LightGBM's default parameters with one
//! exception: we have decreased the number of iterations [...] from 100 to
//! 30" (§2.3).
//!
//! The algorithmic core mirrors LightGBM's:
//!
//! - **quantile feature binning** into at most 255 histogram bins
//!   ([`dataset`]);
//! - **leaf-wise (best-first) tree growth** with histogram-based split
//!   finding and the sibling-subtraction trick ([`tree`]);
//! - **gradient boosting with logistic loss** for binary classification,
//!   with shrinkage, feature subsampling, bagging, and early stopping
//!   ([`boosting`]);
//! - **split-count and gain feature importance** ([`importance`]) — needed
//!   to reproduce Figure 8 of the paper;
//! - **flat SoA serving layout** ([`flat`]) — the per-tree node arenas
//!   flattened into contiguous arrays at model-publish time, with a batched
//!   per-tree-walk scorer, bit-equal to the recursive path;
//! - **quantized integer-compare serving** ([`quantized`]) — each split
//!   threshold becomes a u16 cut into the model's own per-feature
//!   threshold grid (bit-equal to the flat walk), nodes packed one-per-u64
//!   with a block-interleaved fixed-depth kernel, plus predicate pruning
//!   of branches the serving shard can prove dead;
//! - **one batched scoring entry point** ([`score`]) — every engine
//!   (recursive / flat / quantized / quantized+pruned) packs rows once and
//!   scores through the same ranged call;
//! - model (de)serialization via serde ([`Model`] derives it).
//!
//! ## Example
//!
//! ```
//! use gbdt::{Dataset, GbdtParams, train};
//!
//! // Learn y = x0 > 0.5 from noisy data.
//! let rows: Vec<Vec<f32>> = (0..200)
//!     .map(|i| vec![(i % 100) as f32 / 100.0, (i % 7) as f32])
//!     .collect();
//! let labels: Vec<f32> = rows.iter().map(|r| (r[0] > 0.5) as u8 as f32).collect();
//! let data = Dataset::from_rows(rows, labels).unwrap();
//! let model = train(&data, &GbdtParams::default());
//! assert!(model.predict_proba(&[0.9, 3.0]) > 0.5);
//! assert!(model.predict_proba(&[0.1, 3.0]) < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boosting;
pub mod dataset;
pub mod dump;
pub mod flat;
pub mod importance;
pub mod metrics;
pub mod quantized;
pub mod score;
pub mod tree;

pub use boosting::{
    sigmoid, train, train_continued, train_continued_with_validation, train_with_validation,
    GbdtParams, Model, TrainReport,
};
pub use dataset::{BinMap, BinnedDataset, Dataset, DatasetError};
pub use dump::{dump_model, dump_tree};
pub use flat::FlatModel;
pub use importance::{FeatureImportance, ImportanceKind};
pub use metrics::{accuracy, error_rate, log_loss, Confusion};
pub use quantized::{Predicate, QuantizedModel, MISSING_BIN};
pub use score::{EngineKind, PackedScorer, BATCH_ROWS};
pub use tree::Tree;
