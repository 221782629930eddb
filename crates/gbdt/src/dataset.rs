//! Column-major datasets and quantile feature binning.
//!
//! Histogram GBDT never looks at raw feature values during training; it
//! works on small integer *bin indices*. Binning is the standard quantile
//! scheme: up to `max_bins` bins per feature, with bin boundaries placed at
//! value quantiles so every bin holds roughly the same number of rows.
//!
//! The boundary computation and its application are split: a [`BinMap`]
//! holds the per-feature boundaries (fit once, serializable), and
//! [`BinnedDataset::from_map`] quantizes any dataset against those frozen
//! edges — the basis of incremental window-over-window retraining, where
//! re-deriving quantiles every window is wasted work.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Errors from dataset construction.
#[derive(Debug, PartialEq, Eq)]
pub enum DatasetError {
    /// Rows have inconsistent feature counts.
    RaggedRows {
        /// Expected width (from the first row).
        expected: usize,
        /// Offending row index.
        row: usize,
        /// Its width.
        got: usize,
    },
    /// Labels and rows differ in length.
    LabelMismatch {
        /// Number of rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteValue {
        /// Row index.
        row: usize,
        /// Feature index.
        feature: usize,
    },
    /// The dataset has no rows.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::RaggedRows { expected, row, got } => {
                write!(f, "row {row} has {got} features, expected {expected}")
            }
            DatasetError::LabelMismatch { rows, labels } => {
                write!(f, "{rows} rows but {labels} labels")
            }
            DatasetError::NonFiniteValue { row, feature } => {
                write!(f, "non-finite value at row {row}, feature {feature}")
            }
            DatasetError::Empty => write!(f, "dataset has no rows"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A column-major training dataset: features plus binary labels (0 or 1;
/// fractional labels are accepted and treated as probabilities).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// `columns[f][r]` = value of feature `f` at row `r`.
    columns: Vec<Vec<f32>>,
    labels: Vec<f32>,
    num_rows: usize,
}

impl Dataset {
    /// Builds a dataset from row-major data.
    pub fn from_rows(rows: Vec<Vec<f32>>, labels: Vec<f32>) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::LabelMismatch {
                rows: rows.len(),
                labels: labels.len(),
            });
        }
        let width = rows[0].len();
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for (r, row) in rows.iter().enumerate() {
            if row.len() != width {
                return Err(DatasetError::RaggedRows {
                    expected: width,
                    row: r,
                    got: row.len(),
                });
            }
            for (f, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DatasetError::NonFiniteValue { row: r, feature: f });
                }
                columns[f].push(v);
            }
        }
        let num_rows = rows.len();
        Ok(Dataset {
            columns,
            labels,
            num_rows,
        })
    }

    /// Builds a dataset from column-major data (no copies beyond moves).
    pub fn from_columns(columns: Vec<Vec<f32>>, labels: Vec<f32>) -> Result<Self, DatasetError> {
        let num_rows = labels.len();
        if num_rows == 0 {
            return Err(DatasetError::Empty);
        }
        for (f, col) in columns.iter().enumerate() {
            if col.len() != num_rows {
                return Err(DatasetError::LabelMismatch {
                    rows: col.len(),
                    labels: num_rows,
                });
            }
            if let Some(r) = col.iter().position(|v| !v.is_finite()) {
                return Err(DatasetError::NonFiniteValue { row: r, feature: f });
            }
        }
        Ok(Dataset {
            columns,
            labels,
            num_rows,
        })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// Label of row `r`.
    pub fn label(&self, r: usize) -> f32 {
        self.labels[r]
    }

    /// All labels.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Value of feature `f` at row `r`.
    pub fn value(&self, f: usize, r: usize) -> f32 {
        self.columns[f][r]
    }

    /// The raw column of feature `f`.
    pub fn column(&self, f: usize) -> &[f32] {
        &self.columns[f]
    }

    /// Materializes row `r` (for prediction-path tests).
    pub fn row(&self, r: usize) -> Vec<f32> {
        self.columns.iter().map(|c| c[r]).collect()
    }
}

/// A dataset reduced to per-feature bin indices, plus the bin upper bounds
/// needed to translate bin splits back into raw-value thresholds.
#[derive(Clone, Debug)]
pub struct BinnedDataset {
    /// `bins[f][r]` = bin index of feature `f` at row `r`.
    bins: Vec<Vec<u8>>,
    /// `upper_bounds[f][b]` = largest raw value mapped to bin `b`.
    /// The last bin's bound is `f32::INFINITY`.
    upper_bounds: Vec<Vec<f32>>,
    num_rows: usize,
}

/// Hard cap on bins per feature (bin indices are stored in a `u8`).
pub const MAX_BINS: usize = 255;

/// Frozen per-feature bin boundaries: the quantile edges of one dataset,
/// reusable to quantize later datasets against the *same* grid.
///
/// Fitting quantiles is the expensive half of binning (sort + dedup per
/// column); applying a map is a binary search per value. Incremental
/// retraining fits the map once per full rebuild and reuses it for every
/// delta window, and the map travels inside persisted artifacts so a warm
/// restart resumes on the same grid.
#[derive(Clone, Debug, PartialEq)]
pub struct BinMap {
    /// `upper_bounds[f][b]` = largest raw value mapped to bin `b` of
    /// feature `f`; the last bound is always `f32::INFINITY`.
    upper_bounds: Vec<Vec<f32>>,
}

impl BinMap {
    /// Fits quantile bin boundaries to a dataset, at most `max_bins` bins
    /// per feature.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins` is 0 or exceeds [`MAX_BINS`].
    pub fn fit(dataset: &Dataset, max_bins: usize) -> Self {
        assert!(
            (1..=MAX_BINS).contains(&max_bins),
            "max_bins must be within 1..=255"
        );
        let upper_bounds = (0..dataset.num_features())
            .map(|f| fit_column(dataset.column(f), max_bins))
            .collect();
        BinMap { upper_bounds }
    }

    /// Number of features the map was fit on.
    pub fn num_features(&self) -> usize {
        self.upper_bounds.len()
    }

    /// Number of bins for feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.upper_bounds[f].len()
    }

    /// Raw-value upper bound of bin `b` of feature `f`.
    pub fn upper_bound(&self, f: usize, b: usize) -> f32 {
        self.upper_bounds[f][b]
    }

    /// Bin index of value `v` under feature `f`'s boundaries: the first
    /// bin whose upper bound is `>= v` (values beyond the fitted range
    /// land in the top bin, whose bound is infinite).
    #[inline]
    pub fn bin(&self, f: usize, v: f32) -> u8 {
        let ub = &self.upper_bounds[f];
        ub.partition_point(|&u| u < v).min(ub.len() - 1) as u8
    }

    /// FNV-1a fingerprint over the exact boundary bit patterns — recorded
    /// in artifact lineage so two models claiming the same frozen grid can
    /// be checked against each other.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&(self.upper_bounds.len() as u64).to_le_bytes());
        for ub in &self.upper_bounds {
            eat(&(ub.len() as u64).to_le_bytes());
            for &v in ub {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

// Manual serde impls: the vendored serde_json writes non-finite floats as
// `null`, so the trailing `f32::INFINITY` sentinel is stripped on write
// (only the finite bounds are stored) and re-appended on read.
impl Serialize for BinMap {
    fn to_value(&self) -> Value {
        let finite: Vec<Vec<f32>> = self
            .upper_bounds
            .iter()
            .map(|ub| ub[..ub.len() - 1].to_vec())
            .collect();
        Value::Map(vec![("finite_bounds".to_string(), finite.to_value())])
    }
}

impl Deserialize for BinMap {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let finite: Vec<Vec<f32>> = Deserialize::from_value(
            v.get("finite_bounds")
                .ok_or_else(|| DeError::msg("missing field `finite_bounds` in BinMap"))?,
        )?;
        let upper_bounds = finite
            .into_iter()
            .map(|mut ub| {
                ub.push(f32::INFINITY);
                ub
            })
            .collect();
        Ok(BinMap { upper_bounds })
    }
}

impl BinnedDataset {
    /// Bins a dataset into at most `max_bins` quantile bins per feature,
    /// fitting fresh boundaries. Equivalent to
    /// `BinnedDataset::from_map(dataset, &BinMap::fit(dataset, max_bins))`.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins` is 0 or exceeds [`MAX_BINS`].
    pub fn build(dataset: &Dataset, max_bins: usize) -> Self {
        Self::from_map(dataset, &BinMap::fit(dataset, max_bins))
    }

    /// Quantizes a dataset against a frozen [`BinMap`] — no quantile
    /// computation, just a binary search per value.
    ///
    /// # Panics
    ///
    /// Panics if the map's feature count differs from the dataset's.
    pub fn from_map(dataset: &Dataset, map: &BinMap) -> Self {
        assert_eq!(
            map.num_features(),
            dataset.num_features(),
            "bin map fit on a different feature count"
        );
        let bins = (0..dataset.num_features())
            .map(|f| {
                dataset
                    .column(f)
                    .iter()
                    .map(|&v| map.bin(f, v))
                    .collect::<Vec<u8>>()
            })
            .collect();
        BinnedDataset {
            bins,
            upper_bounds: map.upper_bounds.clone(),
            num_rows: dataset.num_rows(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.bins.len()
    }

    /// Bin index of feature `f` at row `r`.
    #[inline]
    pub fn bin(&self, f: usize, r: usize) -> u8 {
        self.bins[f][r]
    }

    /// The bin column for feature `f`.
    #[inline]
    pub fn bin_column(&self, f: usize) -> &[u8] {
        &self.bins[f]
    }

    /// Number of distinct bins for feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.upper_bounds[f].len()
    }

    /// Raw-value upper bound of bin `b` of feature `f`: rows with
    /// `value <= bound` fall into bins `0..=b`.
    pub fn upper_bound(&self, f: usize, b: usize) -> f32 {
        self.upper_bounds[f][b]
    }
}

/// Fits quantile boundaries for one column (the expensive half of binning).
fn fit_column(column: &[f32], max_bins: usize) -> Vec<f32> {
    let mut sorted: Vec<f32> = column.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    sorted.dedup();

    // Choose bin boundaries: if few distinct values, one bin per value;
    // otherwise place boundaries at quantiles of the distinct values.
    let bounds: Vec<f32> = if sorted.len() <= max_bins {
        sorted
    } else {
        let mut b = Vec::with_capacity(max_bins);
        for i in 0..max_bins {
            // Upper bound of bin i: distinct value at the (i+1)/max_bins
            // quantile position.
            let idx = ((i + 1) * sorted.len()) / max_bins - 1;
            b.push(sorted[idx]);
        }
        b.dedup();
        b
    };
    // The top bin must catch everything.
    let mut upper_bounds = bounds;
    if let Some(last) = upper_bounds.last_mut() {
        *last = f32::INFINITY;
    }
    upper_bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrips() {
        let d = Dataset::from_rows(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![0.0, 1.0, 0.0],
        )
        .unwrap();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.value(0, 1), 3.0);
        assert_eq!(d.value(1, 2), 6.0);
        assert_eq!(d.row(1), vec![3.0, 4.0]);
        assert_eq!(d.label(1), 1.0);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::RaggedRows {
                expected: 1,
                row: 1,
                got: 2
            }
        );
    }

    #[test]
    fn rejects_label_mismatch_and_empty() {
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0]], vec![]),
            Err(DatasetError::LabelMismatch { .. })
        ));
        assert_eq!(
            Dataset::from_rows(vec![], vec![]).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn rejects_nan() {
        let err = Dataset::from_rows(vec![vec![1.0], vec![f32::NAN]], vec![0.0, 1.0]).unwrap_err();
        assert_eq!(err, DatasetError::NonFiniteValue { row: 1, feature: 0 });
    }

    #[test]
    fn binning_few_distinct_values_gets_one_bin_each() {
        let d =
            Dataset::from_columns(vec![vec![1.0, 2.0, 1.0, 3.0, 2.0, 1.0]], vec![0.0; 6]).unwrap();
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.num_bins(0), 3);
        assert_eq!(b.bin(0, 0), 0); // value 1.0
        assert_eq!(b.bin(0, 1), 1); // value 2.0
        assert_eq!(b.bin(0, 3), 2); // value 3.0
        assert_eq!(b.upper_bound(0, 0), 1.0);
        assert_eq!(b.upper_bound(0, 1), 2.0);
        assert!(b.upper_bound(0, 2).is_infinite());
    }

    #[test]
    fn binning_many_values_respects_max_bins() {
        let col: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let d = Dataset::from_columns(vec![col], vec![0.0; 1000]).unwrap();
        let b = BinnedDataset::build(&d, 16);
        assert!(b.num_bins(0) <= 16);
        // Bins are monotone in the raw value.
        for r in 1..1000 {
            assert!(b.bin(0, r) >= b.bin(0, r - 1));
        }
        // Roughly equal occupancy (quantile binning).
        let mut counts = vec![0usize; b.num_bins(0)];
        for r in 0..1000 {
            counts[b.bin(0, r) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 70, "unbalanced bins: {counts:?}");
    }

    #[test]
    fn binning_constant_column_is_single_bin() {
        let d = Dataset::from_columns(vec![vec![7.0; 10]], vec![0.0; 10]).unwrap();
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.num_bins(0), 1);
        assert!(b.bin_column(0).iter().all(|&x| x == 0));
    }

    #[test]
    fn build_equals_from_map_of_fit() {
        let cols: Vec<Vec<f32>> = (0..4)
            .map(|f| {
                (0..600)
                    .map(|r| ((r * 37 + f * 101) % 251) as f32 * 1.5)
                    .collect()
            })
            .collect();
        let d = Dataset::from_columns(cols, vec![0.0; 600]).unwrap();
        let built = BinnedDataset::build(&d, 32);
        let map = BinMap::fit(&d, 32);
        let mapped = BinnedDataset::from_map(&d, &map);
        for f in 0..d.num_features() {
            assert_eq!(built.bin_column(f), mapped.bin_column(f));
            assert_eq!(built.num_bins(f), map.num_bins(f));
            for b in 0..built.num_bins(f) {
                assert_eq!(
                    built.upper_bound(f, b).to_bits(),
                    map.upper_bound(f, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn frozen_map_quantizes_unseen_values_into_the_grid() {
        let d = Dataset::from_columns(vec![vec![10.0, 20.0, 30.0]], vec![0.0; 3]).unwrap();
        let map = BinMap::fit(&d, 255);
        // Values between / beyond the fitted edges still land in a bin.
        assert_eq!(map.bin(0, -5.0), 0);
        assert_eq!(map.bin(0, 15.0), 1);
        assert_eq!(map.bin(0, 1e9), 2);
        let later = Dataset::from_columns(vec![vec![0.0, 12.0, 25.0, 99.0]], vec![0.0; 4]).unwrap();
        let binned = BinnedDataset::from_map(&later, &map);
        assert_eq!(binned.bin_column(0), &[0, 1, 2, 2]);
    }

    #[test]
    fn bin_map_serde_roundtrip_preserves_infinite_sentinel() {
        let cols: Vec<Vec<f32>> = vec![
            (0..400).map(|r| (r % 97) as f32 * 0.25).collect(),
            vec![7.0; 400], // constant column: single bin, bound = +inf
        ];
        let d = Dataset::from_columns(cols, vec![0.0; 400]).unwrap();
        let map = BinMap::fit(&d, 16);
        let json = serde_json::to_string(&map).unwrap();
        assert!(!json.contains("null"), "non-finite bound leaked: {json}");
        let back: BinMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.fingerprint(), map.fingerprint());
        for f in 0..map.num_features() {
            assert!(back.upper_bound(f, back.num_bins(f) - 1).is_infinite());
        }
    }

    #[test]
    fn fingerprint_separates_different_grids() {
        let a = BinMap::fit(
            &Dataset::from_columns(vec![vec![1.0, 2.0, 3.0]], vec![0.0; 3]).unwrap(),
            255,
        );
        // The top bound always becomes +inf, so the grids must differ in
        // an interior boundary to be distinguishable.
        let b = BinMap::fit(
            &Dataset::from_columns(vec![vec![1.0, 2.5, 3.0]], vec![0.0; 3]).unwrap(),
            255,
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn from_map_rejects_feature_count_mismatch() {
        let d1 = Dataset::from_columns(vec![vec![1.0, 2.0]], vec![0.0; 2]).unwrap();
        let d2 = Dataset::from_columns(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![0.0; 2]).unwrap();
        let map = BinMap::fit(&d1, 255);
        let err = std::panic::catch_unwind(|| BinnedDataset::from_map(&d2, &map));
        assert!(err.is_err());
    }

    #[test]
    fn binning_skewed_column_keeps_resolution_in_the_body() {
        // 990 small values, 10 huge ones: quantile binning must not waste
        // all bins on the tail.
        let mut col: Vec<f32> = (0..990).map(|i| (i % 100) as f32).collect();
        col.extend((0..10).map(|i| 1e9 + i as f32));
        let d = Dataset::from_columns(vec![col], vec![0.0; 1000]).unwrap();
        let b = BinnedDataset::build(&d, 32);
        // The small values must span many bins.
        let small_bins: std::collections::HashSet<u8> = (0..990).map(|r| b.bin(0, r)).collect();
        assert!(small_bins.len() >= 16, "only {} bins", small_bins.len());
    }
}
