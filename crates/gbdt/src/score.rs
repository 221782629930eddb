//! One batched scoring entry point shared by every serving engine.
//!
//! Before this module, the fixed-size batch-scoring loop was duplicated
//! across the serving benchmark and the training pipeline's prediction
//! helper, each packing rows and chunking them by hand. [`PackedScorer`]
//! owns both jobs: it packs a row set once into the engine's native layout
//! (`f32` rows for the recursive and flat walks, u16 bins for the quantized
//! engines) and exposes one range-scoring call, so adding the quantized
//! kernel meant one new match arm instead of a third copy of the loop.
//! Every engine compiles from the model alone, so packing cannot fail.

use crate::boosting::Model;
use crate::flat::FlatModel;
use crate::quantized::{Predicate, QuantizedModel};

/// Rows scored per batch by [`PackedScorer::score_all`] and the serving
/// throughput harness: large enough to amortize per-batch overhead, small
/// enough that outputs stay in L1.
pub const BATCH_ROWS: usize = 512;

/// The inference engines a model can serve through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-row recursive walk over the training-side node arenas.
    Recursive,
    /// Flat SoA walk with f32 compares ([`FlatModel`]).
    Flat,
    /// Quantized integer-compare kernel ([`QuantizedModel`]).
    Quantized,
    /// Quantized kernel specialized by [`Predicate`] invariants before
    /// serving ([`QuantizedModel::prune`]).
    QuantizedPruned,
}

impl EngineKind {
    /// All engines, in cost order (slowest first).
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Recursive,
        EngineKind::Flat,
        EngineKind::Quantized,
        EngineKind::QuantizedPruned,
    ];

    /// Stable label used in benchmark tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Recursive => "recursive",
            EngineKind::Flat => "flat",
            EngineKind::Quantized => "quantized",
            EngineKind::QuantizedPruned => "quantized+pruned",
        }
    }
}

/// A model compiled for one engine, with a row set packed in that engine's
/// native layout. Shareable across scoring threads (`&self` scoring only).
pub struct PackedScorer<'m> {
    engine: EngineKind,
    num_rows: usize,
    repr: Repr<'m>,
}

enum Repr<'m> {
    Recursive {
        model: &'m Model,
        rows: Vec<f32>,
        stride: usize,
    },
    Flat {
        flat: FlatModel,
        rows: Vec<f32>,
        stride: usize,
    },
    Quantized {
        quant: Box<QuantizedModel>,
        bins: Vec<u16>,
        stride: usize,
    },
}

impl<'m> PackedScorer<'m> {
    /// Packs `rows` for `engine`. Short rows are padded with `+inf`
    /// (missing ≡ right branch, the walk convention); quantized engines
    /// encode to u16 bins once, here, so the scoring loop never touches
    /// floats. `predicates` specialize [`EngineKind::QuantizedPruned`] only.
    pub fn pack(
        model: &'m Model,
        engine: EngineKind,
        rows: &[Vec<f32>],
        predicates: &[Predicate],
    ) -> Self {
        let stride = model.num_features();
        let pack_f32 = || {
            let mut packed = Vec::with_capacity(rows.len() * stride);
            for row in rows {
                packed.extend(row.iter().copied().take(stride));
                for _ in row.len()..stride {
                    packed.push(f32::INFINITY);
                }
            }
            packed
        };
        let repr = match engine {
            EngineKind::Recursive => Repr::Recursive {
                model,
                rows: pack_f32(),
                stride,
            },
            EngineKind::Flat => Repr::Flat {
                flat: model.flatten(),
                rows: pack_f32(),
                stride,
            },
            EngineKind::Quantized | EngineKind::QuantizedPruned => {
                let mut quant = model.quantize();
                if engine == EngineKind::QuantizedPruned {
                    quant = quant.prune(predicates);
                }
                let stride = quant.encoded_width();
                let bins = quant.encode_rows(rows);
                Repr::Quantized {
                    quant: Box::new(quant),
                    bins,
                    stride,
                }
            }
        };
        PackedScorer {
            engine,
            num_rows: rows.len(),
            repr,
        }
    }

    /// The engine this scorer was packed for.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Number of packed rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Scores rows `lo..hi`, writing one probability per row into `out`
    /// (`out.len() == hi - lo`). The single call site every engine's batch
    /// loop goes through.
    ///
    /// # Panics
    ///
    /// Panics if `hi > num_rows`, `lo > hi`, or `out.len() != hi - lo`.
    pub fn score_range(&self, lo: usize, hi: usize, out: &mut [f64]) {
        assert!(lo <= hi && hi <= self.num_rows, "row range out of bounds");
        assert_eq!(out.len(), hi - lo, "output length must match row range");
        match &self.repr {
            Repr::Recursive {
                model,
                rows,
                stride,
            } => {
                for (r, slot) in (lo..hi).zip(out.iter_mut()) {
                    *slot = model.predict_proba(&rows[r * stride..(r + 1) * stride]);
                }
            }
            Repr::Flat { flat, rows, stride } => {
                flat.predict_proba_batch(&rows[lo * stride..hi * stride], out);
            }
            Repr::Quantized {
                quant,
                bins,
                stride,
            } => {
                quant.predict_proba_binned_batch(&bins[lo * stride..hi * stride], out);
            }
        }
    }

    /// Scores every packed row in [`BATCH_ROWS`]-sized batches.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_rows`.
    pub fn score_all(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_rows, "one output slot per row");
        let mut lo = 0usize;
        while lo < self.num_rows {
            let hi = (lo + BATCH_ROWS).min(self.num_rows);
            self.score_range(lo, hi, &mut out[lo..hi]);
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, Dataset, GbdtParams};

    fn fixture() -> (Vec<Vec<f32>>, Model) {
        let rows: Vec<Vec<f32>> = (0..600)
            .map(|r| {
                (0..3)
                    .map(|c| ((r * 37 + c * 101) % 251) as f32 * 1.5)
                    .collect()
            })
            .collect();
        let labels: Vec<f32> = rows.iter().map(|r| (r[0] < r[1]) as u8 as f32).collect();
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let model = train(&data, &GbdtParams::lfo_paper());
        (rows, model)
    }

    #[test]
    fn all_engines_agree_bit_for_bit() {
        let (rows, model) = fixture();
        let mut reference = vec![0.0f64; rows.len()];
        let flat = PackedScorer::pack(&model, EngineKind::Flat, &rows, &[]);
        flat.score_all(&mut reference);
        for engine in EngineKind::ALL {
            let scorer = PackedScorer::pack(&model, engine, &rows, &[]);
            assert_eq!(scorer.engine(), engine);
            assert_eq!(scorer.num_rows(), rows.len());
            let mut out = vec![0.0f64; rows.len()];
            scorer.score_all(&mut out);
            for (r, (got, want)) in out.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "engine {} row {r}",
                    engine.label()
                );
            }
        }
    }

    #[test]
    fn score_range_matches_score_all() {
        let (rows, model) = fixture();
        let scorer = PackedScorer::pack(&model, EngineKind::Quantized, &rows, &[]);
        let mut all = vec![0.0f64; rows.len()];
        scorer.score_all(&mut all);
        let mut part = vec![0.0f64; 100];
        scorer.score_range(250, 350, &mut part);
        for (got, want) in part.iter().zip(&all[250..350]) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
