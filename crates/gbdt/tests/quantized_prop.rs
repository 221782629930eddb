//! Property tests for the quantized serving engine's equivalence contract:
//!
//! - compiled from the model's own split thresholds, quantized inference
//!   is **bit-equal** to the flat f32 walk on arbitrary rows (including
//!   NaN, ±inf, and values far outside the training distribution);
//! - predicate pruning is score-preserving on every row that satisfies the
//!   predicate.

use std::sync::OnceLock;

use gbdt::{train, Dataset, FlatModel, GbdtParams, Predicate, QuantizedModel};
use proptest::prelude::*;

struct Fixture {
    flat: FlatModel,
    /// The compiled engine.
    quant: QuantizedModel,
    /// The engine specialized to `features[0] ∈ [0, 400]`.
    pruned: QuantizedModel,
}

const NUM_FEATURES: usize = 4;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let rows: Vec<Vec<f32>> = (0..800)
            .map(|r| {
                (0..NUM_FEATURES)
                    .map(|c| ((r * 37 + c * 101) % 509) as f32 * 0.75)
                    .collect()
            })
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| (r[0] + r[1] < r[2] + r[3]) as u8 as f32)
            .collect();
        let data = Dataset::from_rows(rows, labels).unwrap();
        let model = train(&data, &GbdtParams::lfo_paper());
        let quant = model.quantize();
        let pruned = quant.prune(&[Predicate::range(0, 0.0, 400.0)]);
        Fixture {
            flat: model.flatten(),
            quant,
            pruned,
        }
    })
}

/// One feature value: mostly finite (well beyond the training range on both
/// sides), with occasional NaN / ±inf to exercise the missing-value path.
fn arb_feature() -> impl Strategy<Value = f32> {
    (0u8..11, -500.0f32..3_000.0f32).prop_map(|(kind, finite)| match kind {
        8 => f32::NAN,
        9 => f32::INFINITY,
        10 => f32::NEG_INFINITY,
        _ => finite,
    })
}

fn arb_row() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_feature(), NUM_FEATURES)
}

/// A row satisfying the fixture's pruning predicate: feature 0 in range,
/// the rest arbitrary (the predicate constrains only feature 0).
fn arb_predicate_row() -> impl Strategy<Value = Vec<f32>> {
    (
        0.0f32..=400.0f32,
        proptest::collection::vec(arb_feature(), NUM_FEATURES - 1),
    )
        .prop_map(|(first, rest)| {
            let mut row = vec![first];
            row.extend(rest);
            row
        })
}

fn score_binned(quant: &QuantizedModel, row: &[f32]) -> f64 {
    let mut bins = Vec::new();
    quant.encode_row_into(row, &mut bins);
    quant.predict_proba_binned(&bins)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_engine_is_bit_equal_to_the_flat_walk_on_arbitrary_rows(row in arb_row()) {
        let f = fixture();
        let want = f.flat.predict_proba(&row);
        let got = score_binned(&f.quant, &row);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn pruning_preserves_scores_on_predicate_satisfying_rows(row in arb_predicate_row()) {
        let f = fixture();
        let full = score_binned(&f.quant, &row);
        let pruned = score_binned(&f.pruned, &row);
        prop_assert_eq!(pruned.to_bits(), full.to_bits());
    }
}
