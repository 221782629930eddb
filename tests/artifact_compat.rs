//! Backward-compatibility contract for the artifact format: a fixture
//! saved by *this* version of the code is committed to the repo, and every
//! future build must keep loading it and reproducing its pinned
//! predictions. Breaking either is an [`ARTIFACT_VERSION`] event — bump
//! the version and regenerate, don't silently re-interpret old bytes.
//!
//! Regenerate (after a deliberate format change) with:
//!
//! ```sh
//! LFO_REGEN_GOLDEN=1 cargo test -p lfo --test artifact_compat
//! ```

use cdn_trace::Request;
use gbdt::{train, BinMap, Dataset, FlatModel};
use lfo::{
    EvictionStrategy, LfoArtifact, LfoConfig, ModelSlot, Provenance, StoredValidation,
    TrackerBudget, ARTIFACT_VERSION,
};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn artifact_path() -> PathBuf {
    fixture_dir().join(format!("golden-artifact-v{ARTIFACT_VERSION}.json"))
}

fn predictions_path() -> PathBuf {
    fixture_dir().join(format!("golden-predictions-v{ARTIFACT_VERSION}.json"))
}

/// Deterministic probe rows (fixed recurrence, no RNG dependency): the
/// rows the golden predictions are pinned on.
fn probe_rows(num_features: usize) -> Vec<Vec<f32>> {
    (0..32)
        .map(|r| {
            (0..num_features)
                .map(|c| ((r * 31 + c * 17 + 7) % 997) as f32 * 4.25)
                .collect()
        })
        .collect()
}

/// The golden artifact recipe. Everything is pinned — data, seed, single
/// thread — so regeneration on any machine produces the same model.
fn golden_artifact() -> LfoArtifact {
    let mut config = LfoConfig {
        num_gaps: 5,
        cutoff: 0.5,
        ..LfoConfig::default()
    };
    config.gbdt.num_iterations = 6;
    config.gbdt.num_leaves = 8;
    config.gbdt.seed = 42;
    config.gbdt.num_threads = 1;

    let width = config.num_features();
    let rows: Vec<Vec<f32>> = (0..240)
        .map(|r| {
            (0..width)
                .map(|c| ((r * 13 + c * 29 + 3) % 503) as f32 * 8.5)
                .collect()
        })
        .collect();
    let labels: Vec<f32> = rows
        .iter()
        .map(|row| (row[0] < row[1]) as u8 as f32)
        .collect();
    let data = Dataset::from_rows(rows, labels).unwrap();
    let model = train(&data, &config.gbdt);

    let sample: Vec<Vec<f32>> = (0..4).map(|r| data.row(r)).collect();
    LfoArtifact::new(
        config,
        model,
        0.5,
        Provenance {
            trace_id: "golden-fixture".into(),
            window: 3,
            slot_version: 4,
            note: "committed compatibility fixture; see artifact_compat.rs".into(),
            lineage: None,
            pop: None,
        },
    )
    .with_validation(StoredValidation {
        train_sample: sample.clone(),
        holdout_rows: sample,
        holdout_labels: vec![0.0, 1.0, 0.0, 1.0],
        holdout_accuracy: 0.75,
    })
}

#[test]
fn golden_artifact_still_loads_with_pinned_predictions() {
    if std::env::var("LFO_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        let artifact = golden_artifact();
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).unwrap();
        std::fs::write(artifact_path(), bytes).unwrap();
        let preds: Vec<f64> = probe_rows(artifact.config.num_features())
            .iter()
            .map(|row| artifact.model.predict_proba(row))
            .collect();
        std::fs::write(
            predictions_path(),
            serde_json::to_string_pretty(&preds).unwrap(),
        )
        .unwrap();
        eprintln!("regenerated {}", artifact_path().display());
        return;
    }

    let artifact = LfoArtifact::load_file(&artifact_path()).unwrap_or_else(|e| {
        panic!(
            "golden v{ARTIFACT_VERSION} artifact no longer parses ({e}). If the \
             format changed on purpose, bump ARTIFACT_VERSION and regenerate \
             with LFO_REGEN_GOLDEN=1."
        )
    });
    assert_eq!(artifact.provenance.trace_id, "golden-fixture");
    assert_eq!(artifact.provenance.window, 3);
    assert_eq!(artifact.deployed_cutoff, 0.5);
    assert_eq!(artifact.validation.holdout_accuracy, 0.75);

    let expected: Vec<f64> =
        serde_json::from_str(&std::fs::read_to_string(predictions_path()).unwrap()).unwrap();
    let rows = probe_rows(artifact.config.num_features());
    assert_eq!(expected.len(), rows.len());
    let flat = FlatModel::from(&artifact.model);
    for (row, want) in rows.iter().zip(&expected) {
        let got = artifact.model.predict_proba(row);
        assert!(
            (got - want).abs() <= 1e-9,
            "pinned prediction drifted: got {got}, fixture says {want}"
        );
        let got_flat = flat.predict_proba(row);
        assert!(
            (got_flat - want).abs() <= 1e-9,
            "flat scorer drifted from pinned prediction: {got_flat} vs {want}"
        );
    }
}

/// The committed fixture must match what today's recipe produces — i.e.
/// the recipe itself is stable, so a prediction drift in the test above
/// points at the *format*, not at the generator.
#[test]
fn golden_recipe_is_deterministic() {
    let a = golden_artifact();
    let b = golden_artifact();
    assert_eq!(a.model, b.model);
}

/// v2 artifacts written before bin maps existed carry no grid at all.
/// Publishing one compiles the serving engine from the model's own split
/// thresholds, and that engine reproduces the pinned golden predictions
/// bit for bit on the probe rows.
#[test]
fn pre_bin_map_golden_artifact_publishes_a_bit_equal_compiled_engine() {
    if std::env::var("LFO_REGEN_GOLDEN").is_ok() {
        return; // regeneration run; the loading test writes the fixture
    }
    let artifact = LfoArtifact::load_file(&artifact_path()).unwrap();
    assert!(
        artifact.bin_map.is_none(),
        "golden fixture predates bin maps"
    );

    let slot = ModelSlot::new();
    artifact.publish_to(&slot);
    let quant = slot
        .compiled()
        .expect("publish installs an artifact")
        .quantized
        .clone();
    let expected: Vec<f64> =
        serde_json::from_str(&std::fs::read_to_string(predictions_path()).unwrap()).unwrap();
    let mut bins = Vec::new();
    for (row, want) in probe_rows(artifact.config.num_features())
        .iter()
        .zip(&expected)
    {
        quant.encode_row_into(row, &mut bins);
        assert_eq!(quant.predict_proba_binned(&bins).to_bits(), want.to_bits());
    }
}

/// Artifacts written before tracker budgets and sampled eviction existed
/// (the committed golden fixture) must keep loading with those config keys
/// absent — deserializing to the exact-tracker/exact-queue defaults — and
/// the exact tracker snapshot such an artifact carries must warm-start a
/// budget-bounded cache with its hottest histories (DESIGN.md §14).
#[test]
fn pre_bounded_artifact_warm_starts_a_bounded_tracker() {
    if std::env::var("LFO_REGEN_GOLDEN").is_ok() {
        return; // regeneration run; the loading test writes the fixture
    }
    let mut artifact = LfoArtifact::load_file(&artifact_path()).unwrap();
    assert!(
        artifact.config.tracker_budget.is_none(),
        "golden fixture predates tracker budgets"
    );
    assert!(
        artifact.config.eviction.is_none(),
        "golden fixture predates sampled eviction"
    );
    assert_eq!(artifact.config.budget(), TrackerBudget::default());
    assert_eq!(
        artifact.config.eviction_strategy(),
        EvictionStrategy::ExactQueue
    );

    // Record history into the exact tracker this config describes and
    // snapshot it into the artifact — the form a pre-budget pipeline
    // persisted. Then deploy under a bounded budget: the snapshot's
    // hottest objects must come back with their exact gap vectors.
    let mut exact = artifact.config.tracker();
    for t in 0..200u64 {
        exact.record(&Request::new(t, t % 20, 64));
    }
    artifact.tracker = exact.snapshot(usize::MAX);
    artifact.config.tracker_budget = Some(TrackerBudget::capped(6));
    artifact.config.eviction = Some(EvictionStrategy::sample(8));
    let cache = artifact.into_cache(1 << 20);
    assert_eq!(cache.tracker().tracked_objects(), 6);
    assert_eq!(cache.eviction_label(), "sample8");
    // Object 19 was touched last, so it survives the budget cut.
    let probe = Request::new(500, 19, 64);
    assert_eq!(
        cache.tracker().features(&probe, 0),
        exact.features(&probe, 0)
    );
}

/// A legacy artifact that *has* a bin map but whose lineage never recorded
/// the map's fingerprint (a map grafted on by direct field assignment), and
/// the same map attached through `with_bin_map`, both publish the engine
/// the bare model compiles to: the map serves warm-start retraining only.
#[test]
fn grafted_bin_map_leaves_the_compiled_engine_unchanged() {
    let mut grafted = golden_artifact();
    let data = Dataset::from_rows(
        (0..60)
            .map(|r| {
                (0..grafted.config.num_features())
                    .map(|c| ((r * 19 + c * 23) % 211) as f32 * 2.0)
                    .collect()
            })
            .collect(),
        vec![0.0; 60],
    )
    .unwrap();
    grafted.bin_map = Some(BinMap::fit(&data, grafted.config.gbdt.max_bins));
    assert!(grafted.provenance.lineage.is_none());
    let stamped = golden_artifact().with_bin_map(grafted.bin_map.clone());

    let rows = probe_rows(grafted.config.num_features());
    for artifact in [&grafted, &stamped] {
        let slot = ModelSlot::new();
        artifact.publish_to(&slot);
        let quant = slot.compiled().unwrap().quantized.clone();
        let mut bins = Vec::new();
        for row in &rows {
            quant.encode_row_into(row, &mut bins);
            assert_eq!(
                quant.predict_proba_binned(&bins).to_bits(),
                artifact.model.predict_proba(row).to_bits()
            );
        }
    }
}
