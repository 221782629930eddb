//! Cross-cutting property tests over the whole policy zoo and OPT.
//!
//! For arbitrary small traces and cache sizes:
//! - every policy respects its byte capacity after every request;
//! - hit reporting is consistent with residency;
//! - the flow-based OPT upper-bounds every online policy's hit bytes;
//! - LFO's one serving engine scores every live row bit-equal to the
//!   model's reference walk, for models on and off any bin grid.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use lfo_suite::prelude::*;

use cdn_cache::policies::by_name;
use gbdt::tree::Node;
use gbdt::BinMap;
use lfo::labels::build_training_set;
use lfo::{
    train_window, train_window_continued, FeatureTracker, ModelSlot, RetrainConfig, FREE_FEATURE,
};
use proptest::prelude::*;

const POLICIES: [&str; 14] = [
    "RND",
    "FIFO",
    "LRU",
    "LRU-K",
    "LFU",
    "LFUDA",
    "GDSF",
    "GD-Wheel",
    "S4LRU",
    "AdaptSize",
    "Hyperbolic",
    "LHD",
    "TinyLFU",
    "RLC",
];

fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec((0u64..20, 1u64..200), 1..300).prop_map(|spec| {
        // Sizes must be stable per object: first size seen wins.
        let mut canonical: HashMap<u64, u64> = HashMap::new();
        spec.into_iter()
            .enumerate()
            .map(|(i, (id, size))| {
                let s = *canonical.entry(id).or_insert(size);
                Request::new(i as u64, id + 1, s)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn policies_respect_capacity_and_report_hits_consistently(
        reqs in arb_trace(),
        cache in 1u64..500,
        seed in 0u64..8,
    ) {
        for name in POLICIES {
            let mut policy = by_name(name, cache, seed).expect("known policy");
            for r in &reqs {
                let resident_before = policy.contains(r.object);
                let outcome = policy.handle(r);
                prop_assert_eq!(
                    outcome.is_hit(), resident_before,
                    "{}: hit/contains mismatch", name
                );
                prop_assert!(
                    policy.used() <= policy.capacity(),
                    "{}: {} used > {} capacity", name, policy.used(), policy.capacity()
                );
            }
        }
    }

    #[test]
    fn opt_upper_bounds_every_policy(
        reqs in arb_trace(),
        cache in 50u64..800,
    ) {
        let opt = compute_opt(&reqs, &OptConfig::bhr(cache)).unwrap();
        for name in ["LRU", "GDSF", "S4LRU", "LHD"] {
            let mut policy = by_name(name, cache, 1).expect("known policy");
            let r = simulate(policy.as_mut(), &reqs, &SimConfig::default());
            prop_assert!(
                opt.hit_bytes >= r.measured.hit_bytes,
                "{} beat OPT: {} > {}",
                name, r.measured.hit_bytes, opt.hit_bytes
            );
        }
    }

    #[test]
    fn opt_decisions_never_admit_final_requests(
        reqs in arb_trace(),
        cache in 1u64..500,
    ) {
        let opt = compute_opt(&reqs, &OptConfig::bhr(cache)).unwrap();
        // The last request to each object can never produce a future hit,
        // so OPT never admits it (no bypass arc leaves it).
        let mut last: HashMap<ObjectId, usize> = HashMap::new();
        for (k, r) in reqs.iter().enumerate() {
            last.insert(r.object, k);
        }
        for &k in last.values() {
            prop_assert!(!opt.admit[k], "admitted final request {k}");
        }
    }
}

/// Two serving models plus the grid the first was binned on: a scratch
/// model trained on its own grid, and that model continued by delta trees
/// binned on a second window's fresh grid — so its thresholds lie on no
/// single `BinMap`.
struct EngineFixture {
    models: [Arc<Model>; 2],
    map: BinMap,
}

/// Whether every split threshold of `model` is an upper bound of `map`'s
/// grid for the split's feature.
fn on_grid(model: &Model, map: &BinMap) -> bool {
    model.trees().iter().all(|tree| {
        tree.nodes().iter().all(|node| match node {
            Node::Split {
                feature, threshold, ..
            } => {
                let f = *feature as usize;
                (0..map.num_bins(f)).any(|b| map.upper_bound(f, b) == *threshold)
            }
            Node::Leaf { .. } => true,
        })
    })
}

fn engine_fixture() -> &'static EngineFixture {
    static FIX: OnceLock<EngineFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let trace = TraceGenerator::new(GeneratorConfig::production(11, 4_000)).generate();
        let capacity = TraceStats::from_trace(&trace).cache_size_for_fraction(0.10);
        let config = LfoConfig::default();
        let (first, second) = trace.requests().split_at(2_000);
        let mut tracker = FeatureTracker::new(config.num_gaps, config.cost_model);
        let mut window = |requests: &[Request]| {
            let opt = compute_opt(requests, &OptConfig::bhr(capacity)).unwrap();
            build_training_set(requests, &opt, &mut tracker, capacity)
        };
        let (data_a, data_b) = (window(first), window(second));
        let scratch = train_window(&data_a, &config).model;
        let retrain = RetrainConfig {
            delta_trees: 10,
            full_refresh: 8,
            max_trees: 0,
        };
        let continued = train_window_continued(&scratch, &data_b, &config, &retrain, None).model;
        let map = BinMap::fit(&data_a, config.gbdt.max_bins);
        assert!(on_grid(&scratch, &map));
        assert!(
            !on_grid(&continued, &map)
                && !on_grid(&continued, &BinMap::fit(&data_b, config.gbdt.max_bins)),
            "the continued model must be off every window's grid"
        );
        EngineFixture {
            models: [Arc::new(scratch), Arc::new(continued)],
            map,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_engine_scores_every_live_row_like_the_reference_walk(
        seed in 0u64..1_000,
        cache_pct in 1u64..30,
        scale in 1u64..5,
        which in 0usize..2,
    ) {
        let fix = engine_fixture();
        let model = &fix.models[which];
        let trace = TraceGenerator::new(GeneratorConfig::production(seed, 1_500)).generate();
        let capacity =
            TraceStats::from_trace(&trace).cache_size_for_fraction(cache_pct as f64 / 100.0);
        let drive = |slot: ModelSlot, sample: bool| {
            let mut cache = LfoCache::with_slot(capacity, LfoConfig::default(), slot);
            cache.set_feature_free_scale(scale);
            if sample {
                cache.enable_feature_sampling(1);
            }
            let outcomes: Vec<RequestOutcome> =
                trace.requests().iter().map(|r| cache.handle(r)).collect();
            (outcomes, cache.take_feature_samples())
        };

        let slot = ModelSlot::new();
        slot.publish(Arc::clone(model), 0.5);
        let (outcomes, rows) = drive(slot.clone(), true);
        prop_assert_eq!(rows.len(), trace.requests().len());
        let engine = slot
            .pruned_for(FREE_FEATURE, (capacity * scale) as f64)
            .expect("a published model compiles an engine");
        let mut bins = Vec::new();
        for row in &rows {
            engine.encode_row_into(row, &mut bins);
            prop_assert_eq!(
                engine.predict_proba_binned(&bins).to_bits(),
                model.predict_proba(row).to_bits()
            );
        }

        let gridded = ModelSlot::new();
        gridded.publish_compiled(Arc::clone(model), 0.5, Some(&fix.map));
        prop_assert_eq!(drive(gridded, false).0, outcomes);
    }
}
