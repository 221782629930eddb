//! Integration tests for incremental warm-start retraining (DESIGN.md §11):
//! the refresh cadence, the ensemble cap, the gate-rejection scratch
//! fallback, bit-identity of the disabled path, and incremental resume
//! across a warm restart — plus the federated multi-PoP rollout built on
//! the same machinery (DESIGN.md §15): shared-grid delta trees per PoP,
//! and per-PoP scratch fallback that never stalls the rest of the fleet.
//!
//! As in `pipeline_faults.rs`, the `slot_version` assertions are the
//! load-bearing ones: a frozen version across a window boundary proves a
//! rejected candidate was never published to the serving path.

use std::path::PathBuf;

use cdn_trace::{GeneratorConfig, TraceGenerator, TraceStats};
use lfo::{
    run_pipeline, run_pipeline_serial, AccuracyGate, GateConfig, PersistConfig, PipelineConfig,
    RetrainConfig, RolloutDecision, TrainKind,
};

fn production_config(
    window: usize,
    trace_seed: u64,
    n: u64,
) -> (Vec<cdn_trace::Request>, PipelineConfig) {
    let trace = TraceGenerator::new(GeneratorConfig::production(trace_seed, n)).generate();
    let cache_size = TraceStats::from_trace(&trace).cache_size_for_fraction(0.10);
    let config = PipelineConfig {
        window,
        cache_size,
        ..Default::default()
    };
    (trace.requests().to_vec(), config)
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lfo-retrain-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disabled_retrain_is_bit_identical_to_the_serial_reference() {
    // `full_refresh == 1` means every window is a full rebuild, regardless
    // of the other knobs — the staged pipeline must reproduce the serial
    // scratch reference bit for bit at any thread count.
    let (requests, mut config) = production_config(3_000, 101, 12_000);
    config.threads = 3;
    config.opt_segment = 700;
    config.retrain = RetrainConfig {
        delta_trees: 7, // ignored: full_refresh == 1 forces scratch
        full_refresh: 1,
        max_trees: 40,
    };
    let serial = run_pipeline_serial(&requests, &config).unwrap();
    let staged = run_pipeline(&requests, &config).unwrap();

    assert_eq!(serial.windows.len(), staged.windows.len());
    for (s, p) in serial.windows.iter().zip(&staged.windows) {
        assert_eq!(s.live.hits, p.live.hits, "window {}", s.index);
        assert_eq!(s.live.hit_bytes, p.live.hit_bytes, "window {}", s.index);
        assert_eq!(
            s.prediction_error.map(f64::to_bits),
            p.prediction_error.map(f64::to_bits),
            "window {}",
            s.index
        );
        assert_eq!(
            s.train_accuracy.map(f64::to_bits),
            p.train_accuracy.map(f64::to_bits)
        );
        assert_eq!(p.train_kind, TrainKind::Scratch, "window {}", p.index);
        assert_eq!(s.model_trees, p.model_trees);
    }
    assert_eq!(serial.live_total.hit_bytes, staged.live_total.hit_bytes);
}

#[test]
fn incremental_schedule_follows_the_refresh_cadence_and_cap() {
    // delta 5 on a 30-tree full rebuild, refresh every 4th deploy, capped
    // at 40 trees: 30 → 35 → 40 → 40 → full refresh (30) → 35.
    let (requests, mut config) = production_config(2_000, 102, 12_000);
    config.retrain = RetrainConfig {
        delta_trees: 5,
        full_refresh: 4,
        max_trees: 40,
    };
    let report = run_pipeline(&requests, &config).unwrap();

    assert_eq!(report.windows.len(), 6);
    let kinds: Vec<TrainKind> = report.windows.iter().map(|w| w.train_kind).collect();
    assert_eq!(
        kinds,
        vec![
            TrainKind::Scratch,
            TrainKind::Incremental,
            TrainKind::Incremental,
            TrainKind::Incremental,
            TrainKind::Scratch,
            TrainKind::Incremental,
        ]
    );
    let trees: Vec<Option<usize>> = report.windows.iter().map(|w| w.model_trees).collect();
    assert_eq!(
        trees,
        vec![Some(30), Some(35), Some(40), Some(40), Some(30), Some(35)]
    );
    // Gates are off and no faults are injected: every window deploys, so
    // incremental windows are real rollouts, not silent skips.
    for w in &report.windows {
        assert_eq!(w.rollout, RolloutDecision::Deployed, "window {}", w.index);
        assert!(w.train_accuracy.unwrap() > 0.5, "window {}", w.index);
    }
    assert!(report.final_model.is_some());
}

#[test]
fn gate_rejected_incremental_falls_back_to_scratch_not_a_stale_slot() {
    // An accuracy gate with margin -2.0 rejects every gated candidate
    // (accuracy - 2 < reference always holds). Window 0 deploys (no
    // incumbent to gate against); from window 1 on, the incremental
    // candidate is rejected, the pipeline retrains from scratch on the
    // same window (the fallback), the fallback is gated head-to-head and
    // rejected too — and the slot provably never moves.
    let (requests, mut config) = production_config(2_000, 103, 8_000);
    config.gates = GateConfig {
        accuracy: Some(AccuracyGate {
            margin: -2.0,
            ..AccuracyGate::default()
        }),
        drift: None,
    };
    config.retrain = RetrainConfig {
        delta_trees: 5,
        full_refresh: 8,
        max_trees: 0,
    };
    let report = run_pipeline(&requests, &config).unwrap();

    assert_eq!(report.windows.len(), 4);
    assert_eq!(report.windows[0].train_kind, TrainKind::Scratch);
    assert_eq!(report.windows[0].rollout, RolloutDecision::Deployed);
    let deployed_version = report.windows[1].slot_version;
    for w in &report.windows[1..] {
        assert_eq!(
            w.train_kind,
            TrainKind::ScratchFallback,
            "window {}: the rejected incremental candidate must be retried \
             from scratch, not dropped",
            w.index
        );
        assert_eq!(w.rollout, RolloutDecision::RejectedAccuracy);
        // The fallback is a full rebuild: full iteration count, gated with
        // both sides of the comparison recorded.
        assert_eq!(w.model_trees, Some(30));
        assert!(w.holdout_accuracy.is_some());
        assert!(w.incumbent_accuracy.is_some());
        assert_eq!(
            w.slot_version, deployed_version,
            "window {}: a rejected fallback must leave the slot untouched",
            w.index
        );
    }
    assert_eq!(report.degraded_windows(), 3);
}

#[test]
fn warm_restart_resumes_incrementally_from_the_artifact() {
    // The seeding run persists its frozen bin map and lineage; the
    // restarted run restores the incumbent *and* the grid, so its very
    // first window trains a delta instead of paying a full rebuild.
    let (requests, mut config) = production_config(2_000, 104, 12_000);
    let dir = store_dir("resume");
    let retrain = RetrainConfig {
        delta_trees: 5,
        full_refresh: 4,
        max_trees: 40,
    };
    config.retrain = retrain;
    config.persist = Some(PersistConfig::new(&dir).with_trace_id("retrain-resume"));
    let seeded = run_pipeline(&requests, &config).unwrap();
    // Final seeded window: the post-refresh delta (30 + 5 trees).
    assert_eq!(seeded.windows[5].train_kind, TrainKind::Incremental);
    assert_eq!(seeded.windows[5].model_trees, Some(35));

    let mut warm = production_config(2_000, 104, 12_000).1;
    warm.retrain = retrain;
    warm.warm_start = Some(dir.clone());
    let restarted = run_pipeline(&requests, &warm).unwrap();

    assert!(restarted.restore.as_ref().unwrap().restored());
    assert!(restarted.windows[0].had_model);
    let first = &restarted.windows[0];
    assert_eq!(
        first.train_kind,
        TrainKind::Incremental,
        "a warm restart with a stored bin map must resume incrementally"
    );
    // 35 restored trees + 5 delta trees, within the 40-tree cap.
    assert_eq!(first.model_trees, Some(40));
    assert_eq!(first.rollout, RolloutDecision::Deployed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One labeled training window per PoP over a skewed multi-PoP trace —
/// the control plane's input, built with the standard OPT-labeling
/// recipe.
fn fleet_windows(num_pops: usize, n: u64, cache: u64) -> Vec<gbdt::Dataset> {
    let mut pops = cdn_trace::PopTraceConfig::production(211, num_pops, n);
    pops.overlap = 0.8;
    pops.skew = 0.3;
    let merged = cdn_trace::PopTraceGenerator::new(pops).generate();
    let per_pop = cdn_trace::split_by_pop(&merged, num_pops);
    let lfo_config = lfo::LfoConfig::default();
    per_pop
        .iter()
        .map(|reqs| {
            let opt = opt::compute_opt(reqs, &opt::OptConfig::bhr(cache)).unwrap();
            let mut tracker = lfo::FeatureTracker::new(lfo_config.num_gaps, lfo_config.cost_model);
            lfo::labels::build_training_set(reqs, &opt, &mut tracker, cache)
        })
        .collect()
}

#[test]
fn federated_delta_rollouts_share_the_base_grid_fingerprint() {
    use lfo::pops::{FederationGate, RolloutPlan};

    let windows = fleet_windows(3, 2_500, 2 * 1024 * 1024);
    let config = lfo::LfoConfig::default();
    let gate = FederationGate {
        min_holdout_accuracy: 0.0, // fingerprint sharing is the subject here
        ..FederationGate::default()
    };
    let fleet = lfo::pops::train_fleet(
        &windows,
        &config,
        &RolloutPlan::Federated {
            retrain: RetrainConfig {
                delta_trees: 6,
                full_refresh: 8,
                max_trees: 60,
            },
        },
        &gate,
    );

    let fingerprint = fleet
        .base_fingerprint
        .as_deref()
        .expect("federated rollout records the shared grid fingerprint");
    for rollout in &fleet.rollouts {
        assert_eq!(rollout.kind, TrainKind::Incremental, "pop {}", rollout.pop);
        assert_eq!(
            rollout.lineage.bin_map_fingerprint.as_deref(),
            Some(fingerprint),
            "pop {}: delta trees must be binned on the base model's grid",
            rollout.pop
        );
        // The fingerprint is load-bearing: a warm restart resumes delta
        // training on the stored grid, so a persisted delta artifact must
        // come back with the grid its lineage vouches for.
        let artifact = rollout.artifact(
            config.clone(),
            "retrain-federation",
            0,
            fleet.bin_map.as_ref(),
        );
        assert_eq!(artifact.provenance.pop, Some(rollout.pop));
        let restored = lfo::LfoArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap();
        let restored_map = restored
            .bin_map
            .as_ref()
            .expect("restored delta artifact carries its grid");
        assert_eq!(
            Some(format!("{:016x}", restored_map.fingerprint())).as_deref(),
            restored
                .provenance
                .lineage
                .as_ref()
                .and_then(|l| l.bin_map_fingerprint.as_deref()),
            "pop {}: restored grid must match its lineage fingerprint",
            rollout.pop
        );
    }
}

#[test]
fn rejected_pop_falls_back_to_scratch_without_stalling_the_fleet() {
    use lfo::pops::{EdgeSpec, FederationGate, PopsTopology, RolloutPlan};

    let windows = fleet_windows(3, 2_000, 2 * 1024 * 1024);
    let config = lfo::LfoConfig::default();
    // The deterministic rejection hook (the `lfo::faults` pattern): PoP 1's
    // delta candidate fails the gate unconditionally.
    let gate = FederationGate {
        min_holdout_accuracy: 0.0,
        force_reject: vec![1],
        ..FederationGate::default()
    };
    let fleet = lfo::pops::train_fleet(
        &windows,
        &config,
        &RolloutPlan::Federated {
            retrain: RetrainConfig {
                delta_trees: 6,
                full_refresh: 8,
                max_trees: 60,
            },
        },
        &gate,
    );

    // The rejected PoP degrades to a scratch model of its own...
    assert_eq!(fleet.rollouts[1].kind, TrainKind::ScratchFallback);
    assert_eq!(fleet.rollouts[1].lineage.bin_map_fingerprint, None);
    // ...while the other PoPs' delta rollouts proceed untouched.
    for pop in [0, 2] {
        assert_eq!(
            fleet.rollouts[pop].kind,
            TrainKind::Incremental,
            "pop {pop}"
        );
        assert_eq!(
            fleet.rollouts[pop].lineage.bin_map_fingerprint.as_deref(),
            fleet.base_fingerprint.as_deref(),
            "pop {pop}"
        );
    }

    // Publication is per-PoP: every edge slot moves exactly once — the
    // rejected PoP rolls out its fallback, nobody is left model-less.
    let spec = EdgeSpec {
        capacity: 512 * 1024,
        config: config.clone(),
    };
    let topology = PopsTopology::new(&[spec.clone(), spec.clone(), spec], 2 * 1024 * 1024, config);
    let before: Vec<u64> = (0..3).map(|p| topology.edge_slot(p).version()).collect();
    fleet.publish_to(&topology);
    for (pop, &prev) in before.iter().enumerate() {
        assert!(topology.edge_slot(pop).has_model(), "pop {pop}");
        assert!(
            topology.edge_slot(pop).version() > prev,
            "pop {pop}: publication must advance the slot"
        );
    }
}
