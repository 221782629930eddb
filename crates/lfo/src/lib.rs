//! # lfo — Learning From OPT
//!
//! The paper's primary contribution (Berger, "Towards Lightweight and
//! Robust Machine Learning for CDN Caching", HotNets 2018): instead of
//! reinforcement learning with delayed rewards, *compute the offline
//! optimal decisions (OPT) for the recent past and imitate them with a
//! supervised model*.
//!
//! The crate mirrors the paper's structure:
//!
//! - [`features`] (§2.2) — the online feature vector: object size, most
//!   recent retrieval cost, free cache bytes, and the inter-request time
//!   gaps of the last 50 requests to the object (shift-invariant deltas).
//! - [`labels`] — joins feature snapshots with OPT's decisions (from the
//!   `opt` crate) into a training set.
//! - [`train`] (§2.3) — gradient-boosted decision trees (the `gbdt` crate)
//!   with LightGBM-default parameters, iterations lowered to 30.
//! - [`policy`] (§2.4) — the LFO caching policy: admit when the predicted
//!   likelihood that OPT would cache the object is ≥ the cutoff (0.5),
//!   rank residents by predicted likelihood, evict the minimum; re-score
//!   on every hit (so a hit can evict the hit object, as OPT often does).
//! - [`pipeline`] (Fig. 2) — the sliding-window loop: record W\[t\],
//!   compute OPT, train, deploy the model over W\[t+1\].
//! - [`serve`] — the multi-threaded prediction-throughput harness behind
//!   Figure 7.
//! - [`shard`] — the sharded serving layer: hash-partitioned [`LfoCache`]
//!   shards on worker threads, one shared [`ModelSlot`], aggregated
//!   metrics (`repro serve` measures it end to end).
//! - [`faults`] + [`drift`] — the robustness control plane (DESIGN.md §8):
//!   deterministic fault injection, stage supervision with bounded retries
//!   and graceful window-skip degradation, and PSI/holdout rollout gates.
//! - [`persist`] — durable model artifacts (DESIGN.md §10): checksummed
//!   envelope format, atomic [`ArtifactStore`] writes with bounded
//!   retention, and the gated warm-start restore
//!   ([`PipelineConfig::warm_start`]).
//! - [`pops`] — the multi-PoP edge/regional topology and the federated
//!   control plane (DESIGN.md §15): N edge caches missing into a shared
//!   regional tier, trained per-PoP or as shared-grid delta rollouts.
//! - [`guardrail`] — the runtime hybrid learned/LRU layer (DESIGN.md §13):
//!   a ghost-LRU shadow estimator plus a hysteresis state machine that
//!   forces a shard onto LRU whenever the learned policy's realized BHR
//!   falls below `(1−ε)·BHR_LRU − δ`, and re-arms it only after the model
//!   re-proves the bound on shadow-scored decisions.
//! - [`sketchpool`] — the fleet-shared doorkeeper (DESIGN.md §16): one
//!   lock-free CAS-advanced sketch plus a striped GCLOCK ring shared by
//!   every pooled shard (and the guardrail's ghosts), so fleet metadata
//!   scales with the budget instead of budget × shards.
//!
//! ## Quickstart
//!
//! ```
//! use cdn_trace::{GeneratorConfig, TraceGenerator};
//! use lfo::pipeline::{run_pipeline, PipelineConfig};
//!
//! let trace = TraceGenerator::new(GeneratorConfig::small(7, 6_000)).generate();
//! let mut config = PipelineConfig::default();
//! config.window = 2_000;
//! config.cache_size = 4 * 1024 * 1024;
//! let report = run_pipeline(trace.requests(), &config).unwrap();
//! // After the first window LFO runs with a trained model; see the bench
//! // crate for the full figures.
//! assert!(report.windows.len() == 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod drift;
pub mod faults;
pub mod features;
pub mod guardrail;
pub mod hierarchy;
pub mod labels;
pub mod persist;
pub mod pipeline;
pub mod policy;
pub mod pops;
pub mod serve;
pub mod shard;
pub mod sketchpool;
pub mod train;

/// SplitMix64 finalizer (Steele et al.): the crate's one 64-bit mixer.
/// Shard routing, doorkeeper buckets, guardrail sampling, sample-K walks
/// and fault schedules all hash through it. Full avalanche, so
/// consecutive ids spread uniformly.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub use config::{CutoffMode, EvictionStrategy, LfoConfig, PolicyDesign, RetrainConfig};
pub use drift::{DriftError, DriftVerdict, FeatureSketch};
pub use faults::{FaultKind, FaultPlan, FaultPoint};
pub use features::{FeatureTracker, TrackerBudget, TrackerSnapshot, FEATURE_GAPS};
pub use guardrail::{
    lru_reference_bhr, Guardrail, GuardrailConfig, GuardrailMode, GuardrailSnapshot,
};
pub use hierarchy::{Placement, TierSpec, TieredLfoCache};
pub use persist::{
    ArtifactStore, CrashPoint, LfoArtifact, Lineage, LineageKind, PersistError, Provenance,
    StoredValidation, ARTIFACT_VERSION,
};
pub use pipeline::{
    run_pipeline, run_pipeline_serial, AccuracyGate, DeployMode, DriftGate, GateConfig,
    PersistConfig, PipelineConfig, PipelineReport, RestoreReport, RolloutDecision, StageTiming,
    SupervisionConfig, TrainKind, WindowReport,
};
pub use policy::{CompiledArtifact, LfoCache, ModelSlot, SharedOccupancy, FREE_FEATURE};
pub use pops::{
    train_fleet, EdgeSpec, FederationGate, FleetRollout, PopRollout, PopsReport, PopsTopology,
    RolloutPlan, ServedBy,
};
pub use serve::{
    prediction_throughput, prediction_throughput_engine, PredictionServer, ThroughputResult,
};
pub use shard::{
    shard_of, CacheMetrics, ShardMode, ShardParams, ShardReport, ShardStatus, ShardedLfoCache,
};
pub use sketchpool::{SharedDoorkeeper, SketchPoolStats, StripeSlot};
pub use train::{equalize_cutoff, train_window, train_window_continued, TrainedWindow};
