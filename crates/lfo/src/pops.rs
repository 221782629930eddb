//! Multi-PoP edge/regional topology with a federated control plane
//! (DESIGN.md §15).
//!
//! The ROADMAP north-star is "millions of users across geographies", and
//! real CDN deployments reach it with a two-tier topology: many edge PoPs
//! (points of presence) close to users, each with its own cache size and
//! traffic mix, missing into a shared regional mid-tier cache that
//! shields the origin. This module provides both halves:
//!
//! - [`PopsTopology`] — the data plane: N edge [`LfoCache`]s, one shared
//!   regional [`LfoCache`]; a request hits its PoP's edge cache first,
//!   edge misses flow to the regional tier, regional misses go to the
//!   origin. Per-tier [`CacheMetrics`] plus origin counters roll up into
//!   a [`PopsReport`] (origin offload, aggregate BHR).
//! - [`train_fleet`] — the control plane: one call trains admission
//!   models for the whole edge fleet under a [`RolloutPlan`]. `PerPop`
//!   trains every PoP from scratch on its own window. `Federated` reuses
//!   the PR 5 incremental machinery to make fleet training cheap: one
//!   scratch *base* model on the pooled fleet window plus a frozen
//!   [`BinMap`] grid, then per-PoP *delta trees* continued from the base
//!   on the shared grid ([`crate::train::train_window_continued`]), so
//!   each PoP pays delta-tree cost instead of full scratch cost while
//!   still specializing to its local mix.
//!
//! Every per-PoP delta rollout carries the base grid's fingerprint in its
//! [`Lineage`], exactly like single-cache incremental artifacts, so a warm
//! restart resumes delta training on the same grid. A PoP whose delta
//! candidate fails the [`FederationGate`] falls back to a
//! scratch model for that PoP alone; the other PoPs' rollouts proceed
//! untouched (no fleet-wide stall).
//!
//! **Degenerate contract:** a topology with one edge PoP and a zero-byte
//! regional tier is decision-identical, counter for counter, to the
//! underlying single [`LfoCache`] (a zero-byte cache can never admit or
//! hit, so the second tier adds no behavior). The
//! `tests/pops_topology.rs` proptest enforces this across seeds and
//! trace shapes.

use std::sync::Arc;
use std::time::Instant;

use cdn_cache::cache::CachePolicy;
use cdn_trace::Request;
use gbdt::{BinMap, Dataset, Model};

use crate::config::{LfoConfig, RetrainConfig};
use crate::persist::{LfoArtifact, Lineage, LineageKind, Provenance};
use crate::pipeline::TrainKind;
use crate::policy::{LfoCache, ModelSlot};
use crate::shard::CacheMetrics;
use crate::train::{equalize_cutoff, evaluate, train_window, train_window_continued};

/// Size and policy configuration of one edge PoP's cache.
#[derive(Clone, Debug)]
pub struct EdgeSpec {
    /// Edge cache capacity in bytes.
    pub capacity: u64,
    /// Edge cache policy configuration.
    pub config: LfoConfig,
}

/// Which tier served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the PoP's edge cache.
    Edge,
    /// Edge miss, hit in the shared regional cache.
    Regional,
    /// Missed both tiers: fetched from the origin.
    Origin,
}

/// The two-tier data plane: N edge caches in front of one shared
/// regional cache. See the module docs.
pub struct PopsTopology {
    edges: Vec<LfoCache>,
    edge_metrics: Vec<CacheMetrics>,
    regional: LfoCache,
    regional_metrics: CacheMetrics,
    origin_requests: u64,
    origin_bytes: u64,
}

/// Aggregated topology metrics; produced by [`PopsTopology::report`].
#[derive(Clone, Debug)]
pub struct PopsReport {
    /// Per-edge-PoP serving metrics (indexed by PoP).
    pub per_edge: Vec<CacheMetrics>,
    /// Regional-tier serving metrics (its request stream is the edge
    /// misses).
    pub regional: CacheMetrics,
    /// Requests that missed both tiers.
    pub origin_requests: u64,
    /// Bytes fetched from the origin.
    pub origin_bytes: u64,
}

impl PopsReport {
    /// Total bytes requested at the edges (the user-facing demand).
    pub fn total_bytes(&self) -> u64 {
        self.per_edge.iter().map(|m| m.total_bytes).sum()
    }

    /// Fraction of demanded bytes the topology kept off the origin —
    /// the headline number a CDN operator pays for.
    pub fn origin_offload(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            1.0 - self.origin_bytes as f64 / total as f64
        }
    }

    /// Aggregate byte hit ratio across both tiers: bytes served from any
    /// cache over bytes demanded. Numerically equal to
    /// [`PopsReport::origin_offload`] (every byte not hit in a tier goes
    /// to the origin), spelled out from the tier counters as a
    /// cross-check.
    pub fn aggregate_bhr(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let edge_hits: u64 = self.per_edge.iter().map(|m| m.hit_bytes).sum();
        (edge_hits + self.regional.hit_bytes) as f64 / total as f64
    }

    /// Byte hit ratio of the edge tier alone.
    pub fn edge_bhr(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let edge_hits: u64 = self.per_edge.iter().map(|m| m.hit_bytes).sum();
        edge_hits as f64 / total as f64
    }
}

impl PopsTopology {
    /// Builds a topology of the given edge PoPs in front of one regional
    /// cache. A `regional_capacity` of zero degenerates to independent
    /// single-tier edges (the regional cache can never admit).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty.
    pub fn new(edges: &[EdgeSpec], regional_capacity: u64, regional_config: LfoConfig) -> Self {
        assert!(!edges.is_empty(), "a topology needs at least one edge PoP");
        let caches: Vec<LfoCache> = edges
            .iter()
            .map(|e| LfoCache::new(e.capacity, e.config.clone()))
            .collect();
        PopsTopology {
            edge_metrics: vec![CacheMetrics::default(); caches.len()],
            edges: caches,
            regional: LfoCache::new(regional_capacity, regional_config),
            regional_metrics: CacheMetrics::default(),
            origin_requests: 0,
            origin_bytes: 0,
        }
    }

    /// Number of edge PoPs.
    pub fn num_pops(&self) -> usize {
        self.edges.len()
    }

    /// Routes one request through its PoP's edge cache and, on a miss,
    /// through the shared regional tier.
    pub fn handle(&mut self, pop: usize, request: &Request) -> ServedBy {
        let outcome = self.edges[pop].handle(request);
        self.edge_metrics[pop].record(request.size, outcome);
        if outcome.is_hit() {
            return ServedBy::Edge;
        }
        let regional = self.regional.handle(request);
        self.regional_metrics.record(request.size, regional);
        if regional.is_hit() {
            ServedBy::Regional
        } else {
            self.origin_requests += 1;
            self.origin_bytes += request.size;
            ServedBy::Origin
        }
    }

    /// Read access to one edge cache.
    pub fn edge(&self, pop: usize) -> &LfoCache {
        &self.edges[pop]
    }

    /// One edge PoP's model-publication slot (for trainer threads).
    pub fn edge_slot(&self, pop: usize) -> &ModelSlot {
        self.edges[pop].slot()
    }

    /// Read access to the regional cache.
    pub fn regional(&self) -> &LfoCache {
        &self.regional
    }

    /// Installs a model on one edge PoP (LRU fallback until then).
    pub fn install_edge_model(&mut self, pop: usize, model: Arc<Model>) {
        self.edges[pop].install_model(model);
    }

    /// Updates one edge PoP's admission cutoff.
    pub fn set_edge_cutoff(&mut self, pop: usize, cutoff: f64) {
        self.edges[pop].set_cutoff(cutoff);
    }

    /// Installs a model on the shared regional cache.
    pub fn install_regional_model(&mut self, model: Arc<Model>) {
        self.regional.install_model(model);
    }

    /// Updates the shared regional cache's admission cutoff.
    pub fn set_regional_cutoff(&mut self, cutoff: f64) {
        self.regional.set_cutoff(cutoff);
    }

    /// Live per-edge metrics (shutdown occupancy fields not yet filled).
    pub fn edge_metrics(&self, pop: usize) -> &CacheMetrics {
        &self.edge_metrics[pop]
    }

    /// Snapshots the aggregated report, filling each tier's occupancy and
    /// eviction counters from the caches (the same shutdown protocol the
    /// sharded layer uses).
    pub fn report(&self) -> PopsReport {
        let mut per_edge = self.edge_metrics.clone();
        for (m, cache) in per_edge.iter_mut().zip(&self.edges) {
            m.evictions = cache.evictions;
            m.used_bytes = cache.used();
            m.resident_objects = cache.len() as u64;
        }
        let mut regional = self.regional_metrics;
        regional.evictions = self.regional.evictions;
        regional.used_bytes = self.regional.used();
        regional.resident_objects = self.regional.len() as u64;
        PopsReport {
            per_edge,
            regional,
            origin_requests: self.origin_requests,
            origin_bytes: self.origin_bytes,
        }
    }
}

/// How the control plane trains the edge fleet.
#[derive(Clone, Debug)]
pub enum RolloutPlan {
    /// Every PoP trains its own model from scratch on its local window —
    /// the expensive baseline (N full trainings per rollout cycle).
    PerPop,
    /// Federated: one scratch base model + frozen [`BinMap`] grid on the
    /// pooled fleet window, then per-PoP delta trees continued from the
    /// base on the shared grid. Per-PoP cost drops from a full training
    /// to `retrain.delta_trees` trees.
    Federated {
        /// Delta-tree budget and ensemble cap for the per-PoP
        /// continuations.
        retrain: RetrainConfig,
    },
}

/// Acceptance gate for per-PoP federated candidates. A rejected PoP
/// falls back to scratch training for that PoP alone — the other PoPs'
/// rollouts are never stalled by one PoP's bad delta.
#[derive(Clone, Debug)]
pub struct FederationGate {
    /// Minimum holdout accuracy a delta candidate must reach.
    pub min_holdout_accuracy: f64,
    /// Fraction of each PoP's window held out for the gate, in `(0, 1)`.
    pub holdout_fraction: f64,
    /// PoPs whose delta candidates are rejected unconditionally — the
    /// deterministic fault hook (same spirit as [`crate::faults`]) tests
    /// use to exercise the fallback path.
    pub force_reject: Vec<usize>,
}

impl Default for FederationGate {
    fn default() -> Self {
        FederationGate {
            min_holdout_accuracy: 0.7,
            holdout_fraction: 0.25,
            force_reject: Vec::new(),
        }
    }
}

/// One PoP's trained rollout.
#[derive(Clone, Debug)]
pub struct PopRollout {
    /// The PoP this model serves.
    pub pop: usize,
    /// How the model was produced (scratch, delta, or gated fallback).
    pub kind: TrainKind,
    /// The admission model.
    pub model: Arc<Model>,
    /// Equalized admission cutoff tuned on the PoP's training split.
    pub cutoff: f64,
    /// Training lineage (delta rollouts carry the shared grid
    /// fingerprint).
    pub lineage: Lineage,
    /// Wall-clock milliseconds this PoP's own training call took
    /// (excludes the shared base for federated rollouts — that cost is
    /// paid once, in [`FleetRollout::base_train_ms`]).
    pub train_ms: f64,
    /// Accuracy on the PoP's holdout split at the deployed cutoff.
    pub holdout_accuracy: f64,
}

impl PopRollout {
    /// Wraps this rollout as a persistable artifact with per-PoP
    /// provenance. Delta rollouts carry the shared grid so a restore can
    /// resume federated training on it.
    pub fn artifact(
        &self,
        config: LfoConfig,
        trace_id: &str,
        window: usize,
        bin_map: Option<&BinMap>,
    ) -> LfoArtifact {
        let artifact = LfoArtifact::new(
            config,
            (*self.model).clone(),
            self.cutoff,
            Provenance {
                trace_id: trace_id.to_string(),
                window,
                slot_version: 0,
                note: format!("fleet rollout, pop {}, {:?}", self.pop, self.kind),
                lineage: Some(self.lineage.clone()),
                pop: Some(self.pop),
            },
        );
        if self.kind == TrainKind::Incremental {
            artifact.with_bin_map(bin_map.cloned())
        } else {
            artifact
        }
    }
}

/// The control plane's output: one rollout per PoP plus the shared
/// federation state.
#[derive(Clone, Debug)]
pub struct FleetRollout {
    /// Per-PoP rollouts, indexed by PoP.
    pub rollouts: Vec<PopRollout>,
    /// Fingerprint (hex) of the shared frozen grid; `None` for
    /// [`RolloutPlan::PerPop`].
    pub base_fingerprint: Option<String>,
    /// The shared frozen grid itself.
    pub bin_map: Option<BinMap>,
    /// Wall-clock milliseconds of the shared base training (0 for
    /// [`RolloutPlan::PerPop`]).
    pub base_train_ms: f64,
}

impl FleetRollout {
    /// Publishes every PoP's rollout to its edge slot.
    pub fn publish_to(&self, topology: &PopsTopology) {
        for r in &self.rollouts {
            topology
                .edge_slot(r.pop)
                .publish(Arc::clone(&r.model), r.cutoff);
        }
    }

    /// Mean per-PoP training cost in milliseconds — what one PoP's
    /// trainer pays per rollout cycle, excluding the shared base.
    pub fn mean_pop_train_ms(&self) -> f64 {
        if self.rollouts.is_empty() {
            return 0.0;
        }
        self.rollouts.iter().map(|r| r.train_ms).sum::<f64>() / self.rollouts.len() as f64
    }
}

/// Rows `range` of `data` as an owned sub-dataset.
fn subset(data: &Dataset, range: std::ops::Range<usize>) -> Dataset {
    let rows: Vec<Vec<f32>> = range.clone().map(|r| data.row(r)).collect();
    let labels: Vec<f32> = data.labels()[range].to_vec();
    Dataset::from_rows(rows, labels).expect("subset of a valid dataset is valid")
}

/// Splits one PoP's window into (train, holdout) by the gate's holdout
/// fraction — the holdout is the window tail, matching the single-cache
/// gate's protocol.
fn split_window(data: &Dataset, holdout_fraction: f64) -> (Dataset, Dataset) {
    let n = data.num_rows();
    let holdout = ((n as f64 * holdout_fraction) as usize).clamp(1, n.saturating_sub(1).max(1));
    let cut = n - holdout;
    (subset(data, 0..cut), subset(data, cut..n))
}

/// Trains the edge fleet: one [`Dataset`] per PoP in, one [`PopRollout`]
/// per PoP out. See [`RolloutPlan`] for the two strategies and the
/// module docs for the federation protocol.
///
/// # Panics
///
/// Panics if `per_pop` is empty or any PoP's window has fewer than two
/// rows (nothing to hold out).
pub fn train_fleet(
    per_pop: &[Dataset],
    config: &LfoConfig,
    plan: &RolloutPlan,
    gate: &FederationGate,
) -> FleetRollout {
    assert!(!per_pop.is_empty(), "fleet needs at least one PoP window");
    assert!(
        (0.0..1.0).contains(&gate.holdout_fraction) && gate.holdout_fraction > 0.0,
        "holdout fraction must be in (0, 1)"
    );
    for (pop, data) in per_pop.iter().enumerate() {
        assert!(data.num_rows() >= 2, "PoP {pop} window too small to split");
    }
    match plan {
        RolloutPlan::PerPop => {
            let rollouts = per_pop
                .iter()
                .enumerate()
                .map(|(pop, data)| {
                    let (train, holdout) = split_window(data, gate.holdout_fraction);
                    let started = Instant::now();
                    let trained = train_window(&train, config);
                    let train_ms = started.elapsed().as_secs_f64() * 1e3;
                    finish_rollout(pop, TrainKind::Scratch, trained, &holdout, train_ms, None)
                })
                .collect();
            FleetRollout {
                rollouts,
                base_fingerprint: None,
                bin_map: None,
                base_train_ms: 0.0,
            }
        }
        RolloutPlan::Federated { retrain } => {
            // Shared phase, paid once per fleet: scratch base on the
            // pooled fleet window + the frozen quantile grid every PoP's
            // deltas bin against.
            let pooled = pool_windows(per_pop);
            let started = Instant::now();
            let base = train_window(&pooled, config);
            let base_train_ms = started.elapsed().as_secs_f64() * 1e3;
            let map = BinMap::fit(&pooled, config.gbdt.max_bins);
            let fingerprint = format!("{:016x}", map.fingerprint());

            let rollouts = per_pop
                .iter()
                .enumerate()
                .map(|(pop, data)| {
                    let (train, holdout) = split_window(data, gate.holdout_fraction);
                    let started = Instant::now();
                    let delta =
                        train_window_continued(&base.model, &train, config, retrain, Some(&map));
                    let delta_ms = started.elapsed().as_secs_f64() * 1e3;
                    let cutoff = equalize_cutoff(&delta.train_probs, &delta.train_labels);
                    let accuracy = 1.0 - evaluate(&delta.model, &holdout, cutoff).error_fraction();
                    let rejected =
                        accuracy < gate.min_holdout_accuracy || gate.force_reject.contains(&pop);
                    if rejected {
                        // Gated fallback: this PoP retrains from scratch;
                        // no other PoP waits on it.
                        let started = Instant::now();
                        let scratch = train_window(&train, config);
                        let scratch_ms = started.elapsed().as_secs_f64() * 1e3;
                        return finish_rollout(
                            pop,
                            TrainKind::ScratchFallback,
                            scratch,
                            &holdout,
                            delta_ms + scratch_ms,
                            None,
                        );
                    }
                    let lineage = Lineage {
                        kind: LineageKind::Delta,
                        base_window: Some(0),
                        delta_trees: retrain.delta_trees,
                        total_trees: delta.model.trees().len(),
                        bin_map_fingerprint: Some(fingerprint.clone()),
                    };
                    PopRollout {
                        pop,
                        kind: TrainKind::Incremental,
                        model: Arc::new(delta.model),
                        cutoff,
                        lineage,
                        train_ms: delta_ms,
                        holdout_accuracy: accuracy,
                    }
                })
                .collect();
            FleetRollout {
                rollouts,
                base_fingerprint: Some(fingerprint),
                bin_map: Some(map),
                base_train_ms,
            }
        }
    }
}

/// Concatenates the fleet's windows into the pooled base-training set.
fn pool_windows(per_pop: &[Dataset]) -> Dataset {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for data in per_pop {
        for r in 0..data.num_rows() {
            rows.push(data.row(r));
        }
        labels.extend_from_slice(data.labels());
    }
    Dataset::from_rows(rows, labels).expect("pooled fleet window is valid")
}

/// Assembles a scratch-trained rollout: equalized cutoff on the training
/// split, holdout accuracy at that cutoff, full lineage.
fn finish_rollout(
    pop: usize,
    kind: TrainKind,
    trained: crate::train::TrainedWindow,
    holdout: &Dataset,
    train_ms: f64,
    fingerprint: Option<String>,
) -> PopRollout {
    let cutoff = equalize_cutoff(&trained.train_probs, &trained.train_labels);
    let accuracy = 1.0 - evaluate(&trained.model, holdout, cutoff).error_fraction();
    let total_trees = trained.model.trees().len();
    PopRollout {
        pop,
        kind,
        model: Arc::new(trained.model),
        cutoff,
        lineage: Lineage {
            kind: LineageKind::Full,
            base_window: None,
            delta_trees: total_trees,
            total_trees,
            bin_map_fingerprint: fingerprint,
        },
        train_ms,
        holdout_accuracy: accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureTracker;
    use crate::labels::build_training_set;
    use cdn_trace::{split_by_pop, GeneratorConfig, PopTraceConfig, PopTraceGenerator, Request};
    use opt::{compute_opt, OptConfig};

    fn pop_windows(num_pops: usize, n: u64, cache: u64) -> Vec<Dataset> {
        let mut config = PopTraceConfig::production(41, num_pops, n);
        config.overlap = 0.8;
        config.skew = 0.3;
        let merged = PopTraceGenerator::new(config).generate();
        let per_pop = split_by_pop(&merged, num_pops);
        let lfo = LfoConfig::default();
        per_pop
            .iter()
            .map(|reqs| {
                let opt = compute_opt(reqs, &OptConfig::bhr(cache)).unwrap();
                let mut tracker = FeatureTracker::new(lfo.num_gaps, lfo.cost_model);
                build_training_set(reqs, &opt, &mut tracker, cache)
            })
            .collect()
    }

    fn replay(topology: &mut PopsTopology, merged: &[cdn_trace::PopRequest]) {
        for pr in merged {
            topology.handle(pr.pop, &pr.request);
        }
    }

    #[test]
    fn two_tier_routing_and_report_counters_are_consistent() {
        let spec = EdgeSpec {
            capacity: 256 * 1024,
            config: LfoConfig::default(),
        };
        let mut topology =
            PopsTopology::new(&[spec.clone(), spec], 1024 * 1024, LfoConfig::default());
        let merged = PopTraceGenerator::new(PopTraceConfig::production(5, 2, 3_000)).generate();
        replay(&mut topology, &merged);
        let report = topology.report();
        let edge_requests: u64 = report.per_edge.iter().map(|m| m.requests).sum();
        assert_eq!(edge_requests, 6_000);
        let edge_hits: u64 = report.per_edge.iter().map(|m| m.hits).sum();
        // Every edge miss reaches the regional tier; every regional miss
        // reaches the origin.
        assert_eq!(report.regional.requests, edge_requests - edge_hits);
        assert_eq!(
            report.origin_requests,
            report.regional.requests - report.regional.hits
        );
        assert!(report.origin_offload() > 0.0);
        assert!((report.aggregate_bhr() - report.origin_offload()).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_regional_never_hits_or_admits() {
        let spec = EdgeSpec {
            capacity: 64 * 1024,
            config: LfoConfig::default(),
        };
        let mut topology = PopsTopology::new(&[spec], 0, LfoConfig::default());
        let reqs: Vec<Request> = TraceGeneratorSmall::generate(11, 2_000);
        for r in &reqs {
            topology.handle(0, r);
        }
        let report = topology.report();
        assert_eq!(report.regional.hits, 0);
        assert_eq!(report.regional.admitted_misses, 0);
        assert_eq!(report.regional.resident_objects, 0);
        assert_eq!(
            report.regional.requests,
            report.per_edge[0].requests - report.per_edge[0].hits
        );
    }

    /// Tiny helper so the test above reads clearly.
    struct TraceGeneratorSmall;
    impl TraceGeneratorSmall {
        fn generate(seed: u64, n: u64) -> Vec<Request> {
            cdn_trace::TraceGenerator::new(GeneratorConfig::small(seed, n))
                .generate()
                .requests()
                .to_vec()
        }
    }

    #[test]
    fn federated_rollouts_share_the_base_fingerprint_and_cost_less() {
        let windows = pop_windows(3, 2_500, 2 * 1024 * 1024);
        let config = LfoConfig::default();
        let gate = FederationGate {
            min_holdout_accuracy: 0.0,
            ..FederationGate::default()
        };
        let scratch = train_fleet(&windows, &config, &RolloutPlan::PerPop, &gate);
        let federated = train_fleet(
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
        let fp = federated.base_fingerprint.as_deref().expect("fingerprint");
        for r in &federated.rollouts {
            assert_eq!(r.kind, TrainKind::Incremental);
            assert_eq!(r.lineage.kind, LineageKind::Delta);
            assert_eq!(r.lineage.bin_map_fingerprint.as_deref(), Some(fp));
            assert!(r.model.trees().len() > 30, "delta appends to the base");
        }
        assert!(
            federated.mean_pop_train_ms() < scratch.mean_pop_train_ms(),
            "per-PoP delta cost {:.1}ms must undercut scratch {:.1}ms",
            federated.mean_pop_train_ms(),
            scratch.mean_pop_train_ms()
        );
    }

    #[test]
    fn force_rejected_pop_falls_back_without_stalling_the_fleet() {
        let windows = pop_windows(3, 2_000, 2 * 1024 * 1024);
        let config = LfoConfig::default();
        let gate = FederationGate {
            min_holdout_accuracy: 0.0,
            force_reject: vec![1],
            ..FederationGate::default()
        };
        let fleet = train_fleet(
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
        assert_eq!(fleet.rollouts[1].kind, TrainKind::ScratchFallback);
        assert_eq!(fleet.rollouts[1].lineage.kind, LineageKind::Full);
        assert_eq!(fleet.rollouts[1].lineage.bin_map_fingerprint, None);
        for pop in [0, 2] {
            assert_eq!(fleet.rollouts[pop].kind, TrainKind::Incremental);
            assert_eq!(
                fleet.rollouts[pop].lineage.bin_map_fingerprint.as_deref(),
                fleet.base_fingerprint.as_deref()
            );
        }
    }

    #[test]
    fn publish_to_rolls_models_onto_the_edges() {
        let windows = pop_windows(2, 2_000, 1024 * 1024);
        let config = LfoConfig::default();
        let gate = FederationGate {
            min_holdout_accuracy: 0.0,
            ..FederationGate::default()
        };
        let fleet = train_fleet(
            &windows,
            &config,
            &RolloutPlan::Federated {
                retrain: RetrainConfig {
                    delta_trees: 5,
                    full_refresh: 8,
                    max_trees: 60,
                },
            },
            &gate,
        );
        let spec = EdgeSpec {
            capacity: 512 * 1024,
            config: config.clone(),
        };
        let topology = PopsTopology::new(&[spec.clone(), spec], 1024 * 1024, config);
        assert!(!topology.edge(0).has_model());
        fleet.publish_to(&topology);
        assert!(topology.edge(0).has_model());
        assert!(topology.edge(1).has_model());
        assert!(!topology.regional().has_model(), "regional stays LRU");
    }

    #[test]
    fn artifact_carries_pop_provenance_and_stamped_grid() {
        let windows = pop_windows(2, 2_000, 1024 * 1024);
        let config = LfoConfig::default();
        let gate = FederationGate {
            min_holdout_accuracy: 0.0,
            ..FederationGate::default()
        };
        let fleet = train_fleet(
            &windows,
            &config,
            &RolloutPlan::Federated {
                retrain: RetrainConfig {
                    delta_trees: 5,
                    full_refresh: 8,
                    max_trees: 60,
                },
            },
            &gate,
        );
        let artifact = fleet.rollouts[1].artifact(config, "pops-unit", 0, fleet.bin_map.as_ref());
        assert_eq!(artifact.provenance.pop, Some(1));
        assert_eq!(
            artifact
                .bin_map
                .as_ref()
                .map(|m| format!("{:016x}", m.fingerprint())),
            artifact
                .provenance
                .lineage
                .as_ref()
                .and_then(|l| l.bin_map_fingerprint.clone()),
            "delta artifact carries the shared grid, stamped in its lineage"
        );
        assert!(artifact.bin_map.is_some());
        let bytes = artifact.to_bytes().unwrap();
        let back = LfoArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.provenance.pop, Some(1));
    }
}
