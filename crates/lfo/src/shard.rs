//! Sharded LFO serving: hash-partitioned caches on worker threads.
//!
//! The single-threaded [`LfoCache`] serializes the whole serving hot path
//! (feature tracking → prediction → admission → eviction) behind one
//! `BTreeSet`/`HashMap`. To scale the paper's Figure 7 claim ("fast enough
//! for 40 Gbit/s serving") to the *end-to-end* path, a
//! [`ShardedLfoCache`] partitions objects across `N` independent
//! [`LfoCache`] shards by a deterministic hash of the object id. Each shard
//! is owned by a dedicated worker thread fed over a bounded std mpsc
//! channel (the same no-external-deps discipline as the staged pipeline),
//! so shards admit, evict, and track features fully in parallel.
//!
//! All shards refresh from **one shared [`ModelSlot`]**: a gated rollout
//! published by the staged pipeline's deployer reaches every shard
//! atomically — each shard picks the new model up on its next request, and
//! the serving engine is compiled once at publish time, not per shard.
//!
//! Because the hash depends only on the object id, every request for an
//! object always lands on the same shard; per-shard metrics are therefore
//! exact, and the aggregate [`CacheMetrics`] is exactly the sum of the
//! per-shard counters. A 1-shard instance is bit-identical to a bare
//! `LfoCache` replaying the same trace (the integration tests assert this).
//!
//! Capacity is managed per the configured [`ShardMode`]: by default the
//! shards partition only the object *index* and draw on one fleet-wide
//! [`SharedOccupancy`] byte pool (memcached-style), which keeps objects
//! larger than `capacity/N` cacheable and keeps the model's free-bytes
//! feedback on the trained trajectory. Each shard still has its own
//! eviction frontier, so decisions can diverge slightly from the unsharded
//! reference — the `repro serve` experiment measures that BHR delta (it is
//! small; DESIGN.md §9 discusses why, and why [`ShardMode::Partitioned`]
//! trades BHR for bit-stable replays).

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use cdn_trace::{ObjectId, Request};
use serde::{Deserialize, Serialize};

use cdn_cache::cache::{CachePolicy, RequestOutcome};

use crate::config::LfoConfig;
use crate::guardrail::{GuardrailConfig, GuardrailSnapshot};
use crate::policy::{LfoCache, ModelSlot, SharedOccupancy};
use crate::sketchpool::SharedDoorkeeper;
use crate::splitmix64;

/// The shard an object routes to: deterministic, stable across runs and
/// platforms. Uses the multiply-shift range reduction (`(hash × n) >> 64`)
/// instead of a modulo, which avoids bias and a hardware divide.
pub fn shard_of(object: ObjectId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0);
    ((splitmix64(object.0) as u128 * num_shards as u128) >> 64) as usize
}

/// How the fleet's byte capacity is managed across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardMode {
    /// One fleet-wide byte pool (memcached-style): the object *index* is
    /// partitioned by hash, the memory is not. Any shard may hold any
    /// object up to the full capacity, admission evicts locally until the
    /// pool-wide occupancy fits, and the free-bytes feature is the pool's
    /// free — the signal the model was trained against. This is the
    /// default, and the mode that keeps sharded BHR at the unsharded
    /// reference: hard `capacity/N` budgets make every object larger than
    /// a shard uncacheable, and the model's admission feedback (likelihoods
    /// *rise* as free bytes shrink, because OPT's cache is full for most of
    /// the training window) can latch an underfilled shard empty. The cost
    /// is schedule-exact reproducibility: the pool's value at a given
    /// request depends on how far the other shards have progressed, so two
    /// replays can differ by a few borderline admissions.
    #[default]
    Pooled,
    /// Hard-partitioned: shard `i` owns `capacity/N` bytes outright and
    /// presents its own free bytes scaled by `N` as the feature. Fully
    /// deterministic — per-shard metrics are bit-stable across replays
    /// regardless of thread scheduling — but objects larger than a shard
    /// bypass, and the feature drifts from the global signal as shard
    /// occupancies diverge, which costs BHR on traces where admission
    /// feedback matters.
    Partitioned,
}

/// Tuning knobs for the sharded cache's request plumbing.
#[derive(Clone, Copy, Debug)]
pub struct ShardParams {
    /// Number of cache shards (and worker threads). Must be ≥ 1.
    pub num_shards: usize,
    /// Requests buffered per shard before a batch is sent to its worker;
    /// amortizes channel overhead on the routing thread.
    pub batch_size: usize,
    /// Bounded channel depth in batches; a full queue applies backpressure
    /// to the router instead of growing without bound.
    pub queue_depth: usize,
    /// Capacity management mode (see [`ShardMode`]).
    pub mode: ShardMode,
    /// Runtime learned-vs-LRU guardrail (DESIGN.md §13), attached per
    /// shard and scoped to that shard's slice of capacity and traffic.
    /// `None` (the default) leaves the serving path untouched.
    pub guardrail: Option<GuardrailConfig>,
    /// Share one fleet-wide doorkeeper sketch + striped GCLOCK ring
    /// (DESIGN.md §16) across the shards instead of one private sketch and
    /// ring per shard. Only effective in [`ShardMode::Pooled`] with a
    /// bounded [`TrackerBudget`](crate::TrackerBudget) — unbounded configs
    /// (the default `LfoConfig`) have no doorkeeper to share, so this flag
    /// is inert there and every existing deployment is unchanged.
    pub shared_sketch: bool,
}

impl ShardParams {
    /// Defaults tuned for trace replay: 256-request batches, 4 in flight,
    /// pooled capacity, no guardrail, shared doorkeeper when the config
    /// carries a bounded tracker budget.
    pub fn with_shards(num_shards: usize) -> Self {
        ShardParams {
            num_shards,
            batch_size: 256,
            queue_depth: 4,
            mode: ShardMode::Pooled,
            guardrail: None,
            shared_sketch: true,
        }
    }
}

/// Hit/admission/eviction counters for one shard (or, summed, the whole
/// sharded cache). All fields are exact counts, so the aggregate over
/// shards is exactly the sum of the per-shard values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheMetrics {
    /// Requests handled.
    pub requests: u64,
    /// Full-object hits.
    pub hits: u64,
    /// Bytes requested.
    pub total_bytes: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Misses the policy admitted.
    pub admitted_misses: u64,
    /// Misses the policy declined to admit.
    pub bypassed_misses: u64,
    /// Objects evicted.
    pub evictions: u64,
    /// Bytes resident at shutdown.
    pub used_bytes: u64,
    /// Objects resident at shutdown.
    pub resident_objects: u64,
    /// Guardrail trips (Learned → LruForced transitions); 0 when no
    /// guardrail is attached.
    pub guardrail_trips: u64,
    /// Requests served while the guardrail was forcing LRU.
    pub guardrail_forced_requests: u64,
    /// Bytes requested on the guardrail's sampled shadow substream.
    pub shadow_total_bytes: u64,
    /// Sampled bytes the shadow (ghost) LRU would have hit.
    pub shadow_lru_hit_bytes: u64,
    /// Sampled bytes the real cache actually hit — realized BHR on the
    /// same basis the shadow LRU is measured on.
    pub shadow_realized_hit_bytes: u64,
    /// Sampled requests whose guardrail ghost inserts were skipped because
    /// the object had not cleared the doorkeeper (0 unless the tracker is
    /// bounded).
    pub shadow_doorkeeper_skips: u64,
    /// Estimated ghost bookkeeping bytes those skips avoided.
    pub shadow_doorkeeper_saved_bytes: u64,
}

impl CacheMetrics {
    /// Object hit ratio.
    pub fn ohr(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Byte hit ratio.
    pub fn bhr(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Records one handled request (also used by harnesses that drive a
    /// bare [`LfoCache`] as the unsharded reference).
    pub fn record(&mut self, size: u64, outcome: RequestOutcome) {
        self.requests += 1;
        self.total_bytes += size;
        match outcome {
            RequestOutcome::Hit => {
                self.hits += 1;
                self.hit_bytes += size;
            }
            RequestOutcome::Miss { admitted: true } => self.admitted_misses += 1,
            RequestOutcome::Miss { admitted: false } => self.bypassed_misses += 1,
        }
    }

    /// Shadow-LRU byte hit ratio on the guardrail's sampled substream
    /// (0 when no guardrail ran).
    pub fn shadow_lru_bhr(&self) -> f64 {
        if self.shadow_total_bytes == 0 {
            0.0
        } else {
            self.shadow_lru_hit_bytes as f64 / self.shadow_total_bytes as f64
        }
    }

    /// Realized byte hit ratio on the same sampled substream — directly
    /// comparable to [`CacheMetrics::shadow_lru_bhr`].
    pub fn shadow_realized_bhr(&self) -> f64 {
        if self.shadow_total_bytes == 0 {
            0.0
        } else {
            self.shadow_realized_hit_bytes as f64 / self.shadow_total_bytes as f64
        }
    }

    /// Adds another shard's counters into this aggregate.
    pub fn add(&mut self, other: &CacheMetrics) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.total_bytes += other.total_bytes;
        self.hit_bytes += other.hit_bytes;
        self.admitted_misses += other.admitted_misses;
        self.bypassed_misses += other.bypassed_misses;
        self.evictions += other.evictions;
        self.used_bytes += other.used_bytes;
        self.resident_objects += other.resident_objects;
        self.guardrail_trips += other.guardrail_trips;
        self.guardrail_forced_requests += other.guardrail_forced_requests;
        self.shadow_total_bytes += other.shadow_total_bytes;
        self.shadow_lru_hit_bytes += other.shadow_lru_hit_bytes;
        self.shadow_realized_hit_bytes += other.shadow_realized_hit_bytes;
        self.shadow_doorkeeper_skips += other.shadow_doorkeeper_skips;
        self.shadow_doorkeeper_saved_bytes += other.shadow_doorkeeper_saved_bytes;
    }
}

/// Final state of one shard, reported at shutdown.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index (also the routing bucket).
    pub shard: usize,
    /// Byte capacity this shard was given: the full pool in
    /// [`ShardMode::Pooled`], its `capacity/N` slice in
    /// [`ShardMode::Partitioned`].
    pub capacity: u64,
    /// Slot version the shard last synced (equal across shards exactly when
    /// a rollout has reached all of them).
    pub model_version: u64,
    /// Approximate heap bytes of the shard's feature-tracker history at
    /// shutdown (per-object gap state the model's features come from). In
    /// shared-sketch mode this counts only the shard's histories and its
    /// ring stripe — the fleet sketch is in `shared_sketch_bytes`.
    pub tracker_bytes: u64,
    /// Bytes of the fleet-shared doorkeeper sketch this shard borrows
    /// (equal across shards of one pool; a fleet-wide report counts it
    /// once, like `model_bytes`). 0 with a private or absent doorkeeper.
    pub shared_sketch_bytes: u64,
    /// Approximate heap bytes of the shard's admission/eviction index at
    /// shutdown (hash entry + priority-queue key per resident).
    pub index_bytes: u64,
    /// Approximate heap bytes of the compiled model layouts the shard
    /// serves through. The layouts are `Arc`-shared across shards of one
    /// slot, so a fleet-wide report should count this once, not per shard.
    pub model_bytes: u64,
    /// The shard's exact counters.
    pub metrics: CacheMetrics,
    /// Guardrail state at shutdown, `None` when no guardrail was attached.
    pub guardrail: Option<GuardrailSnapshot>,
}

/// Everything the sharded cache knows when it shuts down.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Per-shard final states, indexed by shard.
    pub shards: Vec<ShardStatus>,
}

impl ShardReport {
    /// Aggregate counters: exactly the sum of the per-shard metrics.
    pub fn total(&self) -> CacheMetrics {
        let mut total = CacheMetrics::default();
        for s in &self.shards {
            total.add(&s.metrics);
        }
        total
    }

    /// The model version on every shard, or `None` if shards disagree
    /// (a rollout that has not reached all of them yet).
    pub fn uniform_model_version(&self) -> Option<u64> {
        let first = self.shards.first()?.model_version;
        self.shards
            .iter()
            .all(|s| s.model_version == first)
            .then_some(first)
    }

    /// Total serving-metadata bytes across the fleet: per-shard tracker and
    /// index bytes summed, plus *one* copy of each `Arc`-shared allocation
    /// — the compiled model layouts and the fleet doorkeeper sketch —
    /// (summing `model_bytes`/`shared_sketch_bytes` over shards would
    /// multiply-count single allocations).
    pub fn metadata_bytes(&self) -> u64 {
        let per_shard: u64 = self
            .shards
            .iter()
            .map(|s| s.tracker_bytes + s.index_bytes)
            .sum();
        let model = self.shards.iter().map(|s| s.model_bytes).max().unwrap_or(0);
        let sketch = self
            .shards
            .iter()
            .map(|s| s.shared_sketch_bytes)
            .max()
            .unwrap_or(0);
        per_shard + model + sketch
    }

    /// Metadata bytes per resident object at shutdown (0 when nothing is
    /// resident) — the cost-of-serving number `repro serve` reports.
    pub fn metadata_bytes_per_object(&self) -> f64 {
        let residents = self.total().resident_objects;
        if residents == 0 {
            0.0
        } else {
            self.metadata_bytes() as f64 / residents as f64
        }
    }

    /// Fleet-wide guardrail mode label: `"off"` when no shard carried a
    /// guardrail, a shard's [`GuardrailMode::label`] when all agree, and
    /// `"mixed"` when shards ended in different modes.
    pub fn guardrail_mode_label(&self) -> &'static str {
        let mut modes = self
            .shards
            .iter()
            .filter_map(|s| s.guardrail)
            .map(|g| g.mode);
        let Some(first) = modes.next() else {
            return "off";
        };
        if modes.all(|m| m == first) {
            first.label()
        } else {
            "mixed"
        }
    }
}

/// One shard's worker: drains request batches, drives its cache, counts.
fn shard_worker(
    shard: usize,
    mut cache: LfoCache,
    rx: std::sync::mpsc::Receiver<Vec<Request>>,
) -> ShardStatus {
    let mut metrics = CacheMetrics::default();
    while let Ok(batch) = rx.recv() {
        for request in &batch {
            let outcome = cache.handle(request);
            metrics.record(request.size, outcome);
        }
    }
    metrics.evictions = cache.evictions;
    metrics.used_bytes = cache.used();
    metrics.resident_objects = cache.len() as u64;
    let guardrail = cache.guardrail();
    if let Some(snap) = &guardrail {
        metrics.guardrail_trips = snap.trips;
        metrics.guardrail_forced_requests = snap.forced_requests;
        metrics.shadow_total_bytes = snap.shadow_total_bytes;
        metrics.shadow_lru_hit_bytes = snap.shadow_lru_hit_bytes;
        metrics.shadow_realized_hit_bytes = snap.shadow_realized_hit_bytes;
        metrics.shadow_doorkeeper_skips = snap.doorkeeper_skips;
        metrics.shadow_doorkeeper_saved_bytes = snap.doorkeeper_saved_bytes;
    }
    ShardStatus {
        shard,
        capacity: cache.capacity(),
        model_version: cache.model_version(),
        tracker_bytes: cache.tracker().approximate_bytes() as u64,
        shared_sketch_bytes: cache
            .tracker()
            .shared_pool()
            .map_or(0, |p| p.sketch_bytes() as u64),
        index_bytes: cache.approximate_index_bytes() as u64,
        model_bytes: cache.model_footprint_bytes() as u64,
        metrics,
        guardrail,
    }
}

/// A hash-partitioned LFO cache: `N` independent [`LfoCache`] shards on
/// dedicated worker threads, all refreshing from one shared [`ModelSlot`].
/// See the module docs for the architecture.
pub struct ShardedLfoCache {
    senders: Vec<SyncSender<Vec<Request>>>,
    workers: Vec<JoinHandle<ShardStatus>>,
    /// Per-shard routing buffers, flushed at `batch_size`.
    buffers: Vec<Vec<Request>>,
    slot: ModelSlot,
    batch_size: usize,
    capacity: u64,
    /// The fleet-shared doorkeeper, kept so callers can read its stats
    /// (the shards hold their own `Arc`s).
    sketch_pool: Option<Arc<SharedDoorkeeper>>,
}

impl ShardedLfoCache {
    /// Creates a sharded cache of `capacity` total bytes with a fresh
    /// (empty) model slot; shards run LRU-fallback until a model is
    /// published through [`ShardedLfoCache::slot`].
    pub fn new(capacity: u64, config: LfoConfig, num_shards: usize) -> Self {
        Self::with_slot(capacity, config, num_shards, ModelSlot::new())
    }

    /// Creates a sharded cache attached to an externally shared slot, with
    /// default [`ShardParams`].
    pub fn with_slot(capacity: u64, config: LfoConfig, num_shards: usize, slot: ModelSlot) -> Self {
        Self::with_params(capacity, config, ShardParams::with_shards(num_shards), slot)
    }

    /// Creates a sharded cache cold-started from a persisted artifact: the
    /// artifact's model and cutoff are published into a fresh slot before
    /// any shard is built, so every shard serves with the restored model
    /// from its first request — no LRU warm-up window.
    pub fn from_artifact(
        capacity: u64,
        params: ShardParams,
        artifact: &crate::persist::LfoArtifact,
    ) -> Self {
        let slot = ModelSlot::new();
        artifact.publish_to(&slot);
        Self::with_params(capacity, artifact.config.clone(), params, slot)
    }

    /// Fully parameterized constructor.
    ///
    /// In [`ShardMode::Pooled`] every shard is created with the full
    /// `capacity` and joined to one [`SharedOccupancy`] pool that enforces
    /// the fleet-wide budget. In [`ShardMode::Partitioned`] the capacity is
    /// split as evenly as integer division allows: shard `i` gets
    /// `capacity / N`, with the remainder bytes going one each to the first
    /// `capacity % N` shards (so the shard capacities sum exactly to
    /// `capacity`, and a 1-shard cache gets all of it).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` or `batch_size` is 0.
    pub fn with_params(
        capacity: u64,
        config: LfoConfig,
        params: ShardParams,
        slot: ModelSlot,
    ) -> Self {
        assert!(params.num_shards > 0, "need at least one shard");
        assert!(params.batch_size > 0, "batch_size must be positive");
        let n = params.num_shards as u64;
        let (base, rem) = (capacity / n, capacity % n);
        let pool = SharedOccupancy::new(capacity, params.num_shards);
        // One doorkeeper for the whole fleet, sized to the *pool* budget:
        // fleet sketch memory scales with the budget, not budget × shards,
        // and shards share first-sighting evidence instead of re-probing
        // the one-hit-wonder tail N times. Pooled-mode only — a
        // partitioned fleet owns disjoint `capacity/N` budgets, so its
        // trackers stay private like its byte accounting.
        let sketch_pool = (params.shared_sketch
            && params.mode == ShardMode::Pooled
            && config.budget().is_bounded())
        .then(|| Arc::new(SharedDoorkeeper::new(config.budget(), params.num_shards)));
        let mut senders = Vec::with_capacity(params.num_shards);
        let mut workers = Vec::with_capacity(params.num_shards);
        for shard in 0..params.num_shards {
            let shard_capacity = match params.mode {
                ShardMode::Pooled => capacity,
                ShardMode::Partitioned => base + u64::from((shard as u64) < rem),
            };
            let mut cache = LfoCache::with_slot(shard_capacity, config.clone(), slot.clone());
            // The model is trained against a global cache's free bytes, so
            // each shard derives the feature per the configured ShardMode:
            // the fleet-wide pool (default) or its own free scaled by N.
            match params.mode {
                ShardMode::Pooled => cache.join_pool(pool.clone(), shard),
                ShardMode::Partitioned => cache.set_feature_free_scale(n),
            }
            if let Some(sketch) = &sketch_pool {
                cache.join_sketch_pool(Arc::clone(sketch), shard);
            }
            if let Some(guard) = params.guardrail {
                // Each shard sees ~1/N of the stream, so its ghosts model
                // 1/N of the byte budget — in Pooled mode the shard's
                // `capacity` field is the whole pool's, so scope it down;
                // in Partitioned mode the shard's own slice already is the
                // right basis.
                let basis = match params.mode {
                    ShardMode::Pooled => (capacity / n).max(1),
                    ShardMode::Partitioned => shard_capacity.max(1),
                };
                cache.enable_guardrail_scoped(guard, basis);
            }
            let (tx, rx) = sync_channel::<Vec<Request>>(params.queue_depth.max(1));
            senders.push(tx);
            workers.push(std::thread::spawn(move || shard_worker(shard, cache, rx)));
        }
        ShardedLfoCache {
            senders,
            workers,
            buffers: vec![Vec::with_capacity(params.batch_size); params.num_shards],
            slot,
            batch_size: params.batch_size,
            capacity,
            sketch_pool,
        }
    }

    /// The fleet-shared doorkeeper pool, when one is active (Pooled mode,
    /// bounded budget, `shared_sketch` on) — exposes the CAS-contention
    /// counters the concurrency benchmark reports.
    pub fn sketch_pool(&self) -> Option<&Arc<SharedDoorkeeper>> {
        self.sketch_pool.as_ref()
    }

    /// The shared publication slot; publishing through it (or any clone)
    /// rolls the model out to every shard.
    pub fn slot(&self) -> &ModelSlot {
        &self.slot
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Total byte capacity across shards.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The shard `object` routes to.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        shard_of(object, self.senders.len())
    }

    /// Routes one request to its shard. Batches are flushed to the worker
    /// when full; a full worker queue blocks here (backpressure), which is
    /// what bounds memory when the router outruns the shards.
    pub fn handle(&mut self, request: &Request) {
        let shard = self.shard_of(request.object);
        self.buffers[shard].push(*request);
        if self.buffers[shard].len() >= self.batch_size {
            let batch = std::mem::replace(
                &mut self.buffers[shard],
                Vec::with_capacity(self.batch_size),
            );
            self.senders[shard]
                .send(batch)
                .expect("shard worker exited early");
        }
    }

    /// Flushes all partially filled routing buffers to the workers.
    pub fn flush(&mut self) {
        for (shard, buffer) in self.buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                let batch = std::mem::take(buffer);
                self.senders[shard]
                    .send(batch)
                    .expect("shard worker exited early");
            }
        }
    }

    /// Flushes, stops the workers, and returns the per-shard report.
    pub fn finish(mut self) -> ShardReport {
        self.flush();
        self.senders.clear(); // drop all senders: workers drain and exit
        let mut shards: Vec<ShardStatus> = self
            .workers
            .drain(..)
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        shards.sort_by_key(|s| s.shard);
        ShardReport { shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, id: u64, size: u64) -> Request {
        Request::new(t, id, size)
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8, 16] {
            for id in 0..500u64 {
                let s = shard_of(ObjectId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(ObjectId(id), n), "routing must be pure");
            }
        }
    }

    #[test]
    fn routing_is_stable_across_releases() {
        // Pinned values: the hash is part of the serving contract (a
        // changed mixer would silently re-partition a warm fleet).
        assert_eq!(shard_of(ObjectId(0), 4), 3);
        assert_eq!(shard_of(ObjectId(1), 4), 2);
        assert_eq!(shard_of(ObjectId(2), 4), 2);
        assert_eq!(shard_of(ObjectId(42), 4), 2);
        assert_eq!(shard_of(ObjectId(u64::MAX), 4), 3);
    }

    #[test]
    fn routing_spreads_objects_roughly_evenly() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8_000u64 {
            counts[shard_of(ObjectId(id), n)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (800..=1200).contains(&c),
                "shard {shard} got {c} of 8000 objects"
            );
        }
    }

    #[test]
    fn one_shard_gets_the_full_capacity_and_serves() {
        let mut sharded = ShardedLfoCache::new(1_000, LfoConfig::default(), 1);
        assert_eq!(sharded.capacity(), 1_000);
        for i in 0..100u64 {
            sharded.handle(&req(i, i % 7, 90));
        }
        let report = sharded.finish();
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].capacity, 1_000);
        let total = report.total();
        assert_eq!(total.requests, 100);
        assert!(total.used_bytes <= 1_000);
    }

    #[test]
    fn partitioned_capacity_split_sums_exactly() {
        let params = ShardParams {
            mode: ShardMode::Partitioned,
            ..ShardParams::with_shards(4)
        };
        let sharded =
            ShardedLfoCache::with_params(1_003, LfoConfig::default(), params, ModelSlot::new());
        let report = sharded.finish();
        let caps: Vec<u64> = report.shards.iter().map(|s| s.capacity).collect();
        assert_eq!(caps.iter().sum::<u64>(), 1_003);
        assert_eq!(caps, vec![251, 251, 251, 250]);
    }

    #[test]
    fn pooled_shards_respect_the_fleet_budget() {
        // Every shard sees the full capacity, but the pool keeps the sum of
        // resident bytes at (or under) the fleet budget; with the LRU
        // fallback admitting everything, evictions must kick in.
        let mut sharded = ShardedLfoCache::new(1_000, LfoConfig::default(), 4);
        for i in 0..500u64 {
            sharded.handle(&req(i, i % 53, 90));
        }
        let report = sharded.finish();
        assert!(report.shards.iter().all(|s| s.capacity == 1_000));
        let total = report.total();
        // A shard that does not own the global eviction frontier defers
        // reclaim to the owner's next request, so the pool may end over
        // budget transiently — but never past the 2× hard valve (which
        // evicts locally regardless of frontier ownership) plus one
        // in-flight admission per other shard racing the valve check.
        assert!(
            total.used_bytes < 2 * 1_000 + 3 * 90,
            "pool overshot the hard valve: {} bytes resident",
            total.used_bytes
        );
        assert!(total.evictions > 0);
    }

    #[test]
    fn aggregate_is_exactly_the_sum_of_shards() {
        let mut sharded = ShardedLfoCache::new(10_000, LfoConfig::default(), 4);
        for i in 0..2_000u64 {
            sharded.handle(&req(i, i % 101, 50 + i % 40));
        }
        let report = sharded.finish();
        let total = report.total();
        let mut manual = CacheMetrics::default();
        for s in &report.shards {
            manual.add(&s.metrics);
        }
        assert_eq!(total, manual);
        assert_eq!(total.requests, 2_000);
        assert_eq!(
            total.hits + total.admitted_misses + total.bypassed_misses,
            2_000
        );
    }

    #[test]
    fn report_carries_metadata_footprints() {
        let mut sharded = ShardedLfoCache::new(100_000, LfoConfig::default(), 2);
        for i in 0..200u64 {
            sharded.handle(&req(i, i % 37, 60));
        }
        let report = sharded.finish();
        assert!(report.shards.iter().all(|s| s.tracker_bytes > 0));
        assert!(report.shards.iter().all(|s| s.index_bytes > 0));
        // LRU fallback: no model published, so no model footprint.
        assert!(report.shards.iter().all(|s| s.model_bytes == 0));
        assert!(report.metadata_bytes() > 0);
        assert!(report.metadata_bytes_per_object() > 0.0);
        // The per-object number covers at least one index entry per object.
        assert!(report.metadata_bytes_per_object() >= 32.0);
    }

    #[test]
    fn pooled_bounded_fleet_shares_one_doorkeeper_sketch() {
        use crate::features::TrackerBudget;
        let config = LfoConfig {
            tracker_budget: Some(TrackerBudget::capped(64)),
            ..LfoConfig::default()
        };
        let mut sharded = ShardedLfoCache::with_params(
            100_000,
            config,
            ShardParams::with_shards(4),
            ModelSlot::new(),
        );
        let pool = sharded.sketch_pool().expect("bounded pooled fleet shares");
        let fleet_sketch = pool.sketch_bytes() as u64;
        assert!(fleet_sketch > 0);
        for i in 0..600u64 {
            sharded.handle(&req(i, i % 90, 60));
        }
        let report = sharded.finish();
        // Every shard reports the same borrowed sketch, and the fleet
        // report counts it once — not once per shard.
        assert!(report
            .shards
            .iter()
            .all(|s| s.shared_sketch_bytes == fleet_sketch));
        let per_shard: u64 = report
            .shards
            .iter()
            .map(|s| s.tracker_bytes + s.index_bytes)
            .sum();
        assert_eq!(report.metadata_bytes(), per_shard + fleet_sketch);
        // Shards saw traffic and share first sightings through the pool.
        assert_eq!(report.total().requests, 600);
    }

    #[test]
    fn shared_sketch_is_inert_for_unbounded_or_partitioned_fleets() {
        use crate::features::TrackerBudget;
        // Default (unbounded) config: nothing to share.
        let sharded = ShardedLfoCache::new(10_000, LfoConfig::default(), 2);
        assert!(sharded.sketch_pool().is_none());
        sharded.finish();
        // Partitioned mode keeps trackers private even with a budget.
        let config = LfoConfig {
            tracker_budget: Some(TrackerBudget::capped(64)),
            ..LfoConfig::default()
        };
        let params = ShardParams {
            mode: ShardMode::Partitioned,
            ..ShardParams::with_shards(2)
        };
        let sharded = ShardedLfoCache::with_params(10_000, config, params, ModelSlot::new());
        assert!(sharded.sketch_pool().is_none());
        let report = sharded.finish();
        assert!(report.shards.iter().all(|s| s.shared_sketch_bytes == 0));
    }

    #[test]
    fn bounded_metadata_accounting_is_pinned_per_fleet_setup() {
        use crate::features::TrackerBudget;
        // A sketch large enough that the 90 ids never share a bucket: the
        // pooled fleet's promotions then cannot depend on how the two
        // shards interleave, and no evictions keep the index exact.
        let budget = TrackerBudget {
            max_objects: 64,
            sketch_bits: 18,
            ..TrackerBudget::default()
        };
        let probe = SharedDoorkeeper::new(budget, 1);
        let buckets: std::collections::HashSet<usize> =
            (0..90u64).map(|id| probe.bucket(ObjectId(id))).collect();
        assert_eq!(buckets.len(), 90);
        let config = LfoConfig {
            tracker_budget: Some(budget),
            ..LfoConfig::default()
        };
        let trace: Vec<Request> = (0..600u64).map(|i| req(i, i % 90, 60)).collect();
        let replay = |params: ShardParams| {
            let mut sharded =
                ShardedLfoCache::with_params(1_000_000, config.clone(), params, ModelSlot::new());
            for r in &trace {
                sharded.handle(r);
            }
            sharded.finish().metadata_bytes()
        };
        let two = ShardParams::with_shards(2);
        // Pooled: one fleet sketch, counted once.
        assert_eq!(replay(two), 1_061_680);
        // Per-shard sketches: each shard owns one, and each is counted.
        let per_shard = ShardParams {
            shared_sketch: false,
            ..two
        };
        assert_eq!(replay(per_shard), 2_115_722);
        let partitioned = ShardParams {
            mode: ShardMode::Partitioned,
            ..two
        };
        assert_eq!(replay(partitioned), 2_115_722);
        // An unsharded bounded tracker counts its own sketch.
        let mut tracker = config.tracker();
        for r in &trace {
            tracker.record(r);
        }
        assert_eq!(tracker.approximate_bytes(), 1_053_760);
    }

    #[test]
    fn flush_is_idempotent_and_finish_drains_partial_batches() {
        let mut sharded = ShardedLfoCache::new(5_000, LfoConfig::default(), 2);
        for i in 0..13u64 {
            sharded.handle(&req(i, i, 10));
        }
        sharded.flush();
        sharded.flush();
        sharded.handle(&req(13, 13, 10));
        let report = sharded.finish();
        assert_eq!(report.total().requests, 14);
    }
}
