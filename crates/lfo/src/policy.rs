//! The LFO caching policy (paper §2.4).
//!
//! "For every request, we call the LFO predictor to estimate how likely OPT
//! is going to cache the object. If the confidence is ≥ .5, we admit the
//! object into the cache. Furthermore, we rank objects in the cache by
//! their predicted likelihood. If we need to evict an object, we evict the
//! one with the smallest predicted likelihood. Finally, we re-evaluate the
//! likelihood of an object when it is requested again. So, it may happen
//! (unlike in existing systems), that a cache hit leads to the eviction of
//! the hit object (which matches OPT frequently doing the same)."
//!
//! Until the first model is installed, the policy falls back to LRU
//! (admit everything; recency as the likelihood), so the pipeline's first
//! window behaves like a plain cache while LFO collects its first OPT
//! labels.
//!
//! Victim selection is pluggable ([`EvictionStrategy`], DESIGN.md §14):
//! the reference path keeps a fully ordered `BTreeSet` queue (exact
//! minimum, O(log n) reorder per hit); sample-K scores K seeded-random
//! residents and evicts their minimum, making the hit path a pure O(1)
//! map update with no queue and no frontier-board traffic.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cdn_trace::{ObjectId, Request};
use gbdt::{BinMap, FlatModel, Model, Predicate, QuantizedModel};

use cdn_cache::cache::{CachePolicy, RequestOutcome};

use crate::config::{EvictionStrategy, LfoConfig, PolicyDesign};
use crate::features::FeatureTracker;
use crate::guardrail::{Guardrail, GuardrailConfig, GuardrailSnapshot};
use crate::sketchpool::SharedDoorkeeper;
use crate::splitmix64;

/// Index of the free-bytes feature in the tracker's row layout
/// (`[size, cost, free, gap_1..]`) — the feature shard invariants prune
/// against.
pub const FREE_FEATURE: usize = 2;

/// A model compiled for serving: the object that trains ([`Model`]) is not
/// the object that serves. Built once per publish inside [`ModelSlot`] so
/// every subscriber (each shard of a sharded cache) shares one copy of each
/// layout instead of recompiling per shard.
pub struct CompiledArtifact {
    /// The training-side ensemble (recursive walk; the compatibility path).
    pub model: Arc<Model>,
    /// Flat SoA layout, bit-equal to the recursive walk.
    pub flat: Arc<FlatModel>,
    /// Quantized integer-compare layout, present only when the publish
    /// carried the frozen training [`BinMap`] — absent, serving stays on
    /// the flat walk (no silent requantization against a mismatched grid).
    pub quantized: Option<Arc<QuantizedModel>>,
}

/// A shared publication point for trained models and admission cutoffs.
///
/// The staged pipeline's trainer publishes through a clone of the slot while
/// the cache serves requests on another thread; the cache notices the bumped
/// version on its next request and refreshes its local `Arc<Model>` — an
/// atomic rollout without locking the serving hot path (the fast path is a
/// single atomic load).
#[derive(Clone, Default)]
pub struct ModelSlot {
    inner: Arc<SlotInner>,
}

#[derive(Default)]
struct SlotInner {
    version: AtomicU64,
    state: Mutex<SlotState>,
}

#[derive(Clone, Default)]
struct SlotState {
    /// The compiled serving layouts, built once per publish so every
    /// subscriber (each shard of a sharded cache) shares one copy.
    artifact: Option<Arc<CompiledArtifact>>,
    cutoff: Option<f64>,
    /// Predicate-pruned variants of the published quantized model, keyed by
    /// `(feature, bound bits)`. Pooled shards present identical free-bytes
    /// bounds, so the whole fleet shares one pruned copy; cleared on every
    /// publish (a pruned variant is only valid for the model it came from).
    pruned: HashMap<(usize, u64), Arc<QuantizedModel>>,
}

impl ModelSlot {
    /// An empty slot (no model, no cutoff override).
    pub fn new() -> Self {
        ModelSlot::default()
    }

    /// Publishes a model and its admission cutoff as one rollout event.
    /// The flat serving layout is built here, once, not per subscriber;
    /// no quantized layout is compiled (see [`ModelSlot::publish_compiled`]).
    pub fn publish(&self, model: Arc<Model>, cutoff: f64) {
        self.publish_compiled(model, cutoff, None);
    }

    /// Publishes a model and cutoff, compiling the full serving artifact.
    /// When `bin_map` is the frozen grid the model was trained against, the
    /// quantized integer-compare layout is compiled here — once, at publish
    /// time — and every subscriber serves through it. A `None` or
    /// feature-count-mismatched map publishes flat-only (the caller is
    /// responsible for fingerprint gating; see `LfoArtifact::publish_to`).
    pub fn publish_compiled(&self, model: Arc<Model>, cutoff: f64, bin_map: Option<&BinMap>) {
        let flat = Arc::new(model.flatten());
        let quantized = bin_map
            .filter(|map| map.num_features() == model.num_features())
            .map(|map| Arc::new(model.quantize(map)));
        let artifact = Arc::new(CompiledArtifact {
            model,
            flat,
            quantized,
        });
        let mut state = self.inner.state.lock().expect("slot lock poisoned");
        state.artifact = Some(artifact);
        state.cutoff = Some(cutoff);
        state.pruned.clear();
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    /// Publishes a model, leaving the cutoff as previously published.
    pub fn publish_model(&self, model: Arc<Model>) {
        let flat = Arc::new(model.flatten());
        let artifact = Arc::new(CompiledArtifact {
            model,
            flat,
            quantized: None,
        });
        let mut state = self.inner.state.lock().expect("slot lock poisoned");
        state.artifact = Some(artifact);
        state.pruned.clear();
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    /// Publishes a cutoff, leaving the model as previously published.
    pub fn publish_cutoff(&self, cutoff: f64) {
        let mut state = self.inner.state.lock().expect("slot lock poisoned");
        state.cutoff = Some(cutoff);
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    /// The current publication version (bumped on every publish).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// Whether a model has ever been published.
    pub fn has_model(&self) -> bool {
        self.inner
            .state
            .lock()
            .expect("slot lock poisoned")
            .artifact
            .is_some()
    }

    /// The currently published compiled artifact, if any.
    pub fn compiled(&self) -> Option<Arc<CompiledArtifact>> {
        self.inner
            .state
            .lock()
            .expect("slot lock poisoned")
            .artifact
            .clone()
    }

    /// The published quantized model specialized against a shard invariant
    /// `features[free_feature] ∈ [0, free_max]`, memoized so pooled shards
    /// (which all present the pool's capacity as their bound) share one
    /// pruned copy. `None` when the current publish carries no quantized
    /// layout. The memo is cleared on every publish.
    pub fn pruned_for(&self, free_feature: usize, free_max: f64) -> Option<Arc<QuantizedModel>> {
        let mut state = self.inner.state.lock().expect("slot lock poisoned");
        let quant = state.artifact.as_ref()?.quantized.clone()?;
        let key = (free_feature, free_max.to_bits());
        if let Some(pruned) = state.pruned.get(&key) {
            return Some(pruned.clone());
        }
        let pruned = Arc::new(quant.prune(&[Predicate::range(free_feature, 0.0, free_max as f32)]));
        state.pruned.insert(key, pruned.clone());
        Some(pruned)
    }

    /// A consistent (version, compiled artifact, cutoff) snapshot.
    fn snapshot(&self) -> (u64, Option<Arc<CompiledArtifact>>, Option<f64>) {
        let state = self.inner.state.lock().expect("slot lock poisoned");
        let version = self.inner.version.load(Ordering::Acquire);
        (version, state.artifact.clone(), state.cutoff)
    }
}

/// A fleet-wide byte pool shared by the shards of a sharded cache
/// (memcached-style: the object *index* is partitioned, the memory is
/// not). Every member adds its admissions and subtracts its evictions, so
/// `capacity − used` is the same global free-bytes signal an unsharded
/// cache would present to the model, and the pool's budget — not the
/// shard's — decides when eviction is needed.
///
/// The pool also carries a **frontier board**: each member publishes the
/// priority of its weakest resident (its local eviction frontier) after
/// every queue mutation. When the pool needs bytes back, only members
/// whose frontier is within [`FRONTIER_SLACK`] of the *global* minimum
/// evict; everyone else defers, leaving a transient overshoot that the
/// first near-frontier member to see traffic reclaims. That approximates
/// the unsharded cache's victim selection (always the global minimum)
/// without any cross-thread eviction — the board is one relaxed atomic
/// store per queue mutation, read at eviction time only.
#[derive(Clone)]
pub struct SharedOccupancy {
    /// Total byte capacity of the pool.
    capacity: u64,
    /// Bytes resident across all member caches.
    used: Arc<AtomicU64>,
    /// Per-member eviction-frontier priorities as `f64::to_bits` (monotone
    /// for the nonnegative priorities the policy produces); `u64::MAX`
    /// means the member holds nothing.
    frontiers: Arc<Vec<AtomicU64>>,
}

impl SharedOccupancy {
    /// A fresh pool of `capacity` total bytes shared by `members` caches.
    pub fn new(capacity: u64, members: usize) -> Self {
        SharedOccupancy {
            capacity,
            used: Arc::new(AtomicU64::new(0)),
            frontiers: Arc::new(
                (0..members.max(1))
                    .map(|_| AtomicU64::new(u64::MAX))
                    .collect(),
            ),
        }
    }

    /// The pool's total byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident across all members.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The pool-wide free bytes right now.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    fn add(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn set_frontier(&self, member: usize, bits: u64) {
        self.frontiers[member].store(bits, Ordering::Relaxed);
    }

    /// The lowest frontier priority on the board (`+inf` when every member
    /// is empty).
    fn min_frontier(&self) -> f64 {
        self.frontiers.iter().fold(f64::INFINITY, |min, f| {
            let bits = f.load(Ordering::Relaxed);
            if bits == u64::MAX {
                min
            } else {
                min.min(f64::from_bits(bits))
            }
        })
    }
}

/// How far above the pool's global minimum frontier a member's own
/// frontier may sit while still evicting for the pool. Zero would force
/// every reclaim through the single member holding the exact minimum
/// (overshoot then lives until *that* member sees traffic); a small slack
/// lets any member whose weakest resident is nearly as weak reclaim
/// immediately, at the cost of victims up to this much likelihood above
/// the unsharded cache's choice.
const FRONTIER_SLACK: f64 = 0.20;

/// Priority key in the eviction queue (ordered ascending: victim first).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Priority(f64);

impl Eq for Priority {}
impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Priority {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    priority: Priority,
    tiebreak: u64,
    size: u64,
    /// This object's position in the sample-K slots vector (unused —
    /// always 0 — under the exact queue).
    slot: usize,
}

/// The eviction index behind [`EvictionStrategy`] (DESIGN.md §14).
enum EvictIndex {
    /// Fully ordered priority queue: exact minimum, O(log n) per mutation.
    Exact(BTreeSet<(Priority, u64, ObjectId)>),
    /// Sample-K: a flat resident vector sampled at eviction time. Hits
    /// never touch it; insert is a push, removal a swap_remove.
    Sampled {
        slots: Vec<ObjectId>,
        k: usize,
        /// Counter state of the splitmix64 sampling stream.
        rng: u64,
    },
}

impl EvictIndex {
    fn for_strategy(strategy: EvictionStrategy) -> Self {
        match strategy {
            EvictionStrategy::ExactQueue => EvictIndex::Exact(BTreeSet::new()),
            EvictionStrategy::SampleK { k, seed } => EvictIndex::Sampled {
                slots: Vec::new(),
                k: k.max(1),
                rng: seed,
            },
        }
    }
}

/// The LFO cache: confidence-ranked admission and eviction.
pub struct LfoCache {
    capacity: u64,
    used: u64,
    config: LfoConfig,
    model: Option<Arc<Model>>,
    /// Flattened serving layout of `model` (same publication); the fallback
    /// hot path scores with this when no quantized layout was published.
    flat: Option<Arc<FlatModel>>,
    /// Quantized serving engine — the published quantized layout pruned
    /// against this cache's free-bytes invariant (`free ∈ [0, bound]`).
    /// Preferred over `flat` when present; refreshed on every publish and
    /// whenever the bound changes (`join_pool`, `set_feature_free_scale`).
    quantized: Option<Arc<QuantizedModel>>,
    slot: ModelSlot,
    slot_seen: u64,
    tracker: FeatureTracker,
    /// Reusable feature-row buffer: the serving hot path performs no
    /// per-request heap allocation (sampling clones out of it only when the
    /// stride fires).
    scratch: Vec<f32>,
    /// Reusable binned-row buffer for the quantized encoder (same
    /// zero-allocation contract as `scratch`).
    bin_scratch: Vec<u16>,
    /// Multiplier applied to the free-bytes feature before scoring (not to
    /// the actual accounting). See [`LfoCache::set_feature_free_scale`].
    free_scale: u64,
    /// Fleet-wide occupancy the free-bytes feature, admission budget, and
    /// eviction coordination are derived from when shards share one pool.
    /// See [`LfoCache::join_pool`].
    shared: Option<SharedOccupancy>,
    /// This cache's slot on the pool's frontier board (0 when unpooled).
    member: usize,
    index: EvictIndex,
    entries: HashMap<ObjectId, Entry>,
    tick: u64,
    /// Sampling stride for live feature rows (0 = sampling off).
    sample_every: usize,
    /// Sampled live feature rows since the last
    /// [`LfoCache::take_feature_samples`] — the drift gate's view of the
    /// serving-side distribution.
    samples: Vec<Vec<f32>>,
    /// Count of hits whose re-scoring dropped the object below every other
    /// resident (the paper's "a hit may evict the hit object" events are a
    /// subset of these).
    pub rescored_to_bottom: u64,
    /// Objects evicted over the cache's lifetime.
    pub evictions: u64,
    /// Runtime learned-vs-LRU guardrail (DESIGN.md §13); absent by
    /// default, in which case the serving path is untouched.
    guardrail: Option<Guardrail>,
}

impl LfoCache {
    /// Creates an LFO cache of `capacity` bytes with no model installed
    /// (LRU fallback until [`LfoCache::install_model`] is called).
    pub fn new(capacity: u64, config: LfoConfig) -> Self {
        LfoCache::with_slot(capacity, config, ModelSlot::new())
    }

    /// Creates an LFO cache attached to an externally shared [`ModelSlot`];
    /// models published through any clone of the slot (e.g. from a trainer
    /// thread) roll out on the cache's next request.
    pub fn with_slot(capacity: u64, config: LfoConfig, slot: ModelSlot) -> Self {
        let tracker = config.tracker();
        let index = EvictIndex::for_strategy(config.eviction_strategy());
        let mut cache = LfoCache {
            capacity,
            used: 0,
            config,
            model: None,
            flat: None,
            quantized: None,
            slot,
            slot_seen: 0,
            tracker,
            scratch: Vec::new(),
            bin_scratch: Vec::new(),
            free_scale: 1,
            shared: None,
            member: 0,
            index,
            entries: HashMap::new(),
            tick: 0,
            sample_every: 0,
            samples: Vec::new(),
            rescored_to_bottom: 0,
            evictions: 0,
            guardrail: None,
        };
        cache.sync_slot();
        cache
    }

    /// The publication slot this cache refreshes from.
    pub fn slot(&self) -> &ModelSlot {
        &self.slot
    }

    /// Installs (or replaces) the trained model; subsequent requests are
    /// scored with it. Existing residents keep their old priorities until
    /// re-requested, exactly like a production rollout would.
    pub fn install_model(&mut self, model: Arc<Model>) {
        self.slot.publish_model(model);
        self.sync_slot();
    }

    /// Whether a model is installed (directly or via the shared slot).
    pub fn has_model(&self) -> bool {
        self.slot.has_model()
    }

    /// Updates the admission cutoff (used by per-window cutoff tuning).
    pub fn set_cutoff(&mut self, cutoff: f64) {
        self.slot.publish_cutoff(cutoff);
        self.sync_slot();
    }

    /// Pulls the latest published (model, cutoff) out of the slot if its
    /// version moved. The fast path — no new publication — is one atomic
    /// load.
    fn sync_slot(&mut self) {
        if self.slot.version() == self.slot_seen {
            return;
        }
        let (version, artifact, cutoff) = self.slot.snapshot();
        if let Some(artifact) = artifact {
            self.model = Some(artifact.model.clone());
            self.flat = Some(artifact.flat.clone());
            self.refresh_engine();
        }
        if let Some(cutoff) = cutoff {
            self.config.cutoff = cutoff;
        }
        self.slot_seen = version;
    }

    /// The free-bytes feature never exceeds this bound for this cache: the
    /// pool's capacity when pooled (the feature is `pool.free()`), else this
    /// cache's capacity times the feature scale. Values presented to the
    /// model are monotone f32 roundings of integers ≤ the bound, so a
    /// predicate on `[0, bound]` is always satisfied — pruning is legal.
    fn free_feature_bound(&self) -> f64 {
        match &self.shared {
            Some(pool) => pool.capacity() as f64,
            None => self.capacity as f64 * self.free_scale as f64,
        }
    }

    /// Re-derives the quantized serving engine: the published quantized
    /// layout pruned against this cache's current free-bytes bound (shared
    /// across shards with the same bound via the slot's memo). Called after
    /// every publish and whenever the bound changes.
    fn refresh_engine(&mut self) {
        self.quantized = self
            .slot
            .pruned_for(FREE_FEATURE, self.free_feature_bound());
    }

    /// The inference engine the next request will be scored through.
    pub fn engine_label(&self) -> &'static str {
        if self.quantized.is_some() {
            "quantized+pruned"
        } else if self.flat.is_some() {
            "flat"
        } else if self.model.is_some() {
            "recursive"
        } else {
            "lru"
        }
    }

    /// The slot version this cache last synced to — in a sharded cache,
    /// equal across shards exactly when a rollout has reached all of them.
    pub fn model_version(&self) -> u64 {
        self.slot_seen
    }

    /// Scales the free-bytes *feature* presented to the model (cache
    /// accounting is untouched). A shard of a hash-partitioned cache holds
    /// `1/N` of the fleet's capacity, but the model is trained against the
    /// global cache's free bytes; without correction every shard looks
    /// nearly full to the model and admissions collapse. Presenting
    /// `free × N` restores the feature distribution the model was trained
    /// on. Defaults to 1 (a standalone cache reports its own free bytes).
    pub fn set_feature_free_scale(&mut self, scale: u64) {
        self.free_scale = scale.max(1);
        // The free-bytes bound moved: the pruned engine must match it.
        self.refresh_engine();
    }

    /// Joins a fleet-wide byte pool: the free-bytes feature, the admission
    /// budget, and the eviction trigger all come from the shared
    /// [`SharedOccupancy`] instead of this cache's own accounting (which
    /// keeps counting this cache's residents). Two failure modes of hard
    /// per-shard budgets disappear:
    ///
    /// - an object larger than `capacity/N` (but not than the fleet) stays
    ///   cacheable — the index is partitioned, the memory is not;
    /// - the model's free-bytes feedback stays on the trained trajectory.
    ///   Likelihoods *rise* as free bytes shrink (OPT's cache is full for
    ///   most of the training window), so a shard fed only its own scaled
    ///   free can latch empty: it never fills, and the model keeps
    ///   declining admission.
    ///
    /// Victim selection is coordinated through the pool's frontier board:
    /// this member evicts only while it owns the globally weakest resident,
    /// deferring otherwise so the owning member reclaims the overshoot on
    /// its next request — the same victims the unsharded cache would pick,
    /// without cross-thread eviction. The cost is schedule-exact
    /// reproducibility (the pool's value at a given request depends on the
    /// other members' progress). This cache's `capacity` should equal the
    /// pool's; `member` is this cache's slot on the frontier board.
    pub fn join_pool(&mut self, pool: SharedOccupancy, member: usize) {
        debug_assert_eq!(self.used, 0, "join_pool before serving");
        self.member = member;
        self.shared = Some(pool);
        // Decorrelate the members' sampling streams (member 0 keeps the
        // configured seed, so a 1-shard pool samples like an unsharded
        // cache).
        if member > 0 {
            if let EvictIndex::Sampled { rng, .. } = &mut self.index {
                *rng ^= splitmix64(member as u64);
            }
        }
        // The free-bytes bound is now the pool's capacity: re-prune.
        self.refresh_engine();
    }

    /// Joins a fleet-shared doorkeeper pool (DESIGN.md §16): the feature
    /// tracker is rebuilt on stripe `stripe` of `pool`, reading and
    /// CAS-advancing one fleet-wide sketch and parking promoted objects on
    /// its stripe of the shared GCLOCK ring, in place of the 1-stripe pool
    /// it owned — fleet doorkeeper metadata scales with the budget, not
    /// budget × shards, and shards share first-sighting evidence. A
    /// 1-stripe fleet pool makes the same decisions as the owned one
    /// (proptest-enforced in `tests/bounded_state.rs`). Like
    /// [`Self::join_pool`], call before serving — the rebuilt tracker
    /// starts empty.
    pub fn join_sketch_pool(&mut self, pool: Arc<SharedDoorkeeper>, stripe: usize) {
        debug_assert_eq!(self.tick, 0, "join_sketch_pool before serving");
        self.tracker = FeatureTracker::with_shared_pool(
            self.config.gaps(),
            self.config.cost_model,
            pool,
            stripe,
        );
    }

    /// Whether admitting `incoming` bytes would exceed the byte budget —
    /// the shared pool's if this cache joined one, else this cache's own.
    fn over_budget(&self, incoming: u64) -> bool {
        match &self.shared {
            Some(pool) => pool.used().saturating_add(incoming) > pool.capacity(),
            None => self.used + incoming > self.capacity,
        }
    }

    /// Current admission cutoff.
    pub fn cutoff(&self) -> f64 {
        self.config.cutoff
    }

    /// Eviction priority for an object under the configured design:
    /// raw likelihood for [`PolicyDesign::Paper`] and
    /// [`PolicyDesign::ProtectedAdmission`], expected saved miss cost per
    /// byte (`likelihood × C/S`) for [`PolicyDesign::DensityRanked`].
    fn eviction_priority(&self, likelihood: f64, size: u64) -> f64 {
        match self.config.design {
            PolicyDesign::Paper | PolicyDesign::ProtectedAdmission => likelihood,
            PolicyDesign::DensityRanked => {
                likelihood * self.config.cost_model.cost(size) as f64 / size as f64
            }
        }
    }

    /// The feature tracker (shared state with the training pipeline).
    pub fn tracker_mut(&mut self) -> &mut FeatureTracker {
        &mut self.tracker
    }

    /// Read-only view of the feature tracker.
    pub fn tracker(&self) -> &FeatureTracker {
        &self.tracker
    }

    /// Approximate heap bytes of the serving model layouts this cache holds
    /// references to (flat + quantized; the Arcs are shared across shards,
    /// so a sharded report should count this once, not per shard).
    pub fn model_footprint_bytes(&self) -> usize {
        self.flat.as_ref().map_or(0, |f| f.approximate_bytes())
            + self.quantized.as_ref().map_or(0, |q| q.approximate_bytes())
    }

    /// Approximate heap bytes of the admission/eviction index: one
    /// `HashMap` entry (key + [`Entry`] + bucket overhead) per resident,
    /// plus one `BTreeSet` key (exact queue) or one slot-vector id
    /// (sample-K) per resident.
    pub fn approximate_index_bytes(&self) -> usize {
        const MAP_ENTRY: usize = std::mem::size_of::<(ObjectId, Entry)>() + 16;
        match &self.index {
            EvictIndex::Exact(queue) => {
                const QUEUE_KEY: usize = std::mem::size_of::<(Priority, u64, ObjectId)>() + 8;
                self.entries.len() * MAP_ENTRY + queue.len() * QUEUE_KEY
            }
            EvictIndex::Sampled { slots, .. } => self.entries.len() * MAP_ENTRY + slots.len() * 8,
        }
    }

    /// Short label of the active eviction strategy (`"exact"` or
    /// `"sample<k>"`), for experiment rows.
    pub fn eviction_label(&self) -> String {
        match &self.index {
            EvictIndex::Exact(_) => "exact".to_string(),
            EvictIndex::Sampled { k, .. } => format!("sample{k}"),
        }
    }

    /// Approximate per-object metadata bytes the serving path keeps warm:
    /// feature-tracker history plus the admission/eviction index (model
    /// footprint excluded — it is shared, not per-object; see
    /// [`LfoCache::model_footprint_bytes`]).
    pub fn metadata_bytes(&self) -> usize {
        self.tracker.approximate_bytes() + self.approximate_index_bytes()
    }

    /// Starts sampling every `every`-th request's feature row (0 disables).
    /// The staged pipeline's drift gate uses this to compare the live
    /// serving distribution against each candidate's training window.
    pub fn enable_feature_sampling(&mut self, every: usize) {
        self.sample_every = every;
        self.samples.clear();
    }

    /// Takes the feature rows sampled since the last call (typically one
    /// serving window's worth), leaving the buffer empty.
    pub fn take_feature_samples(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.samples)
    }

    /// Predicted likelihood that OPT would cache this request, or `None`
    /// while no model is installed. Scored through the pruned quantized
    /// engine when the publish carried the training grid (the row is
    /// encoded to u16 bins in a reusable scratch buffer — no float compares
    /// and no allocation on the hot path), else through the flat SoA layout
    /// (bit-equal to `Model::predict_proba`).
    fn score(&mut self, features: &[f32]) -> Option<f64> {
        if let Some(quant) = &self.quantized {
            let mut bins = std::mem::take(&mut self.bin_scratch);
            quant.encode_row_into(features, &mut bins);
            let proba = quant.predict_proba_binned(&bins);
            self.bin_scratch = bins;
            return Some(proba);
        }
        match (&self.flat, &self.model) {
            (Some(flat), _) => Some(flat.predict_proba(features)),
            (None, Some(model)) => Some(model.predict_proba(features)),
            (None, None) => None,
        }
    }

    /// Inserts a new resident into the eviction index and entry map.
    fn insert_resident(&mut self, object: ObjectId, mut entry: Entry) {
        match &mut self.index {
            EvictIndex::Exact(queue) => {
                queue.insert((entry.priority, entry.tiebreak, object));
            }
            EvictIndex::Sampled { slots, .. } => {
                entry.slot = slots.len();
                slots.push(object);
            }
        }
        self.entries.insert(object, entry);
        self.publish_frontier();
    }

    /// Removes `victim` from both index and entry map, releasing its bytes.
    fn remove_resident(&mut self, victim: ObjectId) {
        let entry = self.entries.remove(&victim).expect("entry exists");
        match &mut self.index {
            EvictIndex::Exact(queue) => {
                let removed = queue.remove(&(entry.priority, entry.tiebreak, victim));
                debug_assert!(removed, "queue out of sync");
            }
            EvictIndex::Sampled { slots, .. } => {
                slots.swap_remove(entry.slot);
                if let Some(&moved) = slots.get(entry.slot) {
                    self.entries
                        .get_mut(&moved)
                        .expect("moved entry exists")
                        .slot = entry.slot;
                }
            }
        }
        self.used -= entry.size;
        if let Some(shared) = &self.shared {
            shared.sub(entry.size);
        }
        self.evictions += 1;
        self.publish_frontier();
    }

    /// The eviction-candidate key: the exact queue's global minimum, or the
    /// minimum of a fresh K-sample under sample-K. When `k >= residents`
    /// the sample degenerates to a full scan with zero RNG draws, which
    /// picks the identical `(priority, tiebreak, object)` minimum the
    /// exact queue would — the decision-identity the proptests pin down.
    fn weakest_key(&mut self) -> Option<(Priority, u64, ObjectId)> {
        match &mut self.index {
            EvictIndex::Exact(queue) => queue.iter().next().copied(),
            EvictIndex::Sampled { slots, k, rng } => {
                let len = slots.len();
                if len == 0 {
                    return None;
                }
                let entries = &self.entries;
                let key = |object: ObjectId| {
                    let e = &entries[&object];
                    (e.priority, e.tiebreak, object)
                };
                if *k >= len {
                    return slots.iter().map(|&o| key(o)).min();
                }
                let mut best: Option<(Priority, u64, ObjectId)> = None;
                for _ in 0..*k {
                    *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let i = (splitmix64(*rng) as usize) % len;
                    let candidate = key(slots[i]);
                    if best.is_none_or(|b| candidate < b) {
                        best = Some(candidate);
                    }
                }
                best
            }
        }
    }

    /// Evicts the weakest resident (exact minimum or sample-K minimum).
    fn evict_min(&mut self) {
        let (_, _, victim) = self.weakest_key().expect("nonempty");
        self.remove_resident(victim);
    }

    /// Posts this cache's eviction frontier (the priority of its weakest
    /// resident) to the pool's frontier board. Priorities are nonnegative,
    /// so their bit patterns order like the values. Sample-K caches keep
    /// no ordered frontier and never post: their pooled members always
    /// reclaim locally (see [`LfoCache::near_global_frontier`]).
    fn publish_frontier(&self) {
        let Some(pool) = &self.shared else { return };
        let EvictIndex::Exact(queue) = &self.index else {
            return;
        };
        let bits = match queue.iter().next() {
            Some(&(Priority(p), _, _)) => {
                debug_assert!(p >= 0.0, "priorities must stay nonnegative");
                p.to_bits()
            }
            None => u64::MAX,
        };
        pool.set_frontier(self.member, bits);
    }

    /// Whether this member's weakest resident is within [`FRONTIER_SLACK`]
    /// of the globally weakest on the pool's frontier board (trivially true
    /// when unpooled, or when this member IS the global minimum). Only
    /// near-frontier members evict for the pool: victims stay within the
    /// slack of what the unsharded cache would have picked, while any
    /// near-frontier member — not just the exact owner — can reclaim an
    /// overshoot as soon as it sees traffic. Sample-K members always
    /// answer true — without an ordered queue there is no cheap frontier,
    /// so each member reclaims pool overshoot with its own sampled victim
    /// (the board never enters the hot path, which is the point).
    fn near_global_frontier(&self) -> bool {
        let (Some(pool), EvictIndex::Exact(queue)) = (&self.shared, &self.index) else {
            return true;
        };
        match queue.iter().next() {
            Some(&(Priority(p), _, _)) => p <= pool.min_frontier() + FRONTIER_SLACK,
            None => true,
        }
    }

    /// Cooperative reclaim: if the pool is over budget (another member
    /// admitted and deferred eviction to the frontier owner), evict while
    /// this member owns the global frontier. Runs at the top of every
    /// request, so overshoot lives only until the owning shard's next
    /// request.
    fn trim_pool(&mut self) {
        loop {
            let over = match &self.shared {
                Some(pool) => pool.used() > pool.capacity(),
                None => return,
            };
            if !over || self.entries.is_empty() || !self.near_global_frontier() {
                return;
            }
            self.evict_min();
        }
    }

    /// Attaches the runtime learned-vs-LRU guardrail (DESIGN.md §13) with
    /// ghost capacity equal to this cache's own — correct for a standalone
    /// cache that sees the whole stream.
    pub fn enable_guardrail(&mut self, config: GuardrailConfig) {
        self.enable_guardrail_scoped(config, self.capacity);
    }

    /// Attaches the guardrail with an explicit shadow-capacity basis: a
    /// pooled shard's `capacity` field equals the whole pool's, but it
    /// serves only `1/N` of the stream, so its ghosts must model
    /// `pool capacity / N` for the shadow-LRU baseline to be comparable.
    ///
    /// A cache evicting by sample-K passes that K to its learned ghost
    /// (unless the config pins one explicitly), so probation is judged
    /// under the eviction discipline this cache actually serves with.
    ///
    /// A cache with a bounded tracker lends its doorkeeper to the
    /// guardrail, whether the doorkeeper is owned or a fleet pool's: the
    /// ghosts skip inserts for objects it has not cleared.
    pub fn enable_guardrail_scoped(&mut self, mut config: GuardrailConfig, shadow_capacity: u64) {
        if config.ghost_sample_k.is_none() {
            if let EvictionStrategy::SampleK { k, .. } = self.config.eviction_strategy() {
                config.ghost_sample_k = Some(u32::try_from(k).unwrap_or(u32::MAX));
            }
        }
        self.guardrail = Some(Guardrail::new(config, shadow_capacity));
    }

    /// Snapshot of the attached guardrail's state, or `None` when no
    /// guardrail is attached.
    pub fn guardrail(&self) -> Option<GuardrailSnapshot> {
        self.guardrail.as_ref().map(Guardrail::snapshot)
    }

    /// Trips fired since attachment, 0 without a guardrail (convenience
    /// for the per-window delta accounting in the pipeline collector).
    pub fn guardrail_trips(&self) -> u64 {
        self.guardrail.as_ref().map_or(0, |g| g.snapshot().trips)
    }

    /// The serving decision for one request, `likelihood` already resolved
    /// (guardrail-forced requests are handed the recency likelihood, so a
    /// forced cache is byte-for-byte the no-model LRU fallback). Split out
    /// of [`CachePolicy::handle`] so the guardrail can observe the outcome
    /// at a single point.
    fn serve_decision(
        &mut self,
        request: &Request,
        likelihood: f64,
        forced: bool,
    ) -> RequestOutcome {
        if let Some(&entry) = self.entries.get(&request.object) {
            // Re-evaluate on every hit; the hit object may become the
            // eviction frontier (and even be evicted by a later admission).
            let updated = Entry {
                priority: Priority(self.eviction_priority(likelihood, entry.size)),
                tiebreak: self.tick,
                size: entry.size,
                slot: entry.slot,
            };
            match &mut self.index {
                EvictIndex::Exact(queue) => {
                    let removed = queue.remove(&(entry.priority, entry.tiebreak, request.object));
                    debug_assert!(removed, "queue out of sync");
                    queue.insert((updated.priority, updated.tiebreak, request.object));
                }
                // Sample-K hit path: the map update below is the whole
                // reorder — no queue, O(1).
                EvictIndex::Sampled { .. } => {}
            }
            self.entries.insert(request.object, updated);
            self.publish_frontier();
            if let EvictIndex::Exact(queue) = &self.index {
                if let Some(&(_, _, frontier)) = queue.iter().next() {
                    if frontier == request.object {
                        self.rescored_to_bottom += 1;
                    }
                }
            }
            return RequestOutcome::Hit;
        }

        if request.size > self.capacity {
            return RequestOutcome::Miss { admitted: false };
        }
        let priority = self.eviction_priority(likelihood, request.size);
        // A guardrail-forced cache admits everything, like the no-model
        // LRU fallback.
        let admit = if self.model.is_some() && !forced {
            let above_cutoff = likelihood >= self.config.cutoff;
            match self.config.design {
                PolicyDesign::Paper | PolicyDesign::DensityRanked => above_cutoff,
                PolicyDesign::ProtectedAdmission => {
                    // The newcomer may only displace strictly weaker
                    // residents; with room to spare the cutoff decides.
                    // Under sample-K the probe is the same K-sample an
                    // eviction would draw.
                    above_cutoff
                        && (!self.over_budget(request.size)
                            || self
                                .weakest_key()
                                .map(|(Priority(p), _, _)| priority > p)
                                .unwrap_or(true))
                }
            }
        } else {
            true // LRU fallback admits everything
        };
        if !admit {
            return RequestOutcome::Miss { admitted: false };
        }
        while self.over_budget(request.size) {
            if self.entries.is_empty() {
                // Pooled mode only: this member has nothing left to evict;
                // the pool absorbs the transient overshoot and the next
                // admission on a fuller member reclaims it. (Unpooled, an
                // empty queue means used == 0 and the object fits.)
                break;
            }
            if let Some(pool) = &self.shared {
                // The globally weakest resident lives on another member:
                // admit over budget and let that member reclaim the bytes
                // on its next request (trim_pool), evicting the same
                // victim the unsharded cache would have picked. The 2×
                // valve bounds memory if the frontier owner is starved of
                // traffic — past it, evict locally regardless.
                let hard_cap = pool.capacity().saturating_mul(2);
                if !self.near_global_frontier() && pool.used() < hard_cap {
                    break;
                }
            }
            self.evict_min();
        }
        self.insert_resident(
            request.object,
            Entry {
                priority: Priority(priority),
                tiebreak: self.tick,
                size: request.size,
                slot: 0,
            },
        );
        self.used += request.size;
        if let Some(shared) = &self.shared {
            shared.add(request.size);
        }
        RequestOutcome::Miss { admitted: true }
    }
}

impl CachePolicy for LfoCache {
    fn name(&self) -> &'static str {
        "LFO"
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.entries.contains_key(&object)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn handle(&mut self, request: &Request) -> RequestOutcome {
        self.sync_slot();
        self.trim_pool();
        self.tick += 1;
        let free = match &self.shared {
            Some(shared) => shared.free(),
            None => (self.capacity - self.used).saturating_mul(self.free_scale),
        };
        // Build the feature row into the reusable scratch buffer: zero heap
        // allocation on the hot path (the buffer is moved out and back to
        // satisfy the borrow checker; a move is pointer-sized, not a copy).
        let features = {
            let mut scratch = std::mem::take(&mut self.scratch);
            self.tracker.features_into(request, free, &mut scratch);
            self.tracker.record(request);
            scratch
        };
        if self.sample_every != 0 && self.tick.is_multiple_of(self.sample_every as u64) {
            self.samples.push(features.clone());
        }
        // Likelihood that OPT caches this request; LRU fallback scores by
        // recency, normalized to stay within (0, 1).
        let recency = 1.0 - 1.0 / (1.0 + self.tick as f64);
        let likelihood = self.score(&features).unwrap_or(recency);
        self.scratch = features;

        // A tripped guardrail serves this request as LRU: recency
        // likelihood + admit-everything, exactly the no-model fallback.
        // Without a guardrail (or untripped) this is the identity.
        let forced = self.guardrail.as_ref().is_some_and(Guardrail::forced);
        let serve_likelihood = if forced { recency } else { likelihood };
        let outcome = self.serve_decision(request, serve_likelihood, forced);
        if self.guardrail.is_some() {
            // The learned policy's would-be decision for this request,
            // shadow-scored whether or not it was the one served.
            let admit = self.model.is_none() || likelihood >= self.config.cutoff;
            let priority = self.eviction_priority(likelihood, request.size);
            // `record` above already ran, so exact history exists iff the
            // doorkeeper has cleared this object (first sightings live only
            // in the sketch) — the evidence the guardrail filters its ghost
            // inserts on. An unbounded tracker has no doorkeeper and skips
            // the history lookup: the per-request probe costs real benign
            // throughput.
            let past_doorkeeper =
                !self.tracker.budget().is_bounded() || self.tracker.is_tracked(request.object);
            if let Some(guard) = self.guardrail.as_mut() {
                guard.record_shadowed(
                    request,
                    priority,
                    admit,
                    matches!(outcome, RequestOutcome::Hit),
                    past_doorkeeper,
                );
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt::{train, Dataset, GbdtParams};

    fn req(t: u64, id: u64, size: u64) -> Request {
        Request::new(t, id, size)
    }

    /// Training data for a model that predicts "cache" for small objects
    /// only: (size) → size < 500.
    fn small_object_training_data() -> Dataset {
        let cfg = LfoConfig::default();
        let rows: Vec<Vec<f32>> = (0..400)
            .map(|i| {
                let size = (i % 40) as f32 * 25.0 + 1.0;
                let mut row = vec![size, size, 1000.0];
                row.extend(std::iter::repeat_n(100.0, cfg.num_gaps));
                row
            })
            .collect();
        // Labels: small objects are always cacheable; mid-size objects
        // (200–500) only usually — so their predicted likelihood is
        // strictly between the small objects' and the large objects'.
        let labels: Vec<f32> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let size = r[0];
                if size < 200.0 {
                    1.0
                } else if size < 500.0 {
                    (i % 3 != 0) as u8 as f32
                } else {
                    0.0
                }
            })
            .collect();
        Dataset::from_rows(rows, labels).unwrap()
    }

    fn small_object_model() -> Arc<Model> {
        Arc::new(train(
            &small_object_training_data(),
            &GbdtParams::lfo_paper(),
        ))
    }

    #[test]
    fn falls_back_to_lru_without_model() {
        let mut c = LfoCache::new(30, LfoConfig::default());
        assert!(!c.has_model());
        c.handle(&req(0, 1, 10));
        c.handle(&req(1, 2, 10));
        c.handle(&req(2, 3, 10));
        c.handle(&req(3, 1, 10)); // touch 1
        c.handle(&req(4, 4, 10)); // evict 2 (lowest recency priority)
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
    }

    #[test]
    fn model_gates_admission() {
        let mut c = LfoCache::new(10_000, LfoConfig::default());
        c.install_model(small_object_model());
        let small = c.handle(&req(0, 1, 100));
        let large = c.handle(&req(1, 2, 900));
        assert_eq!(small, RequestOutcome::Miss { admitted: true });
        assert_eq!(large, RequestOutcome::Miss { admitted: false });
    }

    #[test]
    fn evicts_lowest_likelihood_first() {
        let mut c = LfoCache::new(700, LfoConfig::default());
        c.install_model(small_object_model());
        // Admit a mid-size (likelihood lower) and a small (higher).
        c.handle(&req(0, 1, 400)); // low-ish likelihood
        c.handle(&req(1, 2, 100)); // high likelihood
                                   // A new small object forces one eviction: the 400-byte object goes.
        c.handle(&req(2, 3, 300));
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
    }

    #[test]
    fn hit_rescoring_can_doom_the_hit_object() {
        let mut c = LfoCache::new(600, LfoConfig::default());
        c.install_model(small_object_model());
        c.handle(&req(0, 1, 450)); // admitted (size < 500)
        c.handle(&req(1, 2, 100));
        // Hit object 1: re-scored. It stays the lowest-likelihood resident,
        // so the next admission evicts it even though it just hit.
        assert!(c.handle(&req(2, 1, 450)).is_hit());
        c.handle(&req(3, 3, 200));
        assert!(
            !c.contains(ObjectId(1)),
            "hit object should have been evicted"
        );
        assert!(c.rescored_to_bottom > 0);
    }

    #[test]
    fn capacity_respected_with_and_without_model() {
        let mut c = LfoCache::new(1_000, LfoConfig::default());
        for i in 0..300u64 {
            c.handle(&req(i, i % 31, 90));
            assert!(c.used() <= c.capacity());
        }
        c.install_model(small_object_model());
        for i in 300..600u64 {
            c.handle(&req(i, i % 31, 90));
            assert!(c.used() <= c.capacity());
        }
    }

    #[test]
    fn protected_admission_never_displaces_stronger_residents() {
        let config = LfoConfig {
            design: PolicyDesign::ProtectedAdmission,
            ..Default::default()
        };
        let mut c = LfoCache::new(600, config);
        c.install_model(small_object_model());
        // Two high-likelihood small objects fill the cache.
        c.handle(&req(0, 1, 150));
        c.handle(&req(1, 2, 150));
        c.handle(&req(2, 3, 150));
        c.handle(&req(3, 4, 150));
        // A mid-size object (weaker likelihood) passes the cutoff but must
        // NOT be admitted: it would displace a stronger resident.
        let out = c.handle(&req(4, 5, 400));
        assert_eq!(out, RequestOutcome::Miss { admitted: false });
        for id in 1..=4u64 {
            assert!(c.contains(ObjectId(id)), "resident {id} displaced");
        }
    }

    #[test]
    fn protected_admission_admits_into_free_space() {
        let config = LfoConfig {
            design: PolicyDesign::ProtectedAdmission,
            ..Default::default()
        };
        let mut c = LfoCache::new(10_000, config);
        c.install_model(small_object_model());
        assert_eq!(
            c.handle(&req(0, 1, 400)),
            RequestOutcome::Miss { admitted: true }
        );
    }

    #[test]
    fn density_ranking_prefers_small_objects_under_ohr() {
        use cdn_trace::CostModel;
        let config = LfoConfig {
            design: PolicyDesign::DensityRanked,
            cost_model: CostModel::ObjectHitRatio,
            ..Default::default()
        };
        let mut c = LfoCache::new(600, config);
        c.install_model(small_object_model());
        // Small and mid-size object, similar likelihood class; under OHR
        // density ranking the big one has far lower priority per byte.
        c.handle(&req(0, 1, 400));
        c.handle(&req(1, 2, 100));
        c.handle(&req(2, 3, 150)); // needs 50 bytes: evicts the 400B object
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
    }

    #[test]
    fn cutoff_can_be_retuned() {
        let mut c = LfoCache::new(100, LfoConfig::default());
        assert_eq!(c.cutoff(), 0.5);
        c.set_cutoff(0.65);
        assert_eq!(c.cutoff(), 0.65);
    }

    #[test]
    fn slot_publication_rolls_out_between_requests() {
        let slot = ModelSlot::new();
        let mut c = LfoCache::with_slot(10_000, LfoConfig::default(), slot.clone());
        assert!(!c.has_model());
        // LRU fallback admits the large object.
        assert_eq!(
            c.handle(&req(0, 1, 900)),
            RequestOutcome::Miss { admitted: true }
        );
        // Publish through the shared handle (in the staged pipeline this
        // happens on the trainer thread).
        slot.publish(small_object_model(), 0.5);
        assert!(c.has_model());
        // The very next request is scored by the published model.
        assert_eq!(
            c.handle(&req(1, 2, 900)),
            RequestOutcome::Miss { admitted: false }
        );
    }

    #[test]
    fn slot_versions_and_prepublished_cutoff() {
        let slot = ModelSlot::new();
        assert_eq!(slot.version(), 0);
        slot.publish_cutoff(0.7);
        assert_eq!(slot.version(), 1);
        // The constructor syncs state already in the slot.
        let mut c = LfoCache::with_slot(100, LfoConfig::default(), slot.clone());
        assert_eq!(c.cutoff(), 0.7);
        c.set_cutoff(0.6);
        assert_eq!(slot.version(), 2);
        assert_eq!(c.cutoff(), 0.6);
    }

    #[test]
    fn feature_sampling_collects_and_drains() {
        let mut c = LfoCache::new(1_000, LfoConfig::default());
        assert!(c.take_feature_samples().is_empty());
        c.enable_feature_sampling(2);
        for i in 0..10u64 {
            c.handle(&req(i, i, 50));
        }
        let samples = c.take_feature_samples();
        assert_eq!(samples.len(), 5, "every 2nd of 10 requests");
        assert!(samples.iter().all(|r| r.len() == samples[0].len()));
        // Draining leaves the buffer empty for the next window.
        assert!(c.take_feature_samples().is_empty());
        c.enable_feature_sampling(0);
        c.handle(&req(10, 10, 50));
        assert!(c.take_feature_samples().is_empty(), "sampling disabled");
    }

    #[test]
    fn free_scale_inflates_the_free_bytes_feature_only() {
        let sample_free = |scale: u64| {
            let mut c = LfoCache::new(1_000, LfoConfig::default());
            c.set_feature_free_scale(scale);
            c.enable_feature_sampling(1);
            c.handle(&req(0, 1, 100));
            assert_eq!(c.used(), 100, "accounting must not be scaled");
            c.take_feature_samples()[0][2]
        };
        assert_eq!(sample_free(1), 1_000.0);
        assert_eq!(sample_free(4), 4_000.0);
        assert_eq!(sample_free(0), 1_000.0, "0 clamps to the identity");
    }

    #[test]
    fn pooled_members_defer_eviction_to_the_frontier_owner() {
        // Two caches share a 600-byte pool. A holds the globally weakest
        // resident (a mid-size object the model half-likes); B holds a
        // strong one. When B admits over budget it must NOT evict its own
        // strong resident — it defers, the pool overshoots transiently,
        // and A reclaims the bytes by evicting its weak resident on its
        // next request.
        let pool = SharedOccupancy::new(600, 2);
        let model = small_object_model();
        let mut a = LfoCache::new(600, LfoConfig::default());
        a.install_model(model.clone());
        a.join_pool(pool.clone(), 0);
        let mut b = LfoCache::new(600, LfoConfig::default());
        b.install_model(model);
        b.join_pool(pool.clone(), 1);

        assert_eq!(
            a.handle(&req(0, 1, 450)), // weak: likelihood ~0.6
            RequestOutcome::Miss { admitted: true }
        );
        b.handle(&req(1, 2, 100)); // strong: likelihood ~1.0
        assert_eq!(pool.used(), 550);

        // B admits another strong object: 650 > 600, but the global
        // frontier (A's weak resident) is more than FRONTIER_SLACK below
        // B's own, so B defers instead of evicting.
        assert_eq!(
            b.handle(&req(2, 3, 100)),
            RequestOutcome::Miss { admitted: true }
        );
        assert_eq!(b.evictions, 0, "B must not evict its stronger residents");
        assert_eq!(pool.used(), 650, "pool overshoots until the owner trims");

        // A's next request (a bypassed oversize probe) trims the pool: A
        // owns the frontier, so it evicts its weak resident.
        assert_eq!(
            a.handle(&req(3, 4, 900)),
            RequestOutcome::Miss { admitted: false }
        );
        assert_eq!(a.evictions, 1);
        assert!(!a.contains(ObjectId(1)));
        assert_eq!(pool.used(), 200);
    }

    #[test]
    fn oversized_objects_bypass() {
        let mut c = LfoCache::new(100, LfoConfig::default());
        assert_eq!(
            c.handle(&req(0, 1, 200)),
            RequestOutcome::Miss { admitted: false }
        );
    }

    #[test]
    fn quantized_publish_serves_identical_decisions() {
        // A publish that carries the training grid serves through the
        // pruned quantized engine; the training grid makes the compile
        // exact, so every admission and eviction matches the flat walk.
        let data = small_object_training_data();
        let params = GbdtParams::lfo_paper();
        let model = Arc::new(train(&data, &params));
        let map = gbdt::BinMap::fit(&data, params.max_bins);

        let drive = |slot: ModelSlot| {
            let mut c = LfoCache::with_slot(700, LfoConfig::default(), slot);
            (0..200u64)
                .map(|i| c.handle(&req(i, i % 17, (i % 40) * 25 + 1)))
                .collect::<Vec<_>>()
        };
        let flat_slot = ModelSlot::new();
        flat_slot.publish(model.clone(), 0.5);
        let quant_slot = ModelSlot::new();
        quant_slot.publish_compiled(model, 0.5, Some(&map));

        let probe = LfoCache::with_slot(700, LfoConfig::default(), quant_slot.clone());
        assert_eq!(probe.engine_label(), "quantized+pruned");
        let flat_probe = LfoCache::with_slot(700, LfoConfig::default(), flat_slot.clone());
        assert_eq!(flat_probe.engine_label(), "flat");

        assert_eq!(drive(flat_slot), drive(quant_slot));
    }

    #[test]
    fn pooled_shards_share_one_pruned_copy() {
        let data = small_object_training_data();
        let params = GbdtParams::lfo_paper();
        let model = Arc::new(train(&data, &params));
        let map = gbdt::BinMap::fit(&data, params.max_bins);
        let slot = ModelSlot::new();
        slot.publish_compiled(model, 0.5, Some(&map));

        let pool = SharedOccupancy::new(600, 2);
        let mut a = LfoCache::with_slot(600, LfoConfig::default(), slot.clone());
        a.join_pool(pool.clone(), 0);
        let mut b = LfoCache::with_slot(600, LfoConfig::default(), slot.clone());
        b.join_pool(pool.clone(), 1);

        let pa = a.quantized.clone().expect("pooled shard serves quantized");
        let pb = b.quantized.clone().expect("pooled shard serves quantized");
        assert!(
            Arc::ptr_eq(&pa, &pb),
            "shards with the same free bound must share one pruned copy"
        );
        let full = slot.compiled().unwrap().quantized.as_ref().unwrap().clone();
        assert!(
            pa.num_nodes() <= full.num_nodes(),
            "pruning must not grow the model"
        );
    }

    #[test]
    fn free_scale_change_rederives_the_pruned_engine() {
        let data = small_object_training_data();
        let params = GbdtParams::lfo_paper();
        let model = Arc::new(train(&data, &params));
        let map = gbdt::BinMap::fit(&data, params.max_bins);
        let slot = ModelSlot::new();
        slot.publish_compiled(model, 0.5, Some(&map));

        let mut c = LfoCache::with_slot(1_000, LfoConfig::default(), slot);
        let before = c.quantized.clone().unwrap();
        c.set_feature_free_scale(4);
        let after = c.quantized.clone().unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a new free bound must map to its own memo entry"
        );
        // The scaled bound covers the scaled feature, so decisions match a
        // flat-engine cache under the same scale.
        c.enable_feature_sampling(1);
        c.handle(&req(0, 1, 100));
        // The row is built before admission: free = 1000 × 4.
        assert_eq!(c.take_feature_samples()[0][2], 4_000.0);
    }

    fn sampled_config(k: usize) -> LfoConfig {
        LfoConfig {
            eviction: Some(EvictionStrategy::sample(k)),
            ..Default::default()
        }
    }

    /// A mixed-size request stream exercising hits, admissions, and
    /// evictions.
    fn mixed_stream(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| req(i, splitmix64(i) % 23, (splitmix64(i * 7 + 1) % 40) * 25 + 1))
            .collect()
    }

    #[test]
    fn sample_k_full_sampling_matches_exact_queue() {
        // k >= residents degenerates to an RNG-free full scan picking the
        // same (priority, tiebreak, object) minimum as the BTreeSet — every
        // outcome and the final resident set must coincide, with and
        // without a model. (The tests/bounded_state.rs proptest widens
        // this across seeds and capacities.)
        for model in [None, Some(small_object_model())] {
            let drive = |config: LfoConfig| {
                let mut c = LfoCache::new(2_000, config);
                if let Some(m) = &model {
                    c.install_model(m.clone());
                }
                let outcomes: Vec<_> = mixed_stream(500).iter().map(|r| c.handle(r)).collect();
                let mut residents: Vec<u64> = c.entries.keys().map(|o| o.0).collect();
                residents.sort_unstable();
                (outcomes, residents, c.used(), c.evictions)
            };
            assert_eq!(
                drive(LfoConfig::default()),
                drive(sampled_config(usize::MAX)),
                "model = {}",
                model.is_some()
            );
        }
    }

    #[test]
    fn sample_k_respects_capacity_and_evicts() {
        let mut c = LfoCache::new(1_500, sampled_config(4));
        c.install_model(small_object_model());
        for r in mixed_stream(800) {
            c.handle(&r);
            assert!(c.used() <= c.capacity());
        }
        assert!(c.evictions > 0, "sampled eviction never fired");
        assert_eq!(c.eviction_label(), "sample4");
        assert_eq!(
            LfoCache::new(10, LfoConfig::default()).eviction_label(),
            "exact"
        );
    }

    #[test]
    fn sampled_index_is_smaller_than_the_exact_queue() {
        let fill = |config: LfoConfig| {
            let mut c = LfoCache::new(1_000_000, config);
            for i in 0..500u64 {
                c.handle(&req(i, i, 100));
            }
            c.approximate_index_bytes()
        };
        assert!(fill(sampled_config(8)) < fill(LfoConfig::default()));
    }

    #[test]
    fn sampled_pooled_member_reclaims_overshoot_locally() {
        // Without a frontier board a sampled pooled member never defers:
        // pool overshoot is absorbed when the admitting member has nothing
        // to evict (B below), and reclaimed by the next member with
        // residents to give up (A's trim_pool), using its own sampled
        // victim — no frontier publishing anywhere.
        let pool = SharedOccupancy::new(600, 2);
        let mut a = LfoCache::new(600, sampled_config(8));
        a.join_pool(pool.clone(), 0);
        let mut b = LfoCache::new(600, sampled_config(8));
        b.join_pool(pool.clone(), 1);
        a.handle(&req(0, 1, 400));
        b.handle(&req(1, 2, 300)); // B is empty: overshoot absorbed
        assert_eq!(pool.used(), 700);
        a.handle(&req(2, 3, 100)); // A trims the pool with a local victim
        assert_eq!(pool.used(), 400);
        assert_eq!(a.evictions, 1);
        assert_eq!(b.evictions, 0);
    }

    #[test]
    fn guardrail_inherits_sample_k_from_the_eviction_strategy() {
        let mut sampled = LfoCache::new(1_000, sampled_config(16));
        sampled.enable_guardrail(GuardrailConfig::default());
        assert_eq!(
            sampled.guardrail.as_ref().unwrap().config().ghost_sample_k,
            Some(16)
        );
        let mut exact = LfoCache::new(1_000, LfoConfig::default());
        exact.enable_guardrail(GuardrailConfig::default());
        assert_eq!(
            exact.guardrail.as_ref().unwrap().config().ghost_sample_k,
            None
        );
        // An explicit pin survives the inheritance.
        let mut pinned = LfoCache::new(1_000, sampled_config(16));
        pinned.enable_guardrail(GuardrailConfig {
            ghost_sample_k: Some(4),
            ..GuardrailConfig::default()
        });
        assert_eq!(
            pinned.guardrail.as_ref().unwrap().config().ghost_sample_k,
            Some(4)
        );
    }

    #[test]
    fn metadata_accounting_tracks_residents() {
        let mut c = LfoCache::new(10_000, LfoConfig::default());
        assert_eq!(c.approximate_index_bytes(), 0);
        c.install_model(small_object_model());
        assert!(c.model_footprint_bytes() > 0, "flat layout counted");
        for i in 0..8u64 {
            c.handle(&req(i, i, 100));
        }
        assert!(c.approximate_index_bytes() > 0);
        assert!(c.metadata_bytes() >= c.approximate_index_bytes());
        assert!(c.tracker().approximate_bytes() > 0);
    }
}
