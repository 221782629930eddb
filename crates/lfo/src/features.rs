//! LFO's online features (paper §2.2).
//!
//! Four feature types per request:
//!
//! - **object size** in bytes;
//! - **most recent retrieval cost** of the object;
//! - **currently free bytes in the cache** — "useful because evictions can
//!   temporarily free up lots of space [...] If this happens, OPT and LFO
//!   are more likely to admit a new object";
//! - **time gaps between consecutive requests** to the object, up to the
//!   last 50 requests. Gaps are deltas between consecutive reference times
//!   (`t − t₁, t₁ − t₂, …`), which makes all but the first one *shift
//!   invariant* — the property the paper highlights for robustness,
//!   distinguishing LFO's features from LRU-K's absolute recencies.
//!
//! The tracker stores per-object reference times sparsely ("a large
//! fraction of CDN objects receives fewer than 5 requests", §2.2) and
//! exposes [`FeatureTracker::forget_older_than`] to bound memory on long
//! streams. For catalogs that dwarf RAM, a [`TrackerBudget`] caps the
//! number of exact gap vectors: one-hit wonders live in a compact
//! doorkeeper sketch (a seeded, direct-mapped array of last-seen times)
//! and are promoted to an exact history only on their second sighting;
//! promotion beyond the budget recycles through a GCLOCK ring, never a
//! full scan (DESIGN.md §14). Sketch and ring are always a
//! [`SharedDoorkeeper`]: a tracker built from a budget owns a 1-stripe
//! pool, and a fleet shard borrows one stripe of the fleet's pool
//! (DESIGN.md §16). The tracker itself keeps only the exact histories.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cdn_trace::{CostModel, ObjectId, Request};
use serde::{Deserialize, Serialize};

use crate::sketchpool::{SharedDoorkeeper, EMPTY_SLOT};

/// Default number of gaps tracked (the paper's 50).
pub const FEATURE_GAPS: usize = 50;

/// Sentinel value for "no such past request" gap slots. Chosen large so
/// that quantile binning puts all missing gaps into the top bin.
pub const MISSING_GAP: f32 = 1.0e12;

/// Memory budget for a [`FeatureTracker`] (DESIGN.md §14).
///
/// `max_objects == 0` (the default) disables bounding: the tracker keeps
/// an exact gap vector for every object ever seen. With a finite budget
/// the tracker holds at most `max_objects` exact histories; everything
/// else lives in the doorkeeper sketch, whose single timestamp per slot
/// yields a coarse `gap_1` (deeper gaps read as missing). An object is
/// promoted to an exact history only on its second sighting, filtering
/// the one-hit wonders that dominate CDN catalogs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerBudget {
    /// Maximum objects with exact gap history (0 = unbounded).
    pub max_objects: usize,
    /// log2 of the doorkeeper sketch slot count. 0 = auto: the smallest
    /// power of two with at least `4 × max_objects` slots.
    pub sketch_bits: u32,
    /// Seed for the sketch's slot hash.
    pub seed: u64,
}

impl Default for TrackerBudget {
    fn default() -> Self {
        TrackerBudget {
            max_objects: 0,
            sketch_bits: 0,
            seed: 0x1fe0_cdca_c4e5_eed5,
        }
    }
}

impl TrackerBudget {
    /// A bounded budget of `max_objects` with an auto-sized sketch.
    pub fn capped(max_objects: usize) -> Self {
        TrackerBudget {
            max_objects,
            ..TrackerBudget::default()
        }
    }

    /// Whether this budget actually bounds the tracker.
    pub fn is_bounded(&self) -> bool {
        self.max_objects > 0
    }

    /// Number of sketch slots (always a power of two; 0 when unbounded).
    pub(crate) fn slots(&self) -> usize {
        if !self.is_bounded() {
            return 0;
        }
        if self.sketch_bits > 0 {
            1usize << self.sketch_bits.min(30)
        } else {
            (4 * self.max_objects).next_power_of_two()
        }
    }
}

/// A bounded, serializable snapshot of tracker history.
///
/// The LFO model is only half of the learned state — its gap features come
/// from per-object request history, and a model scoring a history-less
/// tracker sees the missing-gap sentinel everywhere (every object looks
/// first-seen, so the admission filter bypasses the entire working set).
/// Persisting a snapshot of the hottest objects alongside the model lets a
/// restarted pipeline serve meaningful predictions from its first request.
///
/// The format is budget-agnostic: a snapshot taken from an exact tracker
/// loads into a bounded one (entries beyond the budget stay sketched)
/// and vice versa, which is what keeps pre-budget artifacts warm-starting
/// bounded caches.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrackerSnapshot {
    /// `(object id, reference times most recent first)`, ordered most
    /// recently touched first, truncated to the snapshot bound.
    pub entries: Vec<(u64, Vec<u64>)>,
}

impl TrackerSnapshot {
    /// Number of objects captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot captured nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Exact per-object state: reference times plus the global GCLOCK ring
/// slot owning this object (unused — always 0 — when unbounded).
#[derive(Debug)]
struct ObjectHistory {
    /// Reference times, most recent first, at most `depth + 1` entries.
    times: VecDeque<u64>,
    /// Index into the doorkeeper's GCLOCK ring.
    slot: usize,
}

/// A bounded tracker's doorkeeper: the pool holding the sketch and the
/// GCLOCK ring, plus the ring stripe this tracker parks promotions on.
#[derive(Debug)]
struct Doorkeeper {
    pool: Arc<SharedDoorkeeper>,
    stripe: usize,
    /// The tracker built this 1-stripe pool from its own budget, so the
    /// pool's sketch is part of the tracker's footprint. A borrowed fleet
    /// pool's sketch is counted once at the pool instead.
    owned: bool,
}

impl Doorkeeper {
    /// Parks `object` on this tracker's stripe, forgetting whichever live
    /// owner the stripe's GCLOCK sweep recycled. The pool never sees the
    /// history map, so the staleness check is handed over as a closure.
    fn promote(
        &self,
        history: &mut HashMap<ObjectId, ObjectHistory>,
        object: ObjectId,
        times: VecDeque<u64>,
    ) {
        let outcome = self
            .pool
            .stripe_promote(self.stripe, object, |owner, slot| {
                history.get(&owner).is_some_and(|h| h.slot == slot)
            });
        if let Some(victim) = outcome.evicted {
            history.remove(&victim);
        }
        history.insert(
            object,
            ObjectHistory {
                times,
                slot: outcome.slot,
            },
        );
    }
}

/// Tracks per-object request history and produces feature vectors.
#[derive(Debug)]
pub struct FeatureTracker {
    /// 1-based gap indices emitted as features, ascending. The dense
    /// default is `1..=n`; Figure 8's discussion suggests thinning to
    /// powers of two ("only using time gaps 1, 2, 4, 8, 16, etc.") to
    /// shrink the model without losing the long-range signal.
    schedule: Vec<usize>,
    /// Deepest gap tracked (`max(schedule)`).
    depth: usize,
    cost_model: CostModel,
    /// Exact histories. Bounded to `budget.max_objects` when the budget
    /// is finite.
    history: HashMap<ObjectId, ObjectHistory>,
    budget: TrackerBudget,
    /// Sketch and ring of a bounded tracker (`None` = unbounded).
    doorkeeper: Option<Doorkeeper>,
}

impl FeatureTracker {
    /// Creates an unbounded tracker for the dense schedule `1..=num_gaps`.
    pub fn new(num_gaps: usize, cost_model: CostModel) -> Self {
        Self::with_schedule((1..=num_gaps).collect(), cost_model)
    }

    /// Creates an unbounded tracker emitting only the given 1-based gap
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty, unsorted, non-unique, or contains 0.
    pub fn with_schedule(schedule: Vec<usize>, cost_model: CostModel) -> Self {
        Self::with_budget(schedule, cost_model, TrackerBudget::default())
    }

    /// Creates a tracker with an explicit [`TrackerBudget`]. A bounded
    /// budget builds a 1-stripe [`SharedDoorkeeper`] that this tracker
    /// owns outright.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty, unsorted, non-unique, or contains 0.
    pub fn with_budget(schedule: Vec<usize>, cost_model: CostModel, budget: TrackerBudget) -> Self {
        assert!(!schedule.is_empty(), "schedule must be non-empty");
        assert!(
            schedule.windows(2).all(|w| w[0] < w[1]) && schedule[0] >= 1,
            "schedule must be ascending, unique, 1-based"
        );
        let depth = *schedule.last().expect("non-empty");
        FeatureTracker {
            schedule,
            depth,
            cost_model,
            history: HashMap::new(),
            budget,
            doorkeeper: budget.is_bounded().then(|| Doorkeeper {
                pool: Arc::new(SharedDoorkeeper::new(budget, 1)),
                stripe: 0,
                owned: true,
            }),
        }
    }

    /// Creates a tracker borrowing a fleet-shared doorkeeper: sketch
    /// slots and GCLOCK recycling go through `pool` (on ring stripe
    /// `stripe`), and only the exact histories stay shard-local. The
    /// budget is the *pool's* budget — fleet-wide, not per-shard.
    ///
    /// An `Arc` cannot live inside the `Copy + Serialize`
    /// [`TrackerBudget`], so the shared variant is a runtime attachment
    /// (this constructor / [`crate::LfoCache::join_sketch_pool`]) rather
    /// than a budget field, mirroring how caches join a
    /// [`crate::policy::SharedOccupancy`] pool.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is invalid (as [`Self::with_budget`]) or
    /// `stripe` is out of range for the pool.
    pub fn with_shared_pool(
        schedule: Vec<usize>,
        cost_model: CostModel,
        pool: Arc<SharedDoorkeeper>,
        stripe: usize,
    ) -> Self {
        assert!(stripe < pool.stripes(), "stripe out of range");
        let mut tracker = Self::with_schedule(schedule, cost_model);
        tracker.budget = pool.budget();
        tracker.doorkeeper = Some(Doorkeeper {
            pool,
            stripe,
            owned: false,
        });
        tracker
    }

    /// The fleet-shared doorkeeper this tracker borrows, if any (`None`
    /// for unbounded trackers and for the 1-stripe pool a bounded tracker
    /// owns).
    pub fn shared_pool(&self) -> Option<&Arc<SharedDoorkeeper>> {
        self.doorkeeper
            .as_ref()
            .filter(|d| !d.owned)
            .map(|d| &d.pool)
    }

    /// Whether `object` currently has an exact (promoted) gap history —
    /// i.e. it has passed the doorkeeper. Unbounded trackers promote on
    /// first sighting, so this is simply "seen before" there.
    pub fn is_tracked(&self, object: ObjectId) -> bool {
        self.history.contains_key(&object)
    }

    /// Number of gap features produced.
    pub fn num_gaps(&self) -> usize {
        self.schedule.len()
    }

    /// The gap indices emitted as features.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// The memory budget this tracker was built with.
    pub fn budget(&self) -> TrackerBudget {
        self.budget
    }

    /// Number of objects with an exact gap history.
    pub fn tracked_objects(&self) -> usize {
        self.history.len()
    }

    /// Bytes held by the doorkeeper sketch this tracker owns (0 when
    /// unbounded or when the sketch is a borrowed fleet pool's).
    pub fn sketch_bytes(&self) -> usize {
        match &self.doorkeeper {
            Some(d) if d.owned => d.pool.sketch_bytes(),
            _ => 0,
        }
    }

    /// Builds the feature vector for `request` *before* recording it, with
    /// `free_bytes` as the current free-cache-space feature.
    ///
    /// Layout: `[size, cost, free, gap_1, ..., gap_n]`, matching
    /// [`crate::LfoConfig::feature_names`].
    pub fn features(&self, request: &Request, free_bytes: u64) -> Vec<f32> {
        let mut out = Vec::with_capacity(3 + self.schedule.len());
        self.features_into(request, free_bytes, &mut out);
        out
    }

    /// Like [`Self::features`], but writes into `out` (cleared first)
    /// instead of allocating — the serving hot path reuses one scratch
    /// buffer per cache instead of heap-allocating per request.
    pub fn features_into(&self, request: &Request, free_bytes: u64, out: &mut Vec<f32>) {
        out.clear();
        out.push(request.size as f32);
        out.push(self.cost_model.cost(request.size) as f32);
        out.push(free_bytes as f32);
        match self.history.get(&request.object) {
            Some(h) => {
                // gap_1 = now − t₁; gap_k = t_{k−1} − t_k (shift invariant).
                // Walk the dense gaps to the tracked depth, emitting only
                // the scheduled indices as they pass by.
                let mut prev = request.time;
                let mut next = 0usize; // index into the ascending schedule
                for k in 0..self.depth {
                    let gap = match h.times.get(k) {
                        Some(&t) => {
                            let g = prev.saturating_sub(t) as f32;
                            prev = t;
                            g
                        }
                        None => MISSING_GAP,
                    };
                    if self.schedule[next] == k + 1 {
                        out.push(gap);
                        next += 1;
                        if next == self.schedule.len() {
                            break;
                        }
                    }
                }
            }
            None => {
                // Unbounded trackers have never seen this object. Bounded
                // trackers may hold a first sighting in the sketch: emit a
                // coarse gap_1 (subject to slot collisions) so one-hit
                // wonders still look "recently seen once" to the model
                // rather than brand new.
                let coarse = self
                    .doorkeeper
                    .as_ref()
                    .map(|d| d.pool.load_slot(d.pool.bucket(request.object)))
                    .filter(|&t| t != EMPTY_SLOT)
                    .map(|t| request.time.saturating_sub(u64::from(t)) as f32);
                match coarse {
                    Some(gap) if self.schedule[0] == 1 => {
                        out.push(gap);
                        out.extend(std::iter::repeat_n(MISSING_GAP, self.schedule.len() - 1));
                    }
                    _ => out.extend(std::iter::repeat_n(MISSING_GAP, self.schedule.len())),
                }
            }
        }
    }

    /// Records a request into the history (call after [`Self::features`]).
    pub fn record(&mut self, request: &Request) {
        let Some(dk) = &self.doorkeeper else {
            let entry = self
                .history
                .entry(request.object)
                .or_insert_with(|| ObjectHistory {
                    times: VecDeque::new(),
                    slot: 0,
                });
            entry.times.push_front(request.time);
            entry.times.truncate(self.depth + 1);
            return;
        };
        let b = dk.pool.bucket(request.object);
        if let Some(h) = self.history.get_mut(&request.object) {
            h.times.push_front(request.time);
            h.times.truncate(self.depth + 1);
            dk.pool.reference(h.slot);
            dk.pool.update_slot(b, request.time);
            return;
        }
        // Slots only advance, so a racing shard's later time is kept.
        let prior = dk.pool.update_slot(b, request.time);
        if prior == EMPTY_SLOT {
            // Doorkeeper: a first sighting costs one sketch slot, nothing
            // more. One-hit wonders never allocate a history.
            return;
        }
        // Second sighting (or a slot collision promoting early): seed the
        // exact history with the sketched prior time so the next feature
        // row's gap_1/gap_2 match what an exact tracker would emit. On a
        // fleet pool another shard may have written the prior, at or past
        // this request's time; `min`/`<` keep the history monotonic.
        let prior = u64::from(prior);
        let mut times = VecDeque::with_capacity(2);
        times.push_front(prior.min(request.time));
        if prior < request.time {
            times.push_front(request.time);
        }
        dk.promote(&mut self.history, request.object, times);
    }

    /// Convenience: features, then record.
    pub fn observe(&mut self, request: &Request, free_bytes: u64) -> Vec<f32> {
        let f = self.features(request, free_bytes);
        self.record(request);
        f
    }

    /// Snapshots the histories of the `limit` most recently touched
    /// objects (ties broken by object id, so snapshots are deterministic).
    pub fn snapshot(&self, limit: usize) -> TrackerSnapshot {
        let mut order: Vec<(u64, u64)> = self
            .history
            .iter()
            .map(|(object, h)| (object.0, h.times.front().copied().unwrap_or(0)))
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let entries = order
            .into_iter()
            .take(limit)
            .filter_map(|(id, _)| {
                self.history
                    .get(&ObjectId(id))
                    .map(|h| (id, h.times.iter().copied().collect()))
            })
            .collect();
        TrackerSnapshot { entries }
    }

    /// Loads snapshot history into this tracker. Snapshot entries replace
    /// any same-object history; other state is kept. Histories deeper than
    /// this tracker's schedule are truncated, and a bounded tracker
    /// promotes entries in snapshot order (most recently touched first)
    /// while its ring stripe has room, sketching the rest — so an exact
    /// snapshot from a pre-budget artifact warm-starts a bounded tracker
    /// with its hottest objects.
    pub fn load_snapshot(&mut self, snapshot: &TrackerSnapshot) {
        for (id, times) in &snapshot.entries {
            let object = ObjectId(*id);
            let mut deque: VecDeque<u64> = times.iter().copied().collect();
            deque.truncate(self.depth + 1);
            let Some(dk) = &self.doorkeeper else {
                self.history.insert(
                    object,
                    ObjectHistory {
                        times: deque,
                        slot: 0,
                    },
                );
                continue;
            };
            if let Some(&latest) = deque.front() {
                dk.pool.update_slot(dk.pool.bucket(object), latest);
            }
            if let Some(h) = self.history.get_mut(&object) {
                h.times = deque;
                dk.pool.reference(h.slot);
            } else if dk.pool.stripe_has_room(dk.stripe) {
                dk.promote(&mut self.history, object, deque);
            }
            // else: stripe full — snapshot entries arrive hottest-first,
            // so the remainder are the coldest and stay sketched.
        }
    }

    /// Drops history for objects not touched since `time`, bounding memory
    /// on unbounded streams. Sketch slots older than `time` are wiped too,
    /// so forgotten one-hit wonders look brand new again. On a fleet pool
    /// the sketch wipe is fleet-wide (the sketch is fleet state); exact
    /// histories are only dropped locally.
    pub fn forget_older_than(&mut self, time: u64) {
        self.history
            .retain(|_, h| h.times.front().copied().unwrap_or(0) >= time);
        if let Some(dk) = &self.doorkeeper {
            dk.pool.forget_older_than(time);
        }
    }

    /// Approximate bytes of tracker state (the paper estimates 208 bytes
    /// per object for a naive dense representation; the sparse tracker
    /// only pays for requests actually seen). Covers the exact histories,
    /// the GCLOCK ring, and an owned doorkeeper sketch.
    pub fn approximate_bytes(&self) -> usize {
        let histories = self
            .history
            .values()
            .map(|h| 8 * h.times.len() + 56)
            .sum::<usize>();
        match &self.doorkeeper {
            None => histories,
            // An owned pool is private state: the ring slots parked so far
            // plus the whole sketch.
            Some(d) if d.owned => {
                histories + d.pool.stripe_parked_bytes(d.stripe) + d.pool.sketch_bytes()
            }
            // A fleet pool: this tracker pays for its ring stripe's share;
            // the fleet sketch is counted once at the pool
            // ([`SharedDoorkeeper::sketch_bytes`]), not here.
            Some(d) => histories + d.pool.stripe_ring_bytes(d.stripe),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    fn tracker() -> FeatureTracker {
        FeatureTracker::new(4, CostModel::ByteHitRatio)
    }

    fn bounded(max_objects: usize) -> FeatureTracker {
        FeatureTracker::with_budget(
            (1..=4).collect(),
            CostModel::ByteHitRatio,
            TrackerBudget::capped(max_objects),
        )
    }

    fn req(t: u64, id: u64, size: u64) -> Request {
        Request::new(t, id, size)
    }

    #[test]
    fn layout_and_basic_values() {
        let mut tr = tracker();
        let f = tr.observe(&req(100, 1, 512), 4096);
        assert_eq!(f.len(), 3 + 4);
        assert_eq!(f[0], 512.0); // size
        assert_eq!(f[1], 512.0); // cost = size under BHR
        assert_eq!(f[2], 4096.0); // free bytes
        assert!(f[3..].iter().all(|&g| g == MISSING_GAP));
    }

    #[test]
    fn gaps_are_consecutive_deltas() {
        let mut tr = tracker();
        tr.record(&req(10, 1, 100));
        tr.record(&req(25, 1, 100));
        tr.record(&req(31, 1, 100));
        let f = tr.features(&req(40, 1, 100), 0);
        // gap1 = 40-31, gap2 = 31-25, gap3 = 25-10, gap4 missing.
        assert_eq!(f[3], 9.0);
        assert_eq!(f[4], 6.0);
        assert_eq!(f[5], 15.0);
        assert_eq!(f[6], MISSING_GAP);
    }

    #[test]
    fn shift_invariance_of_deep_gaps() {
        // Shifting all times by a constant leaves gaps 2..n unchanged and
        // gap 1 unchanged too when the query time shifts equally.
        let mut a = tracker();
        let mut b = tracker();
        for &t in &[5u64, 9, 20] {
            a.record(&req(t, 1, 10));
            b.record(&req(t + 1000, 1, 10));
        }
        let fa = a.features(&req(30, 1, 10), 7);
        let fb = b.features(&req(1030, 1, 10), 7);
        assert_eq!(fa, fb);
    }

    #[test]
    fn history_is_bounded_per_object() {
        let mut tr = tracker();
        for t in 0..100 {
            tr.record(&req(t, 1, 10));
        }
        assert!(tr.history[&ObjectId(1)].times.len() <= 5);
    }

    #[test]
    fn cost_model_drives_cost_feature() {
        let mut tr = FeatureTracker::new(2, CostModel::ObjectHitRatio);
        let f = tr.observe(&req(0, 1, 9999), 0);
        assert_eq!(f[1], 1.0);
    }

    #[test]
    fn forgetting_drops_cold_objects() {
        let mut tr = tracker();
        tr.record(&req(10, 1, 10));
        tr.record(&req(500, 2, 10));
        tr.forget_older_than(100);
        assert_eq!(tr.tracked_objects(), 1);
        // Forgotten object looks brand new again.
        let f = tr.features(&req(600, 1, 10), 0);
        assert_eq!(f[3], MISSING_GAP);
    }

    #[test]
    fn observe_equals_features_then_record() {
        let mut a = tracker();
        let mut b = tracker();
        let r1 = req(5, 1, 10);
        let r2 = req(9, 1, 10);
        let fa1 = a.observe(&r1, 3);
        let fa2 = a.observe(&r2, 3);
        let fb1 = b.features(&r1, 3);
        b.record(&r1);
        let fb2 = b.features(&r2, 3);
        b.record(&r2);
        assert_eq!(fa1, fb1);
        assert_eq!(fa2, fb2);
    }

    #[test]
    fn thinned_schedule_emits_selected_gaps_only() {
        let mut tr = FeatureTracker::with_schedule(vec![1, 2, 4], CostModel::ByteHitRatio);
        for &t in &[10u64, 20, 26, 29, 31] {
            tr.record(&req(t, 1, 10));
        }
        let f = tr.features(&req(40, 1, 10), 0);
        assert_eq!(f.len(), 3 + 3);
        // Dense gaps would be [9, 2, 3, 6, 10]; schedule picks 1, 2, 4.
        assert_eq!(f[3], 9.0);
        assert_eq!(f[4], 2.0);
        assert_eq!(f[5], 6.0);
    }

    #[test]
    fn thinned_schedule_tracks_deep_history() {
        let mut tr = FeatureTracker::with_schedule(vec![1, 8], CostModel::ByteHitRatio);
        for t in 0..20u64 {
            tr.record(&req(t, 1, 10));
        }
        // Depth 8 means 9 retained reference times.
        assert_eq!(tr.history[&ObjectId(1)].times.len(), 9);
        let f = tr.features(&req(100, 1, 10), 0);
        assert_eq!(f[3], 81.0); // 100 - 19
        assert_eq!(f[4], 1.0); // consecutive unit gaps deep in history
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_schedule_rejected() {
        FeatureTracker::with_schedule(vec![2, 1], CostModel::ByteHitRatio);
    }

    #[test]
    fn features_into_matches_features_and_reuses_the_buffer() {
        let mut dense = FeatureTracker::new(6, CostModel::ByteHitRatio);
        let mut thinned = FeatureTracker::with_schedule(vec![1, 3, 6], CostModel::ByteHitRatio);
        let mut scratch = Vec::new();
        for t in 0..40u64 {
            let r = req(t * 3, t % 5, 10 + t);
            for tr in [&mut dense, &mut thinned] {
                let allocated = tr.features(&r, 17);
                tr.features_into(&r, 17, &mut scratch);
                assert_eq!(allocated, scratch);
            }
            dense.record(&r);
            thinned.record(&r);
        }
        // The scratch buffer's capacity stabilizes — no per-call growth.
        let cap = scratch.capacity();
        let r = req(1000, 1, 10);
        dense.features_into(&r, 0, &mut scratch);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn memory_estimate_grows_with_objects() {
        let mut tr = tracker();
        let before = tr.approximate_bytes();
        for i in 0..100 {
            tr.record(&req(i, i, 10));
        }
        assert!(tr.approximate_bytes() > before);
    }

    #[test]
    fn snapshot_roundtrip_restores_identical_features() {
        let mut tr = tracker();
        for t in 0..200u64 {
            tr.record(&req(t * 7, t % 13, 10 + t));
        }
        let snapshot = tr.snapshot(usize::MAX);
        let mut restored = tracker();
        restored.load_snapshot(&snapshot);
        for id in 0..13u64 {
            let probe = req(5_000, id, 64);
            assert_eq!(tr.features(&probe, 100), restored.features(&probe, 100));
        }
    }

    #[test]
    fn snapshot_bounds_to_most_recently_touched() {
        let mut tr = tracker();
        for t in 0..50u64 {
            tr.record(&req(t, t, 10)); // object id == touch time
        }
        let snapshot = tr.snapshot(5);
        assert_eq!(snapshot.len(), 5);
        // Most recently touched first: objects 49 down to 45.
        let ids: Vec<u64> = snapshot.entries.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![49, 48, 47, 46, 45]);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let mut tr = tracker();
        for t in 0..30u64 {
            tr.record(&req(t * 11, t % 4, 10));
        }
        let snapshot = tr.snapshot(usize::MAX);
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: TrackerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, back);
    }

    #[test]
    fn deep_snapshot_truncates_to_schedule_depth() {
        let mut deep = FeatureTracker::new(8, CostModel::ByteHitRatio);
        for t in 0..20u64 {
            deep.record(&req(t, 1, 10));
        }
        let mut shallow = tracker(); // depth 4
        shallow.load_snapshot(&deep.snapshot(usize::MAX));
        let probe = req(100, 1, 10);
        let f = shallow.features(&probe, 0);
        assert_eq!(f.len(), 3 + 4);
        assert!(f[3..].iter().all(|&g| g != MISSING_GAP));
    }

    // ---- bounded tracker (TrackerBudget, DESIGN.md §14) ----

    #[test]
    fn doorkeeper_defers_one_hit_wonders() {
        // Sketch sized so the 100 ids land in distinct buckets — a slot
        // collision deliberately promotes early, which is not under test
        // here (unbounded_budget_matches_exact_tracker_bit_for_bit covers
        // the collision-free contract at scale).
        let budget = TrackerBudget {
            max_objects: 8,
            sketch_bits: 18,
            ..TrackerBudget::default()
        };
        let mut tr =
            FeatureTracker::with_budget((1..=4).collect(), CostModel::ByteHitRatio, budget);
        for id in 0..100u64 {
            tr.record(&req(id, id, 10));
        }
        // Every object was seen exactly once: no exact history at all,
        // only sketch slots.
        assert_eq!(tr.tracked_objects(), 0);
        assert!(tr.sketch_bytes() > 0);
    }

    #[test]
    fn second_sighting_promotes_with_exact_seed_gaps() {
        let mut exact = tracker();
        let mut b = bounded(8);
        for tr in [&mut exact, &mut b] {
            tr.record(&req(10, 7, 10));
            tr.record(&req(25, 7, 10));
        }
        assert_eq!(b.tracked_objects(), 1);
        // Third row: gap_1 = 40-25, gap_2 = 25-10 — identical to exact.
        let probe = req(40, 7, 10);
        assert_eq!(b.features(&probe, 0), exact.features(&probe, 0));
    }

    #[test]
    fn sketched_object_reports_a_coarse_first_gap() {
        let mut tr = bounded(8);
        tr.record(&req(100, 3, 10));
        let f = tr.features(&req(130, 3, 10), 0);
        assert_eq!(f[3], 30.0); // coarse gap from the sketch slot
        assert!(f[4..].iter().all(|&g| g == MISSING_GAP));
    }

    #[test]
    fn clock_eviction_caps_tracked_objects() {
        let mut tr = bounded(4);
        // Promote 12 objects (two sightings each); the ring holds 4.
        for id in 0..12u64 {
            tr.record(&req(id * 10, id, 10));
            tr.record(&req(id * 10 + 5, id, 10));
        }
        assert_eq!(tr.tracked_objects(), 4);
    }

    #[test]
    fn clock_keeps_referenced_objects_over_idle_ones() {
        let mut tr = bounded(2);
        // Promote objects 1 and 2, then keep touching 1 only.
        for &(t, id) in &[(0u64, 1u64), (1, 2), (2, 1), (3, 2), (4, 1), (5, 1)] {
            tr.record(&req(t, id, 10));
        }
        // Promote a third object: the idle 2 must go, the hot 1 survives.
        tr.record(&req(6, 3, 10));
        tr.record(&req(7, 3, 10));
        assert_eq!(tr.tracked_objects(), 2);
        let f1 = tr.features(&req(10, 1, 10), 0);
        assert!(f1[4] != MISSING_GAP, "hot object lost its exact history");
    }

    #[test]
    fn unbounded_budget_matches_exact_tracker_bit_for_bit() {
        let mut exact = tracker();
        let mut b = FeatureTracker::with_budget(
            (1..=4).collect(),
            CostModel::ByteHitRatio,
            TrackerBudget::default(),
        );
        for t in 0..300u64 {
            let r = req(t * 3, splitmix64(t) % 40, 10 + t % 7);
            assert_eq!(exact.features(&r, 99), b.features(&r, 99));
            exact.record(&r);
            b.record(&r);
        }
    }

    #[test]
    fn forget_wipes_sketch_slots() {
        let mut tr = bounded(8);
        tr.record(&req(10, 1, 10));
        tr.forget_older_than(50);
        let f = tr.features(&req(60, 1, 10), 0);
        assert_eq!(f[3], MISSING_GAP, "stale sketch slot survived forget");
    }

    #[test]
    fn exact_snapshot_warm_starts_a_bounded_tracker() {
        let mut exact = tracker();
        for t in 0..200u64 {
            exact.record(&req(t, t % 20, 10));
        }
        let snapshot = exact.snapshot(usize::MAX);
        let mut b = bounded(6);
        b.load_snapshot(&snapshot);
        assert_eq!(b.tracked_objects(), 6);
        // The budgeted tracker kept the most recently touched entries
        // (snapshot order), and serves their exact gaps.
        let probe = req(500, 19, 10);
        assert_eq!(b.features(&probe, 0), exact.features(&probe, 0));
    }

    // ---- fleet-shared doorkeeper (SharedDoorkeeper, DESIGN.md §16) ----

    #[test]
    fn one_stripe_shared_pool_matches_the_private_bounded_tracker() {
        let budget = TrackerBudget::capped(8);
        let pool = Arc::new(SharedDoorkeeper::new(budget, 1));
        let mut private =
            FeatureTracker::with_budget((1..=4).collect(), CostModel::ByteHitRatio, budget);
        let mut shared =
            FeatureTracker::with_shared_pool((1..=4).collect(), CostModel::ByteHitRatio, pool, 0);
        for t in 0..500u64 {
            let r = req(t * 3, splitmix64(t) % 60, 10 + t % 7);
            assert_eq!(private.features(&r, 42), shared.features(&r, 42));
            private.record(&r);
            shared.record(&r);
        }
        assert_eq!(private.tracked_objects(), shared.tracked_objects());
    }

    #[test]
    fn shards_share_first_sighting_evidence_through_the_pool() {
        let pool = Arc::new(SharedDoorkeeper::new(TrackerBudget::capped(8), 2));
        let mut a = FeatureTracker::with_shared_pool(
            (1..=4).collect(),
            CostModel::ByteHitRatio,
            pool.clone(),
            0,
        );
        let mut b =
            FeatureTracker::with_shared_pool((1..=4).collect(), CostModel::ByteHitRatio, pool, 1);
        // Shard A sees the first sighting, shard B the second: with a
        // fleet sketch the second sighting promotes on B (per-shard
        // sketches would treat it as another one-hit wonder).
        a.record(&req(10, 7, 64));
        assert!(!a.is_tracked(ObjectId(7)));
        b.record(&req(25, 7, 64));
        assert!(b.is_tracked(ObjectId(7)));
        let f = b.features(&req(40, 7, 64), 0);
        assert_eq!(f[3], 15.0); // gap_1 = 40 - 25
        assert_eq!(f[4], 15.0); // gap_2 = 25 - 10, seeded from A's sketch write
    }

    #[test]
    fn shared_tracker_counts_its_stripe_share_not_the_fleet_sketch() {
        let pool = Arc::new(SharedDoorkeeper::new(TrackerBudget::capped(10), 2));
        let tr = FeatureTracker::with_shared_pool(
            (1..=4).collect(),
            CostModel::ByteHitRatio,
            pool.clone(),
            0,
        );
        assert_eq!(tr.sketch_bytes(), 0);
        assert_eq!(tr.approximate_bytes(), pool.stripe_ring_bytes(0));
        assert!(pool.sketch_bytes() > 0);
    }

    #[test]
    fn shared_snapshot_promotes_while_the_stripe_has_room() {
        let mut exact = tracker();
        for t in 0..200u64 {
            exact.record(&req(t, t % 20, 10));
        }
        let snapshot = exact.snapshot(usize::MAX);
        let pool = Arc::new(SharedDoorkeeper::new(TrackerBudget::capped(6), 1));
        let mut shared =
            FeatureTracker::with_shared_pool((1..=4).collect(), CostModel::ByteHitRatio, pool, 0);
        shared.load_snapshot(&snapshot);
        assert_eq!(shared.tracked_objects(), 6);
        let probe = req(500, 19, 10);
        assert_eq!(shared.features(&probe, 0), exact.features(&probe, 0));
    }

    #[test]
    fn shared_forget_wipes_the_fleet_sketch() {
        let pool = Arc::new(SharedDoorkeeper::new(TrackerBudget::capped(8), 2));
        let mut a = FeatureTracker::with_shared_pool(
            (1..=4).collect(),
            CostModel::ByteHitRatio,
            pool.clone(),
            0,
        );
        let mut b =
            FeatureTracker::with_shared_pool((1..=4).collect(), CostModel::ByteHitRatio, pool, 1);
        a.record(&req(10, 1, 10));
        b.forget_older_than(50);
        // The wipe is fleet-wide: shard B's forget cleared A's sighting.
        let f = a.features(&req(60, 1, 10), 0);
        assert_eq!(f[3], MISSING_GAP);
    }

    #[test]
    fn bounded_memory_stays_flat_as_the_catalog_grows() {
        let mut tr = bounded(64);
        for id in 0..200u64 {
            tr.record(&req(id, id, 10));
            tr.record(&req(id + 1_000_000, id, 10));
        }
        let mid = tr.approximate_bytes();
        for id in 200..2_000u64 {
            tr.record(&req(id + 2_000_000, id, 10));
            tr.record(&req(id + 3_000_000, id, 10));
        }
        assert_eq!(tr.tracked_objects(), 64);
        // The sketch is fixed-size and histories are capped, so growing
        // the catalog 10x leaves the footprint essentially unchanged.
        assert!(tr.approximate_bytes() <= mid + mid / 4);
    }
}
