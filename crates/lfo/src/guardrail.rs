//! Runtime guardrail: hybrid learned/LRU serving with a worst-case bound.
//!
//! Every safety mechanism in this repo so far is *deploy-time*: the
//! accuracy/PSI gates and the warm-start ladder can refuse to publish a bad
//! model, but a model that passed its gates and then degrades on live
//! traffic keeps serving until the next window retrains. The guardrail
//! closes that gap at *runtime*, the way learning-augmented caching theory
//! prescribes: run a cheap robust baseline (LRU) in the shadow of the
//! learned policy and force the cache onto it whenever the learned policy
//! provably underperforms, so the realized byte hit ratio is never much
//! worse than LRU's no matter what the model does.
//!
//! # Mechanism
//!
//! A [`Guardrail`] attached to an [`LfoCache`](crate::LfoCache) observes
//! every request the cache serves and maintains, with no second copy of any
//! payload, two *ghost* indexes over a hash-sampled substream:
//!
//! - a **ghost LRU**: recency-ordered byte accounting answering "would a
//!   plain LRU of this capacity have hit this request?" — the shadow
//!   baseline `BHR_LRU`;
//! - a **ghost learned cache**: the same index driven by the live model's
//!   admission decision and eviction priority, answering "would the learned
//!   policy have hit?" — used to re-prove the model while the real cache is
//!   serving LRU.
//!
//! Sampling is SHARDS-style spatial sampling: an object is in the
//! substream iff the low `sample_shift` bits of its hashed id are zero, and
//! the ghost capacities are scaled by the same `2^-sample_shift` rate, so
//! the sampled hit ratios are unbiased estimates of the full-stream ones at
//! a fraction of the bookkeeping cost.
//!
//! # State machine
//!
//! The guardrail evaluates once every `window` requests and moves between
//! two modes with hysteresis (see DESIGN.md §13 for the bound derivation):
//!
//! ```text
//!           realized BHR < (1−ε)·BHR_LRU − δ
//!           for trip_after consecutive windows
//!   Learned ───────────────────────────────────▶ LruForced
//!      ▲                                             │
//!      │   ghost-learned BHR ≥ (1−ε)·BHR_LRU − δ     │
//!      └──────── for recover_after windows ──────────┘
//! ```
//!
//! In `LruForced` mode the cache admits everything and evicts by recency
//! (exactly its no-model fallback); the learned policy keeps being scored
//! against the ghost learned cache and must *re-prove itself on shadow
//! decisions* before it is allowed back — a bad model can trip the
//! guardrail but never argue its way out with the same bad decisions.
//! Because violations must persist for `trip_after` windows and recovery
//! for `recover_after`, a policy hovering at the bound cannot flap.

use std::collections::{BTreeSet, HashMap, VecDeque};

use cdn_trace::{ObjectId, Request};
use serde::{Deserialize, Serialize};

use crate::splitmix64;

/// Serving mode the guardrail currently holds a cache in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardrailMode {
    /// The learned policy decides admission and eviction.
    #[default]
    Learned,
    /// Admission/eviction forced to LRU; the learned policy is on probation
    /// and must re-prove itself on shadow-scored decisions.
    LruForced,
}

impl GuardrailMode {
    /// Short lowercase label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            GuardrailMode::Learned => "learned",
            GuardrailMode::LruForced => "lru-forced",
        }
    }
}

/// Tuning knobs for the runtime guardrail. `Default` gives the bound from
/// the acceptance criteria: ε = 0.05, δ = 0.01, 4096-request evaluation
/// windows, two-window hysteresis on both edges, 1/8 shadow sampling.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuardrailConfig {
    /// Relative slack on the LRU baseline: the learned policy must keep
    /// `BHR ≥ (1−ε)·BHR_LRU − δ`.
    pub epsilon: f64,
    /// Absolute slack on the same bound, absorbing sampling noise and the
    /// hit-ratio cost of the trip lag itself.
    pub delta: f64,
    /// Requests per evaluation window (the sliding window the BHRs are
    /// compared over).
    pub window: u64,
    /// Consecutive violating windows before the guardrail trips to
    /// [`GuardrailMode::LruForced`].
    pub trip_after: u32,
    /// Consecutive passing shadow windows before a tripped guardrail
    /// returns to [`GuardrailMode::Learned`].
    pub recover_after: u32,
    /// Shadow-sampling rate exponent: an object is tracked iff the low
    /// `sample_shift` bits of its hashed id are zero (rate `2^-shift`),
    /// and ghost capacities are scaled to match. 0 = track everything.
    pub sample_shift: u32,
    /// When false the state machine runs (modes, trips, shadow BHRs) but
    /// never forces the cache onto LRU — observe-only deployment.
    pub enforce: bool,
    /// Start in [`GuardrailMode::LruForced`] without counting a trip: the
    /// policy serves LRU until it proves the bound on shadow decisions.
    /// The pipeline sets this for models restored from disk ("shadow
    /// probation") — a stale artifact must re-earn live traffic.
    pub start_in_fallback: bool,
    /// When true, a guardrail trip asks the trainer to retrain the next
    /// candidate from scratch ([`crate::TrainKind::ScratchFallback`])
    /// instead of appending delta trees to the incumbent that just
    /// tripped.
    pub trip_forces_scratch: bool,
    /// Sample-K the learned ghost's evictions with this K instead of the
    /// exact B-tree queue, so probation is judged under the same eviction
    /// discipline the live cache uses. `None` keeps the exact ghost —
    /// unless the cache this guardrail attaches to runs
    /// [`EvictionStrategy`](crate::EvictionStrategy)`::SampleK`, in which
    /// case [`crate::LfoCache::enable_guardrail_scoped`] inherits that K.
    /// Optional so configs serialized before this field still deserialize.
    pub ghost_sample_k: Option<u32>,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        GuardrailConfig {
            epsilon: 0.05,
            delta: 0.01,
            window: 4096,
            trip_after: 2,
            recover_after: 2,
            sample_shift: 3,
            enforce: true,
            start_in_fallback: false,
            trip_forces_scratch: false,
            ghost_sample_k: None,
        }
    }
}

impl GuardrailConfig {
    /// The runtime bound this configuration enforces, given a shadow-LRU
    /// byte hit ratio.
    pub fn bound(&self, lru_bhr: f64) -> f64 {
        (1.0 - self.epsilon) * lru_bhr - self.delta
    }
}

/// Point-in-time view of a guardrail's state and lifetime counters, cheap
/// to copy out of a serving thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GuardrailSnapshot {
    /// Current serving mode.
    pub mode: GuardrailMode,
    /// Times the guardrail has tripped Learned → LruForced.
    pub trips: u64,
    /// Requests served while the guardrail was forcing LRU.
    pub forced_requests: u64,
    /// Evaluation windows completed.
    pub windows_evaluated: u64,
    /// Bytes requested on the sampled substream.
    pub shadow_total_bytes: u64,
    /// Sampled bytes the ghost LRU would have hit.
    pub shadow_lru_hit_bytes: u64,
    /// Sampled bytes the real cache actually hit.
    pub shadow_realized_hit_bytes: u64,
    /// Sampled requests whose ghost inserts were skipped because the
    /// object had not yet cleared the cache's doorkeeper (see
    /// [`Guardrail::record_shadowed`]); 0 for a cache without one.
    pub doorkeeper_skips: u64,
    /// Estimated ghost bookkeeping bytes those skips avoided (entry-size
    /// estimates per skipped insert, not live occupancy).
    pub doorkeeper_saved_bytes: u64,
}

impl GuardrailSnapshot {
    /// Lifetime shadow-LRU byte hit ratio (sampled basis); 0 when empty.
    pub fn shadow_lru_bhr(&self) -> f64 {
        ratio(self.shadow_lru_hit_bytes, self.shadow_total_bytes)
    }

    /// Lifetime realized byte hit ratio on the same sampled basis.
    pub fn shadow_realized_bhr(&self) -> f64 {
        ratio(self.shadow_realized_hit_bytes, self.shadow_total_bytes)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64-backed hasher for the `ObjectId`-keyed ghost maps. These maps
/// sit on the sampled serving path, where the default SipHash is most of a
/// lookup's cost; one 64-bit mix is plenty for keys that are already ids.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

type IdMap<V> = HashMap<ObjectId, V, std::hash::BuildHasherDefault<IdHasher>>;

#[derive(Clone, Copy)]
struct GhostEntry {
    priority: u64,
    tiebreak: u64,
    size: u64,
    /// Position in the sampled slot board (always 0 under the exact queue).
    slot: usize,
}

/// Index-only LRU simulation with lazy (tombstone) recency updates: every
/// access pushes a fresh `(tick, id)` pair and leaves any stale pair in the
/// queue; eviction pops pairs until one matches its object's live tick.
/// Amortized O(1) per access where the [`GhostCache`] pays two B-tree ops —
/// this runs on every sampled request in `Learned` mode, so constant
/// factors are the guardrail's entire overhead story.
struct LruGhost {
    capacity: u64,
    used: u64,
    tick: u64,
    /// id → (size, last-access tick). A queue pair is live iff its tick
    /// equals the entry's.
    entries: IdMap<(u64, u64)>,
    queue: VecDeque<(u64, ObjectId)>,
}

impl LruGhost {
    fn new(capacity: u64) -> Self {
        LruGhost {
            capacity: capacity.max(1),
            used: 0,
            tick: 0,
            entries: IdMap::default(),
            queue: VecDeque::new(),
        }
    }

    /// Feeds one request; returns whether an LRU of this capacity would
    /// have hit. Everything is admitted (plain LRU has no admission).
    fn access(&mut self, object: ObjectId, size: u64) -> bool {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&object) {
            entry.1 = self.tick;
            self.queue.push_back((self.tick, object));
            self.compact_if_bloated();
            return true;
        }
        if size > self.capacity {
            return false;
        }
        while self.used + size > self.capacity {
            let (t, victim) = self
                .queue
                .pop_front()
                .expect("over budget implies a nonempty queue");
            if let Some(&(vsize, last)) = self.entries.get(&victim) {
                if last == t {
                    self.entries.remove(&victim);
                    self.used -= vsize;
                }
            }
        }
        self.entries.insert(object, (size, self.tick));
        self.queue.push_back((self.tick, object));
        self.used += size;
        false
    }

    /// Hit-heavy streams push tombstones faster than eviction drains them;
    /// drop the stale pairs once they outnumber the live ones.
    fn compact_if_bloated(&mut self) {
        if self.queue.len() > self.entries.len() * 2 + 64 {
            let entries = &self.entries;
            self.queue
                .retain(|&(t, id)| entries.get(&id).is_some_and(|&(_, last)| last == t));
        }
    }
}

/// Estimated bytes one [`LruGhost`] insert costs: a map entry (id + size +
/// tick plus hash-table overhead) and one recency-queue pair.
const LRU_GHOST_ENTRY_BYTES: u64 = 56;

/// Estimated bytes one [`GhostCache`] insert costs: a map entry holding a
/// [`GhostEntry`] plus one eviction-index key.
const LEARNED_GHOST_ENTRY_BYTES: u64 = 72;

/// Seed of a sampled ghost's victim-draw stream (reset to this on every
/// probation restart so re-proving runs are reproducible).
const GHOST_SAMPLE_SEED: u64 = 0x9d1c_03a7_5e2b_44f1;

/// How a [`GhostCache`] finds its weakest resident — the same two shapes as
/// `EvictIndex` in [`crate::policy`], so probation can be judged under the
/// eviction discipline the live cache actually runs.
enum GhostIndex {
    /// Fully ordered priority queue: exact minimum, O(log n) per access.
    Exact(BTreeSet<(u64, u64, ObjectId)>),
    /// Sample-K: `k` seeded draws from the slot board, evict the sampled
    /// minimum; `k >= residents` degenerates to an exact full scan.
    Sampled {
        slots: Vec<ObjectId>,
        k: usize,
        rng: u64,
    },
}

/// Index-only cache simulation: byte accounting plus an eviction index, no
/// payloads. Priorities are opaque `u64`s that order ascending-is-weakest
/// (nonnegative-f64 bit patterns for the learned ghost; the LRU shadow
/// uses the cheaper [`LruGhost`] instead).
struct GhostCache {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: IdMap<GhostEntry>,
    index: GhostIndex,
}

impl GhostCache {
    fn new(capacity: u64) -> Self {
        GhostCache {
            capacity: capacity.max(1),
            used: 0,
            tick: 0,
            entries: IdMap::default(),
            index: GhostIndex::Exact(BTreeSet::new()),
        }
    }

    fn sampled(capacity: u64, k: u32) -> Self {
        GhostCache {
            index: GhostIndex::Sampled {
                slots: Vec::new(),
                k: (k as usize).max(1),
                rng: GHOST_SAMPLE_SEED,
            },
            ..GhostCache::new(capacity)
        }
    }

    /// Empties the ghost in place, keeping its capacity and eviction
    /// discipline; a sampled index also rewinds its draw stream to the
    /// seed so every probation is reproducible.
    fn reset(&mut self) {
        self.used = 0;
        self.tick = 0;
        self.entries = IdMap::default();
        match &mut self.index {
            GhostIndex::Exact(queue) => queue.clear(),
            GhostIndex::Sampled { slots, rng, .. } => {
                slots.clear();
                *rng = GHOST_SAMPLE_SEED;
            }
        }
    }

    /// The weakest resident's full ordering key, per this ghost's index
    /// discipline (`None` when empty). Sampled mode draws `k` residents —
    /// or scans all of them RNG-free when `k` covers the board.
    fn weakest(&mut self) -> Option<(u64, u64, ObjectId)> {
        let entries = &self.entries;
        let key = |object: ObjectId| {
            let e = entries[&object];
            (e.priority, e.tiebreak, object)
        };
        match &mut self.index {
            GhostIndex::Exact(queue) => queue.iter().next().copied(),
            GhostIndex::Sampled { slots, k, rng } => {
                if slots.is_empty() {
                    return None;
                }
                if *k >= slots.len() {
                    return slots.iter().map(|&o| key(o)).min();
                }
                let mut best: Option<(u64, u64, ObjectId)> = None;
                for _ in 0..*k {
                    *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let candidate = key(slots[(splitmix64(*rng) as usize) % slots.len()]);
                    if best.is_none_or(|b| candidate < b) {
                        best = Some(candidate);
                    }
                }
                best
            }
        }
    }

    /// Removes the resident at `key` (as returned by [`Self::weakest`]).
    fn remove(&mut self, key: (u64, u64, ObjectId)) {
        let (p, t, victim) = key;
        let entry = self.entries.remove(&victim).expect("index/entries in sync");
        match &mut self.index {
            GhostIndex::Exact(queue) => {
                queue.remove(&(p, t, victim));
            }
            GhostIndex::Sampled { slots, .. } => {
                slots.swap_remove(entry.slot);
                if let Some(&moved) = slots.get(entry.slot) {
                    self.entries
                        .get_mut(&moved)
                        .expect("index/entries in sync")
                        .slot = entry.slot;
                }
            }
        }
        self.used -= entry.size;
    }

    /// Feeds one request; returns whether the ghost would have hit. On a
    /// hit the object is re-ranked at `priority`; on a miss it is admitted
    /// iff `admit`, evicting weakest-first to fit.
    fn access(&mut self, object: ObjectId, size: u64, priority: u64, admit: bool) -> bool {
        self.tick += 1;
        if let Some(entry) = self.entries.get(&object).copied() {
            let updated = GhostEntry {
                priority,
                tiebreak: self.tick,
                size: entry.size,
                slot: entry.slot,
            };
            if let GhostIndex::Exact(queue) = &mut self.index {
                queue.remove(&(entry.priority, entry.tiebreak, object));
                queue.insert((priority, self.tick, object));
            }
            self.entries.insert(object, updated);
            return true;
        }
        if !admit || size > self.capacity {
            return false;
        }
        while self.used + size > self.capacity {
            let weakest = self.weakest().expect("over budget implies nonempty");
            self.remove(weakest);
        }
        let slot = match &mut self.index {
            GhostIndex::Exact(queue) => {
                queue.insert((priority, self.tick, object));
                0
            }
            GhostIndex::Sampled { slots, .. } => {
                slots.push(object);
                slots.len() - 1
            }
        };
        self.entries.insert(
            object,
            GhostEntry {
                priority,
                tiebreak: self.tick,
                size,
                slot,
            },
        );
        self.used += size;
        false
    }
}

/// The runtime guardrail state machine (see module docs). One per cache —
/// in a sharded deployment each shard carries its own, scoped to its slice
/// of the capacity and stream.
pub struct Guardrail {
    config: GuardrailConfig,
    mode: GuardrailMode,
    lru: LruGhost,
    learned: GhostCache,
    doorkeeper_skips: u64,
    doorkeeper_saved_bytes: u64,
    trips: u64,
    forced_requests: u64,
    windows_evaluated: u64,
    violation_streak: u32,
    recovery_streak: u32,
    // Current-window accumulators, all on the sampled substream.
    win_requests: u64,
    win_bytes: u64,
    win_lru_hit_bytes: u64,
    win_learned_hit_bytes: u64,
    win_realized_hit_bytes: u64,
    // Lifetime totals (sampled substream).
    total_bytes: u64,
    total_lru_hit_bytes: u64,
    total_realized_hit_bytes: u64,
}

impl Guardrail {
    /// Creates a guardrail whose ghost caches model `capacity` bytes (the
    /// byte budget backing the stream this guardrail observes — a pooled
    /// shard passes `pool capacity / N`, not the pool capacity).
    pub fn new(config: GuardrailConfig, capacity: u64) -> Self {
        let ghost_capacity = (capacity >> config.sample_shift).max(1);
        Guardrail {
            mode: if config.start_in_fallback {
                GuardrailMode::LruForced
            } else {
                GuardrailMode::Learned
            },
            lru: LruGhost::new(ghost_capacity),
            learned: match config.ghost_sample_k {
                Some(k) => GhostCache::sampled(ghost_capacity, k),
                None => GhostCache::new(ghost_capacity),
            },
            doorkeeper_skips: 0,
            doorkeeper_saved_bytes: 0,
            trips: 0,
            forced_requests: 0,
            windows_evaluated: 0,
            violation_streak: 0,
            recovery_streak: 0,
            win_requests: 0,
            win_bytes: 0,
            win_lru_hit_bytes: 0,
            win_learned_hit_bytes: 0,
            win_realized_hit_bytes: 0,
            total_bytes: 0,
            total_lru_hit_bytes: 0,
            total_realized_hit_bytes: 0,
            config,
        }
    }

    /// The configuration this guardrail was built with.
    pub fn config(&self) -> &GuardrailConfig {
        &self.config
    }

    /// Current mode.
    pub fn mode(&self) -> GuardrailMode {
        self.mode
    }

    /// Whether the cache must serve LRU for the next request. False in
    /// observe-only deployments even while tripped.
    pub fn forced(&self) -> bool {
        self.config.enforce && self.mode == GuardrailMode::LruForced
    }

    /// Whether `object` is on the sampled shadow substream.
    fn sampled(&self, object: ObjectId) -> bool {
        self.config.sample_shift == 0
            || splitmix64(object.0) & ((1u64 << self.config.sample_shift) - 1) == 0
    }

    /// Observes one served request: `priority` and `admit` are the learned
    /// policy's *would-be* eviction priority (nonnegative) and admission
    /// decision for this request, `hit` is the real cache's outcome.
    /// Returns the number of trips fired by this request (0 or 1) so the
    /// caller can account them per window.
    pub fn record(&mut self, request: &Request, priority: f64, admit: bool, hit: bool) -> u64 {
        self.record_shadowed(request, priority, admit, hit, true)
    }

    /// [`Self::record`] with doorkeeper evidence: `past_doorkeeper` says
    /// whether the cache's admission tracker holds exact history for this
    /// object (i.e. the doorkeeper has seen it before); a cache without a
    /// doorkeeper passes `true`. The ghosts borrow the cache's doorkeeper
    /// instead of minting their own admission state: a sampled *miss* on
    /// an object not yet past it skips both ghost inserts — mirroring the
    /// real tracker, which holds no history for such objects either — and
    /// the avoided bookkeeping is accumulated in the snapshot's
    /// `doorkeeper_saved_bytes`. One-hit wonders never hit again, so the
    /// skipped inserts contribute no hit bytes to either shadow BHR; at
    /// worst the un-polluted ghost LRU retains real content slightly
    /// longer, which tightens (never weakens) the bound.
    pub fn record_shadowed(
        &mut self,
        request: &Request,
        priority: f64,
        admit: bool,
        hit: bool,
        past_doorkeeper: bool,
    ) -> u64 {
        if self.forced() {
            self.forced_requests += 1;
        }
        if !self.sampled(request.object) {
            return 0;
        }
        self.win_requests += 1;
        self.win_bytes += request.size;
        if hit {
            self.win_realized_hit_bytes += request.size;
        }
        // Ghost LRU: recency-ordered, admits everything — except objects
        // the doorkeeper has not cleared (they cannot be resident, so this
        // branch is always a miss-path insert being avoided).
        if past_doorkeeper || self.lru.entries.contains_key(&request.object) {
            if self.lru.access(request.object, request.size) {
                self.win_lru_hit_bytes += request.size;
            }
        } else {
            self.doorkeeper_skips += 1;
            self.doorkeeper_saved_bytes += LRU_GHOST_ENTRY_BYTES;
        }
        // Ghost learned cache: the model's shadow decision. Priorities are
        // nonnegative, so f64 bit patterns order like the values. The ghost
        // is only fed while tripped — it is what recovery is judged on; in
        // Learned mode the realized stream IS the learned policy, so
        // skipping it halves steady-state shadow overhead. It re-warms
        // cold during probation, which can only delay recovery (extra
        // LRU-forced windows), never weaken the bound.
        debug_assert!(priority >= 0.0, "priorities must stay nonnegative");
        if self.mode == GuardrailMode::LruForced {
            if past_doorkeeper || self.learned.entries.contains_key(&request.object) {
                if self
                    .learned
                    .access(request.object, request.size, priority.to_bits(), admit)
                {
                    self.win_learned_hit_bytes += request.size;
                }
            } else {
                self.doorkeeper_saved_bytes += LEARNED_GHOST_ENTRY_BYTES;
            }
        }
        if self.win_requests >= self.config.window {
            self.close_window()
        } else {
            0
        }
    }

    /// Evaluates the bound over the finished window and advances the state
    /// machine. Returns 1 when this evaluation tripped the guardrail.
    fn close_window(&mut self) -> u64 {
        self.windows_evaluated += 1;
        self.total_bytes += self.win_bytes;
        self.total_lru_hit_bytes += self.win_lru_hit_bytes;
        self.total_realized_hit_bytes += self.win_realized_hit_bytes;
        let mut tripped = 0;
        if self.win_bytes > 0 {
            let bound = self
                .config
                .bound(ratio(self.win_lru_hit_bytes, self.win_bytes));
            match self.mode {
                GuardrailMode::Learned => {
                    let realized = ratio(self.win_realized_hit_bytes, self.win_bytes);
                    if realized < bound {
                        self.violation_streak += 1;
                        if self.violation_streak >= self.config.trip_after {
                            self.mode = GuardrailMode::LruForced;
                            self.trips += 1;
                            tripped = 1;
                            self.violation_streak = 0;
                            self.recovery_streak = 0;
                            // Probation starts from a cold ghost: content
                            // left over from an earlier probation must not
                            // inflate the re-proving score.
                            self.learned.reset();
                        }
                    } else {
                        self.violation_streak = 0;
                    }
                }
                GuardrailMode::LruForced => {
                    // Re-prove on shadow decisions: the *ghost* learned
                    // cache must clear the bound, not the (LRU-serving)
                    // real one.
                    let shadow = ratio(self.win_learned_hit_bytes, self.win_bytes);
                    if shadow >= bound {
                        self.recovery_streak += 1;
                        if self.recovery_streak >= self.config.recover_after {
                            self.mode = GuardrailMode::Learned;
                            self.recovery_streak = 0;
                            self.violation_streak = 0;
                        }
                    } else {
                        self.recovery_streak = 0;
                    }
                }
            }
        }
        self.win_requests = 0;
        self.win_bytes = 0;
        self.win_lru_hit_bytes = 0;
        self.win_learned_hit_bytes = 0;
        self.win_realized_hit_bytes = 0;
        tripped
    }

    /// Copies out the current state and lifetime counters. Includes the
    /// still-open window's bytes so short runs are visible.
    pub fn snapshot(&self) -> GuardrailSnapshot {
        GuardrailSnapshot {
            mode: self.mode,
            trips: self.trips,
            forced_requests: self.forced_requests,
            windows_evaluated: self.windows_evaluated,
            shadow_total_bytes: self.total_bytes + self.win_bytes,
            shadow_lru_hit_bytes: self.total_lru_hit_bytes + self.win_lru_hit_bytes,
            shadow_realized_hit_bytes: self.total_realized_hit_bytes + self.win_realized_hit_bytes,
            doorkeeper_skips: self.doorkeeper_skips,
            doorkeeper_saved_bytes: self.doorkeeper_saved_bytes,
        }
    }
}

/// Exact (unsampled) LRU byte hit ratio of `requests` replayed through a
/// ghost LRU of `capacity` bytes — the reference baseline the adversarial
/// experiment checks the runtime bound against.
pub fn lru_reference_bhr(requests: &[Request], capacity: u64) -> f64 {
    let mut ghost = LruGhost::new(capacity);
    let mut total = 0u64;
    let mut hit = 0u64;
    for request in requests {
        total += request.size;
        if ghost.access(request.object, request.size) {
            hit += request.size;
        }
    }
    ratio(hit, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, id: u64, size: u64) -> Request {
        Request::new(t, id, size)
    }

    fn full_sampling(window: u64) -> GuardrailConfig {
        GuardrailConfig {
            window,
            sample_shift: 0,
            ..GuardrailConfig::default()
        }
    }

    #[test]
    fn ghost_lru_evicts_least_recent() {
        let mut ghost = LruGhost::new(200);
        for id in [1u64, 2, 1, 3] {
            ghost.access(ObjectId(id), 100);
        }
        // Capacity 200: admitting 3 evicted the least-recent (2), not 1 —
        // the tombstone left by 1's first access must not count as 1.
        assert!(ghost.entries.contains_key(&ObjectId(1)));
        assert!(!ghost.entries.contains_key(&ObjectId(2)));
        assert!(ghost.entries.contains_key(&ObjectId(3)));
        assert_eq!(ghost.used, 200);
    }

    #[test]
    fn lru_ghost_matches_exact_priority_queue_lru() {
        // The lazy-tombstone ghost must be hit-for-hit identical to the
        // exact B-tree simulation driven as an LRU, including through
        // compactions (small capacity forces constant eviction; a hot
        // subset forces tombstone churn).
        let mut lazy = LruGhost::new(5_000);
        let mut exact = GhostCache::new(5_000);
        for t in 0..50_000u64 {
            let id = if t % 3 == 0 {
                t % 7
            } else {
                splitmix64(t) % 300
            };
            let size = 100 + (splitmix64(t ^ 17) % 400);
            let tick = exact.tick + 1;
            let a = lazy.access(ObjectId(id), size);
            let b = exact.access(ObjectId(id), size, tick, true);
            assert_eq!(a, b, "diverged at request {t} (id {id}, size {size})");
        }
        assert_eq!(lazy.used, exact.used);
    }

    #[test]
    fn sampled_ghost_with_full_sampling_matches_exact_ghost() {
        // k covering the whole board degenerates to an RNG-free full scan:
        // every hit/miss and the final byte accounting must match the
        // exact B-tree ghost on a priority-driven stream.
        let mut exact = GhostCache::new(5_000);
        let mut sampled = GhostCache::sampled(5_000, u32::MAX);
        for t in 0..20_000u64 {
            let id = splitmix64(t) % 200;
            let size = 100 + (splitmix64(t ^ 17) % 400);
            let priority = splitmix64(t ^ 99) % 1_000;
            let admit = !splitmix64(t ^ 5).is_multiple_of(4);
            let a = exact.access(ObjectId(id), size, priority, admit);
            let b = sampled.access(ObjectId(id), size, priority, admit);
            assert_eq!(a, b, "diverged at request {t}");
        }
        assert_eq!(exact.used, sampled.used);
        assert_eq!(exact.entries.len(), sampled.entries.len());
    }

    #[test]
    fn sampled_ghost_respects_capacity_and_resets_cold() {
        let mut ghost = GhostCache::sampled(1_000, 4);
        for t in 0..5_000u64 {
            ghost.access(ObjectId(splitmix64(t) % 100), 100 + t % 50, t, true);
            assert!(ghost.used <= ghost.capacity);
        }
        assert!(!ghost.entries.is_empty());
        ghost.reset();
        assert_eq!(ghost.used, 0);
        assert!(ghost.entries.is_empty());
        let GhostIndex::Sampled { slots, rng, .. } = &ghost.index else {
            panic!("reset must keep the sampled discipline");
        };
        assert!(slots.is_empty());
        assert_eq!(*rng, GHOST_SAMPLE_SEED);
    }

    #[test]
    fn oversize_and_declined_objects_bypass_the_ghost() {
        let mut ghost = GhostCache::new(100);
        assert!(
            !ghost.access(ObjectId(1), 500, 1, true),
            "oversize bypasses"
        );
        assert!(
            !ghost.access(ObjectId(2), 50, 2, false),
            "declined bypasses"
        );
        assert_eq!(ghost.used, 0);
    }

    #[test]
    fn matched_policies_never_trip() {
        // Realized outcomes fed straight from the ghost LRU itself: the
        // policies are identical, so the bound holds in every window and
        // the mode never leaves Learned.
        let mut guard = Guardrail::new(full_sampling(100), 10_000);
        let mut reference = GhostCache::new(10_000);
        for t in 0..5_000u64 {
            let id = t % 37;
            let tick = reference.tick + 1;
            let hit = reference.access(ObjectId(id), 256, tick, true);
            guard.record(&req(t, id, 256), 0.5, true, hit);
        }
        let snap = guard.snapshot();
        assert_eq!(snap.mode, GuardrailMode::Learned);
        assert_eq!(snap.trips, 0);
        assert!(snap.windows_evaluated >= 40);
        assert_eq!(snap.shadow_lru_hit_bytes, snap.shadow_realized_hit_bytes);
    }

    #[test]
    fn bad_policy_trips_and_recovery_requires_good_shadow_decisions() {
        // Realized outcomes are all misses (a policy that caches nothing)
        // on a trace LRU hits constantly: trips after `trip_after` windows.
        let cfg = GuardrailConfig {
            window: 50,
            trip_after: 2,
            recover_after: 2,
            sample_shift: 0,
            ..GuardrailConfig::default()
        };
        let mut guard = Guardrail::new(cfg, 10_000);
        let mut t = 0u64;
        // Phase 1: shadow decisions also bad (admit = false) — trips and
        // stays tripped.
        for _ in 0..300 {
            guard.record(&req(t, t % 10, 100), 0.0, false, false);
            t += 1;
        }
        assert_eq!(guard.mode(), GuardrailMode::LruForced);
        assert_eq!(guard.snapshot().trips, 1);
        assert!(guard.forced());
        // Phase 2: the shadow policy starts admitting (good decisions);
        // after recover_after clean windows the guardrail re-arms, even
        // though realized outcomes (still LRU-forced) were what they were.
        for _ in 0..300 {
            guard.record(&req(t, t % 10, 100), 0.9, true, true);
            t += 1;
        }
        assert_eq!(guard.mode(), GuardrailMode::Learned);
        assert_eq!(guard.snapshot().trips, 1, "recovery is not a trip");
    }

    #[test]
    fn hysteresis_requires_consecutive_violations() {
        let cfg = GuardrailConfig {
            window: 10,
            trip_after: 2,
            sample_shift: 0,
            ..GuardrailConfig::default()
        };
        let mut guard = Guardrail::new(cfg, 10_000);
        let mut t = 0u64;
        let mut run = |guard: &mut Guardrail, hit: bool, n: u64| {
            for _ in 0..n {
                guard.record(&req(t, t % 5, 100), 0.9, true, hit);
                t += 1;
            }
        };
        // Alternate one bad window with one good window: a single
        // violation never reaches trip_after = 2.
        for _ in 0..10 {
            run(&mut guard, false, 10);
            run(&mut guard, true, 10);
        }
        assert_eq!(guard.mode(), GuardrailMode::Learned);
        assert_eq!(guard.snapshot().trips, 0);
    }

    #[test]
    fn observe_only_counts_trips_but_never_forces() {
        let cfg = GuardrailConfig {
            window: 20,
            trip_after: 1,
            enforce: false,
            sample_shift: 0,
            ..GuardrailConfig::default()
        };
        let mut guard = Guardrail::new(cfg, 10_000);
        for t in 0..200u64 {
            guard.record(&req(t, t % 5, 100), 0.0, false, false);
        }
        assert_eq!(guard.mode(), GuardrailMode::LruForced);
        assert!(guard.snapshot().trips >= 1);
        assert!(!guard.forced(), "observe-only never forces");
        assert_eq!(guard.snapshot().forced_requests, 0);
    }

    #[test]
    fn shadow_probation_starts_forced_without_a_trip() {
        let cfg = GuardrailConfig {
            window: 20,
            recover_after: 1,
            start_in_fallback: true,
            sample_shift: 0,
            ..GuardrailConfig::default()
        };
        let mut guard = Guardrail::new(cfg, 10_000);
        assert!(guard.forced());
        assert_eq!(guard.snapshot().trips, 0);
        // One window of good shadow decisions releases probation (the
        // realized outcomes are LRU's — they don't count against the
        // model while it is the shadow one).
        for t in 0..20u64 {
            guard.record(&req(t, t % 5, 100), 0.9, true, false);
        }
        assert_eq!(guard.mode(), GuardrailMode::Learned);
        assert_eq!(guard.snapshot().trips, 0);
    }

    #[test]
    fn sampling_is_deterministic_and_scales_ghost_capacity() {
        let cfg = GuardrailConfig {
            sample_shift: 3,
            ..GuardrailConfig::default()
        };
        let a = Guardrail::new(cfg, 80_000);
        assert_eq!(a.lru.capacity, 10_000);
        // The sampled set is a pure function of the object id.
        let b = Guardrail::new(cfg, 80_000);
        for id in 0..1_000u64 {
            assert_eq!(a.sampled(ObjectId(id)), b.sampled(ObjectId(id)));
        }
        let hits = (0..100_000u64)
            .filter(|&id| a.sampled(ObjectId(id)))
            .count();
        // ~1/8 of ids, with generous slop.
        assert!((10_000..15_000).contains(&hits), "sampled {hits}");
    }

    #[test]
    fn doorkeeper_borrowing_skips_unseen_objects_and_counts_savings() {
        let mut guard = Guardrail::new(full_sampling(u64::MAX), 10_000);
        // First sighting: not past the doorkeeper — the ghost LRU must not
        // mint an entry, only count the avoided insert.
        guard.record_shadowed(&req(0, 1, 100), 0.5, true, false, false);
        assert!(guard.lru.entries.is_empty());
        let snap = guard.snapshot();
        assert_eq!(snap.doorkeeper_skips, 1);
        assert_eq!(snap.doorkeeper_saved_bytes, LRU_GHOST_ENTRY_BYTES);
        // Second sighting: cleared — inserted and tracked normally.
        guard.record_shadowed(&req(1, 1, 100), 0.5, true, false, true);
        assert!(guard.lru.entries.contains_key(&ObjectId(1)));
        // Residents keep hitting even if the caller reports them unseen
        // (the ghost's own membership is the tiebreaker, not the flag).
        guard.record_shadowed(&req(2, 1, 100), 0.5, true, true, false);
        let snap = guard.snapshot();
        assert_eq!(snap.doorkeeper_skips, 1, "residents are never skipped");
        assert_eq!(snap.shadow_lru_hit_bytes, 100);
    }

    #[test]
    fn record_without_borrowing_ignores_doorkeeper_evidence() {
        use cdn_cache::cache::CachePolicy;
        // An unbounded tracker has no doorkeeper to lend, so its cache
        // reports every request as past it: one-hit wonders still enter
        // the ghost LRU.
        let mut cache = crate::LfoCache::new(10_000, crate::LfoConfig::default());
        cache.enable_guardrail(full_sampling(u64::MAX));
        for id in 0..50u64 {
            cache.handle(&req(id, id, 100));
        }
        let snap = cache.guardrail().expect("guardrail attached");
        assert_eq!(snap.doorkeeper_skips, 0);
        assert_eq!(snap.doorkeeper_saved_bytes, 0);
    }

    #[test]
    fn borrowing_saves_learned_ghost_bytes_while_forced() {
        let cfg = GuardrailConfig {
            start_in_fallback: true,
            sample_shift: 0,
            window: u64::MAX,
            ..GuardrailConfig::default()
        };
        let mut guard = Guardrail::new(cfg, 10_000);
        guard.record_shadowed(&req(0, 1, 100), 0.5, true, false, false);
        // While LruForced the learned ghost is fed too, so one unseen miss
        // avoids an insert in both ghosts.
        let snap = guard.snapshot();
        assert_eq!(
            snap.doorkeeper_saved_bytes,
            LRU_GHOST_ENTRY_BYTES + LEARNED_GHOST_ENTRY_BYTES
        );
        assert!(guard.learned.entries.is_empty());
    }

    #[test]
    fn lru_reference_matches_full_sampling_shadow() {
        let requests: Vec<Request> = (0..3_000u64)
            .map(|t| req(t, splitmix64(t) % 200, 300 + (t % 7) * 40))
            .collect();
        let reference = lru_reference_bhr(&requests, 20_000);
        let mut guard = Guardrail::new(full_sampling(u64::MAX), 20_000);
        for r in &requests {
            guard.record(r, 0.0, false, false);
        }
        let snap = guard.snapshot();
        assert!(
            (snap.shadow_lru_bhr() - reference).abs() < 1e-12,
            "shadow {} vs reference {}",
            snap.shadow_lru_bhr(),
            reference
        );
    }
}
