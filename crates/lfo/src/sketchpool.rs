//! The doorkeeper sketch and GCLOCK ring behind every bounded tracker
//! (DESIGN.md §14, §16).
//!
//! A [`crate::TrackerBudget`] bounds a tracker with a doorkeeper sketch
//! and a GCLOCK ring over its exact histories. [`SharedDoorkeeper`] is
//! that state, built to be shared: a bounded
//! [`crate::FeatureTracker`] owns a 1-stripe pool, and a pooled
//! [`crate::ShardedLfoCache`] fleet lends one pool to all its shards, so
//! fleet metadata scales with the budget rather than budget × shards and
//! shards share first-sighting evidence instead of re-probing the same
//! one-hit-wonder tail N times.
//!
//! - **One sketch for the whole fleet.** A flat power-of-two array of
//!   `AtomicU32` saturated last-access slots, updated by relaxed
//!   compare-and-swap that only ever advances a slot's time (first
//!   sighting writes the sketch, second sighting promotes into the
//!   shard-local exact tracker).
//!   A slot write is wait-free in practice: one CAS, retried only when
//!   another shard raced the same slot in the same instant.
//! - **A striped GCLOCK recycling ring.** The pool's `max_objects`
//!   budget is split into per-shard stripes, each with its own sweep
//!   cursor behind a cheap per-stripe lock, so eviction sweeps never
//!   serialize the fleet; reference counters are atomics, so the hit
//!   path never takes a lock at all.
//!
//! A 1-shard fleet borrowing a 1-stripe pool makes the same decisions as
//! an unsharded cache on the same budget (proptest-enforced in
//! `tests/bounded_state.rs`).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

use cdn_trace::ObjectId;
use serde::Serialize;

use crate::features::TrackerBudget;
use crate::splitmix64;

/// Sketch slot sentinel: no object hashing here has been seen. It is
/// `u32::MAX`, numerically above every saturated time, so the
/// advance-only CAS special-cases it.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Saturation ceiling for GCLOCK reference counters: a hot object
/// survives at most this many hand sweeps without a fresh sighting. A
/// plain 1-bit CLOCK forgets how hot an object is the moment the hand
/// clears its bit; under a flood of tail-object promotions the hand laps
/// the ring fast and mid-popularity histories get recycled between their
/// sightings.
const CLOCK_MAX_COUNT: u8 = 3;

/// Ring bytes per slot: the parked object id plus its counter byte.
const RING_SLOT_BYTES: usize = std::mem::size_of::<ObjectId>() + 1;

/// Contention and traffic counters for a [`SharedDoorkeeper`], snapshot
/// by the `repro concurrency` benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SketchPoolStats {
    /// Successful sketch-slot writes (first sightings and refreshes).
    pub sketch_updates: u64,
    /// CAS attempts that lost a race to another shard and retried.
    pub cas_retries: u64,
    /// Stripe-lock acquisitions that found the lock held (should be ~0:
    /// each stripe is owned by one shard; contention only appears when a
    /// guardrail or snapshot path touches a foreign stripe).
    pub stripe_contention: u64,
}

/// One stripe's mutable ring state: the parked objects and the sweep
/// hand. Reference counters live outside the lock (atomics indexed by
/// global slot) so the hit path stays lock-free.
#[derive(Debug, Default)]
struct StripeRing {
    /// The object parked in each local slot.
    objects: Vec<ObjectId>,
    /// Next local slot the eviction sweep examines.
    hand: usize,
}

/// A stripe of the fleet GCLOCK ring: a contiguous range of global slots
/// owned (in the common case) by exactly one shard.
#[derive(Debug)]
struct Stripe {
    /// First global slot of this stripe.
    base: usize,
    /// Slots in this stripe (the stripe's share of `max_objects`).
    capacity: usize,
    /// The stripe's ring, behind its own cheap lock.
    ring: Mutex<StripeRing>,
}

/// What a stripe promotion did, so the calling tracker can mirror the
/// GCLOCK bookkeeping on its own history map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeSlot {
    /// Global slot index now owned by the promoted object.
    pub slot: usize,
    /// A live owner the sweep recycled; the caller must drop its exact
    /// history. `None` when the stripe had room or the slot was stale.
    pub evicted: Option<ObjectId>,
}

/// A doorkeeper: one lock-free sketch plus a striped GCLOCK ring. A
/// bounded tracker owns a 1-stripe pool; in a pooled fleet every
/// shard-local tracker borrows a stripe of one shared pool.
pub struct SharedDoorkeeper {
    /// The pool-wide budget (sketch sizing, ring capacity, slot seed).
    budget: TrackerBudget,
    /// The fleet sketch: direct-mapped saturated last-access times.
    slots: Vec<AtomicU32>,
    /// GCLOCK reference counters, one per global ring slot.
    counts: Vec<AtomicU8>,
    /// The ring stripes, `base`-ordered, covering `0..max_objects`.
    stripes: Vec<Stripe>,
    sketch_updates: AtomicU64,
    cas_retries: AtomicU64,
    stripe_contention: AtomicU64,
}

impl std::fmt::Debug for SharedDoorkeeper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDoorkeeper")
            .field("budget", &self.budget)
            .field("slots", &self.slots.len())
            .field("stripes", &self.stripes.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedDoorkeeper {
    /// Builds a pool for `budget` split into `stripes` ring stripes (one
    /// per shard). The sketch has [`TrackerBudget`]'s slot count and is
    /// bucketed by its seed, so every pool built from one budget hashes
    /// objects alike whatever its stripe count.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is unbounded (a shared pool exists to cap
    /// fleet memory) or `stripes` is 0.
    pub fn new(budget: TrackerBudget, stripes: usize) -> Self {
        assert!(
            budget.is_bounded(),
            "shared doorkeeper needs a finite budget"
        );
        assert!(stripes > 0, "at least one stripe");
        let slots = budget.slots();
        let max = budget.max_objects;
        let (div, rem) = (max / stripes, max % stripes);
        let mut base = 0usize;
        let stripes = (0..stripes)
            .map(|i| {
                let capacity = div + usize::from(i < rem);
                let s = Stripe {
                    base,
                    capacity,
                    ring: Mutex::new(StripeRing {
                        objects: Vec::with_capacity(capacity),
                        hand: 0,
                    }),
                };
                base += capacity;
                s
            })
            .collect();
        SharedDoorkeeper {
            budget,
            slots: (0..slots).map(|_| AtomicU32::new(EMPTY_SLOT)).collect(),
            counts: (0..max).map(|_| AtomicU8::new(0)).collect(),
            stripes,
            sketch_updates: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            stripe_contention: AtomicU64::new(0),
        }
    }

    /// The budget this pool was sized for.
    pub fn budget(&self) -> TrackerBudget {
        self.budget
    }

    /// Number of ring stripes (the fleet size the pool was built for).
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Ring capacity of stripe `stripe` (its share of `max_objects`).
    pub fn stripe_capacity(&self, stripe: usize) -> usize {
        self.stripes[stripe].capacity
    }

    /// Bytes held by the fleet sketch — paid **once** per fleet, however
    /// many shards borrow the pool.
    pub fn sketch_bytes(&self) -> usize {
        self.slots.len() * 4
    }

    /// Approximate ring bytes attributable to stripe `stripe` (object id
    /// plus counter byte per slot, 9 B/slot).
    pub fn stripe_ring_bytes(&self, stripe: usize) -> usize {
        self.stripes[stripe].capacity * RING_SLOT_BYTES
    }

    /// Ring bytes of the slots stripe `stripe` has parked objects on so
    /// far (at most [`Self::stripe_ring_bytes`]).
    pub(crate) fn stripe_parked_bytes(&self, stripe: usize) -> usize {
        self.lock_stripe(&self.stripes[stripe]).objects.len() * RING_SLOT_BYTES
    }

    /// The sketch slot for `object`: `splitmix64(seed ^ id)` masked to
    /// the slot count.
    pub fn bucket(&self, object: ObjectId) -> usize {
        (splitmix64(self.budget.seed ^ object.0) as usize) & (self.slots.len() - 1)
    }

    /// Reads a sketch slot ([`EMPTY_SLOT`] when nothing hashed there).
    pub fn load_slot(&self, bucket: usize) -> u32 {
        self.slots[bucket].load(Ordering::Relaxed)
    }

    /// Advances slot `bucket` to the saturated `time`, never regressing
    /// it: a slot already at a later time is left untouched (another
    /// shard got there first). Returns the prior value — [`EMPTY_SLOT`]
    /// for a first sighting, the previous last-access time otherwise —
    /// which is the caller's promotion trigger.
    pub fn update_slot(&self, bucket: usize, time: u64) -> u32 {
        let new = Self::sketch_time(time);
        let slot = &self.slots[bucket];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            // EMPTY_SLOT is u32::MAX — numerically above every saturated
            // time — so the sentinel must be special-cased before the
            // advance-only comparison.
            if cur != EMPTY_SLOT && cur >= new {
                return cur;
            }
            match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prior) => {
                    self.sketch_updates.fetch_add(1, Ordering::Relaxed);
                    return prior;
                }
                Err(actual) => {
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    cur = actual;
                }
            }
        }
    }

    /// Bumps the GCLOCK counter of global `slot` (saturating at
    /// `CLOCK_MAX_COUNT`). Lock-free: the tracked-object hit path calls
    /// this on every sighting.
    pub fn reference(&self, slot: usize) {
        let count = &self.counts[slot];
        let mut cur = count.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(1).min(CLOCK_MAX_COUNT);
            if next == cur {
                return;
            }
            match count.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whether stripe `stripe` still has unparked ring slots (used by
    /// snapshot loading, which promotes hottest-first and never evicts).
    pub fn stripe_has_room(&self, stripe: usize) -> bool {
        let st = &self.stripes[stripe];
        self.lock_stripe(st).objects.len() < st.capacity
    }

    /// Parks `object` in stripe `stripe`, sweeping the stripe's GCLOCK
    /// ring for a victim when the stripe is full. `is_live(owner, slot)`
    /// answers whether `owner`'s exact history still maps to global
    /// `slot` (the caller's staleness check — the pool never sees the
    /// history map). Stale slots are taken immediately, nonzero counters
    /// are decremented and given another lap, and the first zero-count
    /// live owner is recycled and returned for the caller to forget. A
    /// new slot starts at count zero: promotion is a bet, not a
    /// reference, so an object idle since its promoting sighting loses
    /// the ring to one that kept getting hits. Amortized O(1); at most
    /// `CLOCK_MAX_COUNT + 1` laps even when every resident is saturated.
    pub fn stripe_promote(
        &self,
        stripe: usize,
        object: ObjectId,
        mut is_live: impl FnMut(ObjectId, usize) -> bool,
    ) -> StripeSlot {
        let st = &self.stripes[stripe];
        let mut ring = self.lock_stripe(st);
        if ring.objects.len() < st.capacity {
            ring.objects.push(object);
            let slot = st.base + ring.objects.len() - 1;
            self.counts[slot].store(0, Ordering::Relaxed);
            return StripeSlot {
                slot,
                evicted: None,
            };
        }
        loop {
            if ring.hand >= ring.objects.len() {
                ring.hand = 0;
            }
            let local = ring.hand;
            ring.hand += 1;
            let owner = ring.objects[local];
            let slot = st.base + local;
            if !is_live(owner, slot) {
                ring.objects[local] = object;
                self.counts[slot].store(0, Ordering::Relaxed);
                return StripeSlot {
                    slot,
                    evicted: None,
                };
            }
            let count = &self.counts[slot];
            let mut cur = count.load(Ordering::Relaxed);
            let decremented = loop {
                if cur == 0 {
                    break false;
                }
                match count.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break true,
                    Err(actual) => cur = actual,
                }
            };
            if !decremented {
                ring.objects[local] = object;
                count.store(0, Ordering::Relaxed);
                return StripeSlot {
                    slot,
                    evicted: Some(owner),
                };
            }
        }
    }

    /// Wipes sketch slots last touched before `time` back to
    /// [`EMPTY_SLOT`], fleet-wide — forgotten one-hit wonders look brand
    /// new to every shard again. Racing writers win: a slot advanced to
    /// `>= time` mid-sweep is kept.
    pub fn forget_older_than(&self, time: u64) {
        let floor = Self::sketch_time(time);
        for slot in &self.slots {
            let mut cur = slot.load(Ordering::Relaxed);
            while cur != EMPTY_SLOT && cur < floor {
                match slot.compare_exchange_weak(
                    cur,
                    EMPTY_SLOT,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// A point-in-time snapshot of the pool's contention counters.
    pub fn stats(&self) -> SketchPoolStats {
        SketchPoolStats {
            sketch_updates: self.sketch_updates.load(Ordering::Relaxed),
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
            stripe_contention: self.stripe_contention.load(Ordering::Relaxed),
        }
    }

    /// Saturates a request time into a sketch slot. Traces past
    /// `u32::MAX` requests pin to the ceiling: coarse gaps flatten there,
    /// exact histories (always full `u64`) are unaffected.
    fn sketch_time(time: u64) -> u32 {
        time.min(u64::from(u32::MAX - 1)) as u32
    }

    /// Takes a stripe's ring lock, counting the (rare) contended path.
    fn lock_stripe<'a>(&self, stripe: &'a Stripe) -> std::sync::MutexGuard<'a, StripeRing> {
        match stripe.ring.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.stripe_contention.fetch_add(1, Ordering::Relaxed);
                stripe.ring.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(max_objects: usize) -> TrackerBudget {
        TrackerBudget::capped(max_objects)
    }

    #[test]
    fn sketch_sized_like_a_private_tracker() {
        let b = budget(100);
        let pool = SharedDoorkeeper::new(b, 4);
        // Auto sizing: smallest power of two >= 4 * max_objects.
        assert_eq!(pool.sketch_bytes(), 512 * 4);
        let fixed = TrackerBudget {
            sketch_bits: 10,
            ..b
        };
        assert_eq!(SharedDoorkeeper::new(fixed, 1).sketch_bytes(), 1024 * 4);
    }

    #[test]
    fn stripes_partition_the_budget_exactly() {
        let pool = SharedDoorkeeper::new(budget(10), 4);
        let caps: Vec<usize> = (0..4).map(|i| pool.stripe_capacity(i)).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 10);
        // Ring bytes: 9 B/slot (object id + counter byte).
        assert_eq!(pool.stripe_ring_bytes(0), 3 * 9);
    }

    #[test]
    fn update_slot_reports_priors_and_never_regresses() {
        let pool = SharedDoorkeeper::new(budget(8), 1);
        let b = pool.bucket(ObjectId(7));
        assert_eq!(pool.update_slot(b, 100), EMPTY_SLOT); // first sighting
        assert_eq!(pool.update_slot(b, 250), 100); // second: prior returned
                                                   // A stale writer (an older time from a lagging shard) neither
                                                   // regresses the slot nor looks like a first sighting.
        assert_eq!(pool.update_slot(b, 50), 250);
        assert_eq!(pool.load_slot(b), 250);
        assert_eq!(pool.stats().sketch_updates, 2);
    }

    #[test]
    fn stripe_promote_fills_then_recycles_zero_count_owners() {
        let pool = SharedDoorkeeper::new(budget(2), 1);
        let a = pool.stripe_promote(0, ObjectId(1), |_, _| true);
        let b = pool.stripe_promote(0, ObjectId(2), |_, _| true);
        assert_eq!((a.slot, a.evicted), (0, None));
        assert_eq!((b.slot, b.evicted), (1, None));
        // Reference object 1 once: the sweep decrements it, passes on,
        // and recycles the idle object 2 instead.
        pool.reference(0);
        let c = pool.stripe_promote(0, ObjectId(3), |_, _| true);
        assert_eq!(c.evicted, Some(ObjectId(2)));
        assert_eq!(c.slot, 1);
    }

    #[test]
    fn stale_slots_are_taken_without_eviction() {
        let pool = SharedDoorkeeper::new(budget(1), 1);
        pool.stripe_promote(0, ObjectId(1), |_, _| true);
        // Owner 1 no longer live (caller forgot it): slot reused freely.
        let s = pool.stripe_promote(0, ObjectId(2), |_, _| false);
        assert_eq!(s.evicted, None);
        assert_eq!(s.slot, 0);
    }

    #[test]
    fn reference_saturates_at_the_clock_ceiling() {
        let pool = SharedDoorkeeper::new(budget(1), 1);
        pool.stripe_promote(0, ObjectId(1), |_, _| true);
        for _ in 0..10 {
            pool.reference(0);
        }
        // Ten references saturate at CLOCK_MAX_COUNT, so a single-slot
        // sweep burns through at most that many laps before recycling —
        // the bounded-sweep guarantee.
        let s = pool.stripe_promote(0, ObjectId(2), |o, _| o == ObjectId(1));
        assert_eq!(s.evicted, Some(ObjectId(1)));
        assert_eq!(s.slot, 0);
    }

    #[test]
    fn forget_wipes_only_older_slots() {
        let pool = SharedDoorkeeper::new(budget(8), 1);
        let b1 = pool.bucket(ObjectId(1));
        let b2 = pool.bucket(ObjectId(2));
        pool.update_slot(b1, 10);
        pool.update_slot(b2, 90);
        pool.forget_older_than(50);
        assert_eq!(pool.load_slot(b1), EMPTY_SLOT);
        assert_eq!(pool.load_slot(b2), 90);
    }

    #[test]
    #[should_panic(expected = "finite budget")]
    fn unbounded_budget_rejected() {
        SharedDoorkeeper::new(TrackerBudget::default(), 1);
    }
}
