//! Deterministic fault injection for the staged pipeline.
//!
//! The paper's robustness claim (§4: the cache must keep serving at line
//! rate even when the learning loop misbehaves) is only testable if every
//! failure mode can be produced on demand. A [`FaultPlan`] is a scripted,
//! seeded set of per-window fault points — labeler errors, trainer panics,
//! stalled solves, corrupted training rows — threaded through
//! [`PipelineConfig`](crate::PipelineConfig) and consulted by the stage
//! threads at their window boundaries. An empty plan is free: the stages
//! check a `Vec` that never matches, and the pipeline's output is
//! bit-identical to a build without fault hooks.
//!
//! Faults are *deterministic*: a plan names exact windows and firing
//! counts, and row corruption is a pure function of the plan seed, so every
//! failure scenario replays identically across runs and platforms.

use std::time::Duration;

use gbdt::Dataset;

use crate::splitmix64;

/// One failure mode the pipeline must survive.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The labeler's OPT solve fails for the window (as a real
    /// [`OptError`](opt::OptError) would).
    LabelError,
    /// The trainer panics mid-training (caught by stage supervision).
    TrainerPanic,
    /// Training stalls for the given extra wall-clock before completing —
    /// used to exercise the per-window training deadline.
    SlowTraining(Duration),
    /// The leading `fraction` of the window's training rows are corrupted
    /// (features scrambled, labels flipped) before training — the scripted
    /// trigger for the drift and accuracy rollout gates.
    CorruptRows {
        /// Fraction of rows (from the front of the window) to corrupt.
        fraction: f64,
    },
    /// A seeded `fraction` of the window's training labels are flipped
    /// while the feature rows stay untouched — model poisoning that the
    /// deploy-time gates cannot see (the PSI drift gate compares features
    /// only, and with no incumbent the accuracy gate has no reference), so
    /// the bad model reaches the slot and only the runtime guardrail
    /// (DESIGN.md §13) can catch it.
    ModelPoisoning {
        /// Fraction of the window's labels to flip (seeded row selection).
        fraction: f64,
    },
    /// The window's persisted artifact is torn mid-write: after the save
    /// completes, the file is truncated to half its length (a lost tail /
    /// torn sector). The *next* run's warm start must detect the damage
    /// via the header byte count and fall back to the cold path.
    TornArtifactWrite,
    /// One bit of the window's persisted artifact is flipped (silent disk
    /// corruption), at an offset determined by the plan seed. The next
    /// run's warm start must detect it via the content checksum.
    ArtifactBitFlip,
    /// The process "crashes" between the artifact temp-file write and the
    /// rename: the save fails, the temp file is left behind, and the store
    /// keeps resolving the previous artifact — never a partial one.
    ArtifactCrash,
}

/// The pipeline stage that consults a fault point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultStage {
    /// OPT solve + training-set construction.
    Label,
    /// Model fitting + rollout gating.
    Train,
    /// Durable artifact write after the accepting slot swap.
    Persist,
}

impl FaultKind {
    pub(crate) fn stage(&self) -> FaultStage {
        match self {
            FaultKind::LabelError
            | FaultKind::CorruptRows { .. }
            | FaultKind::ModelPoisoning { .. } => FaultStage::Label,
            FaultKind::TrainerPanic | FaultKind::SlowTraining(_) => FaultStage::Train,
            FaultKind::TornArtifactWrite
            | FaultKind::ArtifactBitFlip
            | FaultKind::ArtifactCrash => FaultStage::Persist,
        }
    }
}

/// A scripted fault at one window, firing a bounded number of times.
///
/// `count` is the number of *attempts* the fault affects: a count of 1
/// fails the first attempt and lets the stage's retry succeed; a count
/// larger than the retry budget exhausts supervision and skips the window.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Window index (0-based) the fault fires in.
    pub window: usize,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Remaining attempts this fault affects.
    pub count: usize,
}

/// A deterministic schedule of pipeline faults.
///
/// Built with the fluent [`inject`](FaultPlan::inject) /
/// [`inject_n`](FaultPlan::inject_n) API and handed to
/// [`PipelineConfig::faults`](crate::PipelineConfig); the default (empty)
/// plan injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// An empty plan (no faults) with seed 0.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with an explicit corruption seed.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: Vec::new(),
        }
    }

    /// Adds a fault that fires once at `window`.
    pub fn inject(self, window: usize, kind: FaultKind) -> Self {
        self.inject_n(window, kind, 1)
    }

    /// Adds a fault that affects the first `count` attempts at `window`.
    pub fn inject_n(mut self, window: usize, kind: FaultKind, count: usize) -> Self {
        self.points.push(FaultPoint {
            window,
            kind,
            count,
        });
        self
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.points.iter().all(|p| p.count == 0)
    }

    /// The corruption seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consumes one firing of the next pending fault for `window` at
    /// `stage`, if any.
    pub(crate) fn take(&mut self, window: usize, stage: FaultStage) -> Option<FaultKind> {
        let point = self
            .points
            .iter_mut()
            .find(|p| p.window == window && p.count > 0 && p.kind.stage() == stage)?;
        point.count -= 1;
        Some(point.kind.clone())
    }
}

/// Corrupts the leading `fraction` of `data`'s rows: features are scrambled
/// into a far-away but finite range (a distribution shift the PSI drift
/// gate must catch) and labels are flipped (an imitation-target corruption
/// the accuracy gate must catch). Deterministic in `seed`.
pub(crate) fn corrupt_rows(data: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let n = data.num_rows();
    let corrupt = ((n as f64) * fraction.clamp(0.0, 1.0)).ceil() as usize;
    let offset = 5.0e7 + (seed % 13) as f32 * 1.0e6;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for r in 0..n {
        let mut row = data.row(r);
        let mut label = data.label(r);
        if r < corrupt {
            for v in &mut row {
                *v = v.mul_add(1.0e3, offset);
            }
            label = 1.0 - label.clamp(0.0, 1.0);
        }
        rows.push(row);
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).expect("corrupted rows stay finite and rectangular")
}

/// Flips a seeded-hash-selected `fraction` of `data`'s labels, leaving the
/// feature rows byte-identical. Unlike [`corrupt_rows`], the poisoned set
/// is *indistinguishable by feature distribution* from the clean one — the
/// PSI drift gate passes by construction — so the resulting model is the
/// canonical bad-but-gate-passing candidate the runtime guardrail must
/// catch. Deterministic in `seed`.
pub(crate) fn poison_labels(data: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let n = data.num_rows();
    let fraction = fraction.clamp(0.0, 1.0);
    // Hash-select rows so the flipped set is spread across the window (a
    // prefix flip would concentrate the damage on early-trace objects):
    // row r is poisoned iff its seeded hash lands under the fraction.
    let threshold = (fraction * u64::MAX as f64) as u64;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for r in 0..n {
        let mut label = data.label(r);
        if splitmix64(seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) <= threshold {
            label = 1.0 - label.clamp(0.0, 1.0);
        }
        rows.push(data.row(r));
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).expect("poisoned rows stay finite and rectangular")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_takes_nothing() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.take(0, FaultStage::Label), None);
        assert_eq!(plan.take(0, FaultStage::Train), None);
    }

    #[test]
    fn take_decrements_and_respects_stage() {
        let mut plan = FaultPlan::new().inject(2, FaultKind::LabelError).inject_n(
            2,
            FaultKind::TrainerPanic,
            2,
        );
        // Wrong window: nothing.
        assert_eq!(plan.take(1, FaultStage::Label), None);
        // Label fault fires once, then is exhausted.
        assert_eq!(plan.take(2, FaultStage::Label), Some(FaultKind::LabelError));
        assert_eq!(plan.take(2, FaultStage::Label), None);
        // Train fault fires twice.
        assert_eq!(
            plan.take(2, FaultStage::Train),
            Some(FaultKind::TrainerPanic)
        );
        assert_eq!(
            plan.take(2, FaultStage::Train),
            Some(FaultKind::TrainerPanic)
        );
        assert_eq!(plan.take(2, FaultStage::Train), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn corrupt_rows_is_prefix_only_and_deterministic() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 2.0 * i as f32]).collect();
        let labels: Vec<f32> = (0..10).map(|i| (i % 2) as f32).collect();
        let data = Dataset::from_rows(rows, labels).unwrap();
        let a = corrupt_rows(&data, 0.5, 7);
        let b = corrupt_rows(&data, 0.5, 7);
        for r in 0..10 {
            assert_eq!(a.row(r), b.row(r), "row {r} not deterministic");
            assert_eq!(a.label(r), b.label(r));
            if r < 5 {
                assert!(a.row(r)[0] > 1.0e6, "row {r} not scrambled");
                assert_eq!(a.label(r), 1.0 - data.label(r));
            } else {
                assert_eq!(a.row(r), data.row(r), "clean row {r} modified");
                assert_eq!(a.label(r), data.label(r));
            }
        }
        // A different seed scrambles to a different (still finite) range.
        let c = corrupt_rows(&data, 0.5, 8);
        assert_ne!(a.row(0), c.row(0));
        assert!(c.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn poison_labels_flips_labels_but_never_features() {
        let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32, 3.0 * i as f32]).collect();
        let labels: Vec<f32> = (0..200).map(|i| (i % 2) as f32).collect();
        let data = Dataset::from_rows(rows, labels).unwrap();
        let a = poison_labels(&data, 0.5, 42);
        let b = poison_labels(&data, 0.5, 42);
        let mut flipped = 0usize;
        for r in 0..200 {
            // Features byte-identical — the PSI gate sees no shift at all.
            assert_eq!(a.row(r), data.row(r), "row {r} features modified");
            assert_eq!(a.label(r), b.label(r), "row {r} not deterministic");
            if a.label(r) != data.label(r) {
                assert_eq!(a.label(r), 1.0 - data.label(r));
                flipped += 1;
            }
        }
        // Hash selection lands near the requested fraction, not a prefix.
        assert!((60..=140).contains(&flipped), "flipped {flipped}/200");
        // fraction 0 is a no-op; fraction 1 flips everything.
        let none = poison_labels(&data, 0.0, 42);
        let all = poison_labels(&data, 1.0, 42);
        for r in 0..200 {
            assert_eq!(none.label(r), data.label(r));
            assert_eq!(all.label(r), 1.0 - data.label(r));
        }
    }
}
