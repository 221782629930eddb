//! `repro memory`: memory-bounded serving state at huge-catalog scale.
//!
//! The paper pitches *lightweight* ML for CDN caching, but exact serving
//! state scales with the catalog, not the cache: an unbounded gap tracker
//! keeps a history for every object ever seen, and the exact eviction
//! queue pays O(log n) on every hit. This experiment replays a
//! huge-catalog trace (unique objects ≫ residents) through the bounded
//! alternatives from DESIGN.md §14 — doorkeeper-sketch tracker budgets ×
//! sample-K eviction — and reports the metadata bytes carried per cached
//! object, split into tracker / index / model components, plus replay
//! throughput and process peak RSS.
//!
//! Two gates run at quick/full scale (smoke traces are too small for the
//! catalog to dwarf the tracker): at least one bounded configuration must
//! cut metadata bytes per cached object by ≥10× while giving up ≤0.01
//! BHR versus the exact baseline, and the best such configuration must
//! serve at least the exact baseline's requests/s in an interleaved
//! best-of-3 timing duel (sample-K removes the per-hit queue reorder, so
//! the hit path should get *faster* as state shrinks).

use std::time::Instant;

use cdn_cache::cache::{CachePolicy, RequestOutcome};
use cdn_trace::{GeneratorConfig, Request, TraceGenerator, TraceStats};
use gbdt::GbdtParams;
use lfo::labels::build_training_set;
use lfo::{
    EvictionStrategy, LfoArtifact, LfoCache, LfoConfig, ModelSlot, Provenance, TrackerBudget,
};
use opt::{compute_opt, OptConfig};

use crate::experiments::common::Gates;
use crate::harness::Context;
use crate::perf::{peak_rss_bytes, BenchMemory, MemoryRow};

/// One replay's observables: hit accounting plus end-state byte breakdown.
struct Replay {
    bhr: f64,
    reqs_per_sec: f64,
    tracker_bytes: u64,
    index_bytes: u64,
    model_bytes: u64,
    resident_objects: u64,
    tracked_objects: u64,
}

impl Replay {
    /// Per-object serving metadata: tracker plus eviction index, matching
    /// [`lfo::LfoCache::metadata_bytes`]. The model footprint is reported
    /// as its own component but stays out of the per-object ratio — it is
    /// shared state, identical in kind for exact and bounded rows.
    fn metadata_bytes_per_object(&self) -> f64 {
        if self.resident_objects == 0 {
            return 0.0;
        }
        (self.tracker_bytes + self.index_bytes) as f64 / self.resident_objects as f64
    }
}

/// Replays the trace through one cache built from `config`, model already
/// live in `slot`.
fn replay(requests: &[Request], capacity: u64, config: &LfoConfig, slot: &ModelSlot) -> Replay {
    let mut cache = LfoCache::with_slot(capacity, config.clone(), slot.clone());
    let mut total = 0u64;
    let mut hit = 0u64;
    let started = Instant::now();
    for request in requests {
        total += request.size;
        if cache.handle(request) == RequestOutcome::Hit {
            hit += request.size;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    Replay {
        bhr: if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        },
        reqs_per_sec: requests.len() as f64 / secs.max(1e-9),
        tracker_bytes: cache.tracker().approximate_bytes() as u64,
        index_bytes: cache.approximate_index_bytes() as u64,
        model_bytes: cache.model_footprint_bytes() as u64,
        resident_objects: cache.len() as u64,
        tracked_objects: cache.tracker().tracked_objects() as u64,
    }
}

/// The bounded configuration for one (budget, K) cell of the sweep. On
/// top of the tracker budget and sampled eviction, bounded rows thin the
/// gap schedule to powers of two capped at gap 16 — Figure 8's
/// exponential thinning, cut at the depth where each history's ring slot
/// stays near a hundred bytes. The per-budget model is trained on exactly
/// these features, so serving stays self-consistent.
fn bounded_config(budget: usize, k: usize) -> LfoConfig {
    LfoConfig {
        tracker_budget: Some(TrackerBudget::capped(budget)),
        eviction: Some(EvictionStrategy::sample(k)),
        gap_schedule: Some(vec![1, 2, 4, 8, 16]),
        ..LfoConfig::default()
    }
}

/// Runs the tracker-budget × sample-K sweep and the acceptance gates.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    let n = ctx.scale.pick3(12_000, 60_000, 300_000);
    let trace = TraceGenerator::new(GeneratorConfig::huge_catalog(211, n as u64)).generate();
    let stats = TraceStats::from_trace(&trace);
    let reqs = trace.requests();
    // 5% of the footprint: at huge-catalog scale the interesting regime
    // is residents ≪ unique objects, so exact tracker state dwarfs the
    // resident index and the bounded forms have something real to cut.
    let cache_size = stats.cache_size_for_fraction(0.05);

    println!("\n== memory: bounded serving state at huge-catalog scale ==");
    println!(
        "  trace: {} requests over {} unique objects; cache {:.1} MB",
        reqs.len(),
        stats.unique_objects,
        cache_size as f64 / (1024.0 * 1024.0)
    );

    // One set of first-window OPT labels feeds every configuration, but
    // each tracker budget trains its *own* model on the features its
    // bounded tracker actually emits (sketched coarse gaps, missing rows
    // for unpromoted objects). Serving bounded features to an
    // exact-trained model is a distribution shift that wrecks admission —
    // the model leans on deep gaps the bounded tracker no longer has.
    // Every replay scores through the quantized+pruned engine, same
    // kernel as `repro serve`.
    let w = ctx.window().min(reqs.len() / 2);
    let params = GbdtParams::lfo_paper();
    let opt_a = compute_opt(&reqs[..w], &OptConfig::bhr(cache_size)).expect("first-window OPT");
    let publish = |config: &LfoConfig, note: &str| -> ModelSlot {
        let mut tracker = config.tracker();
        let data = build_training_set(&reqs[..w], &opt_a, &mut tracker, cache_size);
        let model = gbdt::train(&data, &params);
        // Calibrate each model's admission cutoff on its own training
        // probabilities: a fixed 0.5 lands differently on every tracker's
        // feature distribution (bounded trackers emit coarser gaps, which
        // shifts the score mass), and the sweep compares configurations to
        // within 0.01 BHR — cutoff placement noise would swamp that.
        let probs: Vec<f64> = (0..data.num_rows())
            .map(|r| model.predict_proba(&data.row(r)))
            .collect();
        let cutoff = lfo::train::equalize_cutoff(&probs, data.labels());
        let artifact = LfoArtifact::new(
            config.clone(),
            model,
            cutoff,
            Provenance {
                trace_id: format!("huge-catalog-seed211-n{}", reqs.len()),
                window: 0,
                slot_version: 0,
                note: format!("repro memory, {note}, n={}", reqs.len()),
                lineage: None,
                pop: None,
            },
        );
        let slot = ModelSlot::new();
        artifact.publish_to(&slot);
        slot
    };

    // Exact baseline: unbounded tracker, fully ordered queue.
    let exact_config = LfoConfig::default();
    let exact_slot = publish(&exact_config, "exact tracker");
    let exact = replay(reqs, cache_size, &exact_config, &exact_slot);
    let exact_meta = exact.metadata_bytes_per_object();
    println!(
        "  exact baseline: {:>9.0} reqs/s  BHR {:.4}  {:.0} metadata B/obj \
         ({} residents, {} tracked)",
        exact.reqs_per_sec, exact.bhr, exact_meta, exact.resident_objects, exact.tracked_objects
    );
    // Budgets derive from what the baseline actually kept resident. The
    // top budget (5× residents) covers the resident set plus the
    // mid-popularity candidates contending for admission — the knee where
    // BHR holds; the smaller budgets chart how fast it degrades when the
    // ring can no longer cover the contenders.
    let residents = exact.resident_objects.max(1) as usize;
    let mut budgets: Vec<usize> = [5 * residents, 2 * residents, residents]
        .iter()
        .map(|&b| b.max(64))
        .collect();
    budgets.dedup();
    let ks = [8usize, 16, 64];

    let row_of = |label: String, eviction: String, budget: u64, r: &Replay| MemoryRow {
        label,
        eviction,
        tracker_budget: budget,
        bhr: r.bhr,
        bhr_cost_vs_exact: exact.bhr - r.bhr,
        reqs_per_sec: r.reqs_per_sec,
        tracker_bytes: r.tracker_bytes,
        index_bytes: r.index_bytes,
        model_bytes: r.model_bytes,
        metadata_bytes_per_object: r.metadata_bytes_per_object(),
        metadata_reduction_vs_exact: if r.metadata_bytes_per_object() > 0.0 {
            exact_meta / r.metadata_bytes_per_object()
        } else {
            0.0
        },
        resident_objects: r.resident_objects,
        tracked_objects: r.tracked_objects,
        peak_rss_bytes: peak_rss_bytes(),
    };

    let mut rows = vec![row_of("exact".into(), "exact".into(), 0, &exact)];
    println!("  label           eviction   reqs/s     BHR     cost    meta B/obj  reduction");
    let mut slots = Vec::new();
    for &budget in &budgets {
        // One model per budget: the features depend on the tracker bound,
        // not on K, so the three K replays share it.
        let budget_slot = publish(&bounded_config(budget, 8), &format!("budget {budget}"));
        for &k in &ks {
            let config = bounded_config(budget, k);
            let r = replay(reqs, cache_size, &config, &budget_slot);
            let row = row_of(
                format!("b{budget}/k{k}"),
                format!("sample{k}"),
                budget as u64,
                &r,
            );
            println!(
                "  {:<14}  {:<9}  {:>8.0}  {:.4}  {:+.4}  {:>9.1}  {:>8.1}x",
                row.label,
                row.eviction,
                row.reqs_per_sec,
                row.bhr,
                row.bhr_cost_vs_exact,
                row.metadata_bytes_per_object,
                row.metadata_reduction_vs_exact
            );
            rows.push(row);
        }
        slots.push((budget, budget_slot));
    }

    // The winning configuration: cheapest metadata among rows inside the
    // BHR envelope (every sampled row when none qualify yet, so smoke
    // still exercises the duel path).
    let qualifying: Vec<&MemoryRow> = rows[1..]
        .iter()
        .filter(|r| r.bhr_cost_vs_exact <= 0.01 && r.metadata_reduction_vs_exact >= 10.0)
        .collect();
    let best = qualifying
        .iter()
        .copied()
        .max_by(|a, b| {
            a.metadata_reduction_vs_exact
                .total_cmp(&b.metadata_reduction_vs_exact)
        })
        .unwrap_or(&rows[1]);
    let best_budget = best.tracker_budget as usize;
    let best_k: usize = best.eviction.trim_start_matches("sample").parse().unwrap();

    // Interleaved best-of-3 timing duel on the winning configuration —
    // alternating the two replays inside each round cancels thermal and
    // scheduler drift that a back-to-back pair would fold into one side.
    let best_config = bounded_config(best_budget, best_k);
    let best_slot = &slots
        .iter()
        .find(|(b, _)| *b == best_budget)
        .expect("every swept budget published a slot")
        .1;
    let mut exact_rate = 0.0f64;
    let mut sampled_rate = 0.0f64;
    for _ in 0..3 {
        exact_rate =
            exact_rate.max(replay(reqs, cache_size, &exact_config, &exact_slot).reqs_per_sec);
        sampled_rate =
            sampled_rate.max(replay(reqs, cache_size, &best_config, best_slot).reqs_per_sec);
    }
    let speedup = sampled_rate / exact_rate.max(1e-9);
    println!(
        "  duel ({}): sampled {:>9.0} vs exact {:>9.0} reqs/s ({speedup:.2}x)",
        best.label, sampled_rate, exact_rate
    );

    let gates = Gates::at(ctx.scale, "catalog too small to dwarf the tracker");
    let doc = BenchMemory {
        requests: reqs.len(),
        unique_objects: stats.unique_objects,
        cache_bytes: cache_size,
        gates_enforced: gates.enforced(),
        hit_path_speedup: speedup,
        rows: rows.clone(),
    };
    let path = doc.store(ctx)?;
    println!("  json: {}", path.display());
    ctx.write_csv(
        "memory.csv",
        "label,eviction,tracker_budget,bhr,bhr_cost_vs_exact,reqs_per_sec,tracker_bytes,\
         index_bytes,model_bytes,metadata_bytes_per_object,metadata_reduction_vs_exact,\
         resident_objects,tracked_objects,peak_rss_bytes",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{:.6},{:.6},{:.0},{},{},{},{:.1},{:.2},{},{},{}",
                    r.label,
                    r.eviction,
                    r.tracker_budget,
                    r.bhr,
                    r.bhr_cost_vs_exact,
                    r.reqs_per_sec,
                    r.tracker_bytes,
                    r.index_bytes,
                    r.model_bytes,
                    r.metadata_bytes_per_object,
                    r.metadata_reduction_vs_exact,
                    r.resident_objects,
                    r.tracked_objects,
                    r.peak_rss_bytes.unwrap_or(0)
                )
            })
            .collect::<Vec<_>>(),
    )?;

    gates.require(!qualifying.is_empty(), || {
        format!(
            "no bounded configuration reached 10x lower metadata bytes per cached object \
             within 0.01 BHR of the exact baseline (exact: {exact_meta:.1} B/obj)"
        )
    });
    gates.require(speedup >= 1.0, || {
        format!(
            "sample-K hit path served only {speedup:.2}x the exact queue's requests/s \
             (sampled {sampled_rate:.0} vs exact {exact_rate:.0})"
        )
    });
    if gates.enforced() {
        println!(
            "  gates: {} config(s) at >=10x / <=0.01 BHR; best {} at {:.1}x reduction, \
             duel {speedup:.2}x",
            qualifying.len(),
            best.label,
            best.metadata_reduction_vs_exact
        );
    }
    Ok(())
}
